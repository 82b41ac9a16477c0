"""CLI digest gate: compare the stdout of two source trees, call by call.

    python tools/cli_digests.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess at 1 BLAS thread,
one after the other, and makes every call of one fixed matrix in process
through ``planarcrit.cli.main``:

* every operation of the benchmark (``perfbench/workloads.py``, read
  from the checkout that holds this script) at the seeds in SEEDS;
* for each of the five ``triangle`` families and for
  PowerLawTruncated(inf): ``theory`` (CSV and JSON), ``sample``, ``find``
  (CSV and JSON) and ``kacrice`` one-point for the kinds c, min and s,
  two-point for the es and ee pairs (at the distances in DISTANCES) and
  ball, and the ee two-point and ball calls again at an odd budget, so
  the rounding of ceil(N / 2) draws is compared too.  The smallest
  distance lies just above every family's floor, where the averaged
  Hessian entries have conditional variance of order r^4 and the 80-bit
  Schur step decides the bits;
* with two worker processes (``--threads 2``): ``kacrice`` ball for each
  ``triangle`` family and one ``report --budget small``, so the task
  tuples the pool pickles are compared too;
* for RandomWave(1), surfaces the calls above leave out (EXTRA_CALLS):
  ``estimate`` of the mixed pair es, ``estimate`` on the model's default
  window (no ``--window-size``) and ``report`` as a text table (no
  ``--format``); ``report`` for RandomWave(10), whose Poisson control
  is sized by the model's length unit, so it pins that the control does
  not grow with the wave number, and for RandomWave(0.001), whose
  control's ball grid must keep its 20 x 20 centres; ``find`` for
  RandomWave(2^20) on the window [0, 20 / 2^20]^2, which pins that the
  Newton tolerance is relative to the gradient's unit (an absolute one
  finds no root there); ``kacrice`` two-point for BargmannFock(1)
  at the far distance 1e100, where the pair density's factors are near
  overflow; and ``estimate`` for ShiftedRandomWave(0.8, 1.3, 1.5), the
  other family whose sweep draws the ring design, and for
  BargmannFock(1), which draws ``--size`` iid frequencies;
* for RandomWave(1), calls whose parameters come from a ``--config``
  file (CONFIG_CALLS): ``estimate``, ``sample`` (once with the flag
  ``--no-gaussian-amplitudes`` over the config's bool), ``scaling`` and
  ``kacrice`` ball, so config bools, comma-separated lists and choices
  go through the merge of flags, config and defaults.

A call's digest is the sha256 of its stdout, kept with its exit code, so
a call that must fail is compared too.  The worker also keeps the cells
of the stdout: the leaves of a JSON document, or else the cells of CSV
rows.  The script prints one line per call, "match" or "DIFFERS" with
both exit codes and digests, then the count of matches; it exits 1 when
any digest or exit code differs, else 0.  When a differing call's two
outputs have the same shape (the same JSON paths, or the same CSV rows
and columns) and differ only in numeric cells, its line gives the
largest relative change |a - b| / max(|a|, |b|) over them, which tells a
move in the last bits from a change of law; else it says which differs,
the shape or a text cell.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import two_trees

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (101, 102, 103)
DISTANCES = ("0.001", "0.01", "0.3", "3", "40")
UNTRUNCATED = {"family": "powerlawtruncated", "t": "inf"}
CONFIG_MODEL = "model.family = randomwave\nmodel.k = 1\n"
_RANDOMWAVE = ["--model", "randomwave", "--k", "1", "--seed", "7"]
# name: argv
EXTRA_CALLS = {
    "estimate es": ["estimate", *_RANDOMWAVE, "--nreal", "3", "--size", "256",
                    "--window-size", "20", "--pair", "es", "--rho-list", "1.0", "1.9"],
    "estimate default window": ["estimate", *_RANDOMWAVE, "--nreal", "2", "--size", "256"],
    "report text": ["report", *_RANDOMWAVE, "--budget", "small"],
    "report k 10": ["report", "--model", "randomwave", "--k", "10", "--seed", "7",
                    "--budget", "small", "--format", "csv"],
    "report k 0.001": ["report", "--model", "randomwave", "--k", "0.001", "--budget", "small",
                       "--seed", "7", "--format", "csv"],
    "find k 2^20": ["find", "--model", "randomwave", "--k", "1048576",
                    "--window-size", "1.9073486328125e-05", "--size", "256",
                    "--gaussian-amplitudes", "--seed", "1", "--format", "csv"],
    "kacrice two-point far": ["kacrice", "--model", "bargmannfock", "--k", "1", "--seed", "7",
                              "--what", "two-point", "--r", "1e100", "--nsamples", "2000"],
    "estimate shiftedrandomwave": ["estimate", "--model", "shiftedrandomwave", "--tau", "0.8",
                                   "--s", "1.3", "--k", "1.5", "--seed", "7", "--nreal", "3",
                                   "--size", "256", "--window-size", "12", "--rho-list", "1.0"],
    "estimate bargmannfock": ["estimate", "--model", "bargmannfock", "--k", "1", "--seed", "7",
                              "--nreal", "3", "--size", "64", "--window-size", "6",
                              "--rho-list", "0.5"],
}
# name: (argv before the config, config body after CONFIG_MODEL)
CONFIG_CALLS = {
    "estimate": (["estimate"],
                 "nreal = 3\nsize = 256\nwindow-size = 8\nkind = e\nrho-list = 0.5, 1.0\n"),
    "sample": (["sample"], "size = 16\ngaussian-amplitudes = on\n"),
    "sample --no-gaussian-amplitudes": (["sample", "--no-gaussian-amplitudes"],
                                        "size = 16\ngaussian-amplitudes = on\n"),
    "scaling": (["scaling"], "with-log = yes\npair = ss\npoints = 4\nr-min = 0.05\n"
                             "r-max = 0.4\nnsamples = 20000\n"),
    "kacrice ball": (["kacrice"], "what = ball\nrho-list = 0.3\nthreads = 2\nnsamples = 2000\n"),
}


def _model_argv(model: dict, tmp: str, name: str) -> list[str]:
    """CLI flags for a model, or a config file when it has nested keys."""
    if any("." in key for key in model):
        path = os.path.join(tmp, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"model.{key} = {val}\n" for key, val in model.items())
        return ["--config", path]
    argv = ["--model", model["family"]]
    for key, val in model.items():
        if key != "family":
            argv += [f"--{key}", val]
    return argv


def matrix(tmp: str):
    """(name, argv) for every call, with config bodies written into tmp."""
    import workloads

    for wname, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for i, op in enumerate(workload.ops(seed)):
                argv = list(op.argv)
                if op.config is not None:
                    path = os.path.join(tmp, f"{wname}-{seed}-{i}.cfg")
                    with open(path, "w") as fh:
                        fh.write(op.config)
                    argv[1:1] = ["--config", path]
                yield f"{wname} seed {seed} op {i}", argv
    seeded = ["--seed", "7", "--threads", "1"]
    pooled = ["--seed", "7", "--threads", "2"]
    for m, model in enumerate((*workloads.TRIANGLE_MODELS, UNTRUNCATED)):
        label = ",".join(f"{k}={v}" for k, v in model.items())
        flags = _model_argv(model, tmp, f"model{m}")
        two_point = ["kacrice", *flags, *seeded, "--what", "two-point", "--r", *DISTANCES]
        ball = ["kacrice", *flags, *seeded, "--what", "ball", "--rho-list", "0.3"]
        one_point = ["kacrice", *flags, *seeded, "--what", "one-point", "--nsamples", "20000"]
        calls = {
            "theory csv": ["theory", *flags, "--format", "csv"],
            "theory json": ["theory", *flags],
            "sample": ["sample", *flags, *seeded, "--size", "16"],
            "find csv": ["find", *flags, *seeded, "--size", "256", "--window-size", "6"],
            "find json": ["find", *flags, *seeded, "--size", "256", "--window-size", "6",
                          "--format", "json"],
            "kacrice one-point": one_point,
            "kacrice one-point min": [*one_point, "--kind", "min"],
            "kacrice one-point s": [*one_point, "--kind", "s"],
            "kacrice two-point es": [*two_point, "--nsamples", "20000", "--pair", "es"],
            "kacrice two-point ee": [*two_point, "--nsamples", "20000", "--pair", "ee"],
            "kacrice two-point ee odd": [*two_point, "--nsamples", "20001", "--pair", "ee"],
            "kacrice ball": [*ball, "--nsamples", "2000"],
            "kacrice ball odd": [*ball, "--nsamples", "2001"],
        }
        if model is not UNTRUNCATED:
            calls["kacrice ball threads 2"] = ["kacrice", *flags, *pooled, "--what", "ball",
                                               "--rho-list", "0.3", "--nsamples", "2000"]
        if m == 0:
            calls["report threads 2"] = ["report", *flags, *pooled, "--budget", "small",
                                         "--format", "csv"]
        for call, argv in calls.items():
            yield f"{call} [{label}]", argv
    yield from EXTRA_CALLS.items()
    for c, (call, (argv, body)) in enumerate(CONFIG_CALLS.items()):
        path = os.path.join(tmp, f"config{c}.cfg")
        with open(path, "w") as fh:
            fh.write(CONFIG_MODEL + body)
        yield f"{call} [config]", [*argv, "--config", path, "--seed", "7"]


def cells(text: str) -> list[list]:
    """[path, leaf] for each leaf of a JSON document, else [row:column,
    cell] for each cell of CSV rows."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [[f"{i}:{j}", cell] for i, row in enumerate(csv.reader(io.StringIO(text)))
                for j, cell in enumerate(row)]
    out = []

    def walk(path, node):
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(f"{path}/{key}", child)
        else:
            out.append([path, node])

    walk("", doc)
    return out


def _number(cell):
    """cell as a float, or None when it is not a number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def largest_change(a: list[list], b: list[list]) -> str:
    """How far the cells of b moved from those of a, in words."""
    if [path for path, _ in a] != [path for path, _ in b]:
        return "shapes differ"
    worst, moved = 0.0, 0
    for (path, x), (_, y) in zip(a, b):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return f"text cell {path} differs"
        moved += 1
        if fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return f"largest cell change {worst:.2g} relative ({moved} of {len(a)} cells moved)"


def run_tree() -> None:
    """Worker: one JSON line (name, exit code, stdout sha256, cells) per call."""
    from planarcrit import cli

    sys.path.insert(1, str(PERFBENCH))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in matrix(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(json.dumps({"name": name, "exit": code, "sha256": sha,
                              "cells": cells(out.getvalue())}), flush=True)


def compare(ref: list[dict], new: list[dict]) -> int:
    """Print one line per call and the count of matches; 1 if any differs."""
    if [a["name"] for a in ref] != [b["name"] for b in new]:
        raise SystemExit("the two trees ran different call matrices")
    same = 0
    for a, b in zip(ref, new):
        if (a["exit"], a["sha256"]) == (b["exit"], b["sha256"]):
            same += 1
            print(f"match    {a['name']}: exit {a['exit']}, sha256 {a['sha256'][:16]}")
        else:
            print(f"DIFFERS  {a['name']}: exit {a['exit']} -> {b['exit']}, "
                  f"sha256 {a['sha256'][:16]} -> {b['sha256'][:16]}, "
                  f"{largest_change(a['cells'], b['cells'])}")
    print(f"{same} of {len(ref)} digests match")
    return 0 if same == len(ref) else 1


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, compare)


if __name__ == "__main__":
    sys.exit(main())
