"""Root-set gate: compare two versions of the critical-point finder on a fixed corpus.

    python tools/finder_corpus.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess, one after the
other, and returns every root that ``find_critical_points`` finds on the
corpus, with the finder's process CPU time.

The corpus has 400 realizations, 80 per family, for RandomWave(1),
BargmannFock(1), ShiftedRandomWave(0.5, 1, 1), PowerLawTruncated(3) and
Interpolation(0.5, RandomWave(1), BargmannFock(1)), each on the window
[0, L] x [0, L] at the model's default grid step:

* seeds (202, i), i < 40: i < 30 with M = 256, Gaussian amplitudes and
  L = 20; i >= 30 with M = 1024, random phases and L = 12;
* seeds (7, i), i < 40: M = 256 for even i and 1024 for odd i, Gaussian
  amplitudes when i = 0 mod 3, and L = 12.

A root of the reference tree is matched to the nearest root of the new
tree in the same realization.  It is missed when none lies within TOL =
1e-9, and a kind mismatch when the nearest one lies within TOL but has
another kind; a new root with no reference root within TOL is extra.
The script prints one table row per family (roots, missed, extra, kind
mismatches, largest displacement of a matched root, finder CPU reference
-> new), then each extra root with its |grad psi| and Hessian
eigenvalues, then every window whose finder reports a nonzero index
defect.  It exits 1 when a reference root is missed or changes kind,
else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

FAMILIES = ("randomwave", "bargmannfock", "shiftedrandomwave", "powerlawtruncated",
            "interpolation")
# Indices per seed series and family, and the match distance of a root.
SERIES = 40
TOL = 1e-9


def corpus():
    """(family, master, index, M, gaussian, L) for every corpus realization."""
    for family in FAMILIES:
        for i in range(SERIES):
            yield (family, 202, i, *((256, True, 20.0) if i < 30 else (1024, False, 12.0)))
        for i in range(SERIES):
            yield family, 7, i, 256 if i % 2 == 0 else 1024, i % 3 == 0, 12.0


def _models() -> dict:
    from planarcrit.models import (
        BargmannFock, Interpolation, PowerLawTruncated, RandomWave, ShiftedRandomWave)

    return dict(zip(FAMILIES, (
        RandomWave(1.0), BargmannFock(1.0), ShiftedRandomWave(0.5, 1.0, 1.0),
        PowerLawTruncated(3.0), Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0)))))


def run_tree() -> None:
    """Worker: find the roots of every corpus realization, one JSON line each."""
    from planarcrit.finder import find_critical_points
    from planarcrit.sampling import sample_field

    models = _models()
    for family, master, i, M, gaussian, L in corpus():
        field = sample_field(models[family], M=M, seed=(master, i), gaussian_amplitudes=gaussian)
        diag: dict = {}
        start = time.process_time()
        points = find_critical_points(field, ((0.0, L), (0.0, L)), diagnostics=diag)
        cpu = time.process_time() - start
        roots = [[*p.location, str(p.kind), p.gradient_residual, *p.hessian_eigenvalues]
                 for p in points]
        print(json.dumps({"key": [family, master, i, M, gaussian, L], "cpu": cpu,
                          "defect": diag.get("index_defect"), "roots": roots}))


def _src_dir(tree: str) -> str:
    path = Path(tree).resolve()
    if (path / "src" / "planarcrit").is_dir():
        path = path / "src"
    if not (path / "planarcrit").is_dir():
        raise SystemExit(f"no planarcrit package under {tree}")
    return str(path)


def _collect(tree: str) -> list[dict]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, __file__, "--worker", _src_dir(tree)]
    # The worker's stderr goes to the terminal, so a failing tree shows its traceback.
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, env=env)
    return [json.loads(line) for line in out.stdout.splitlines()]


def compare(ref: list[dict], new: list[dict]):
    """Per-family counts, the extra roots and the windows with a nonzero defect."""
    rows: dict = {}
    extras, defects = [], []
    if [a["key"] for a in ref] != [b["key"] for b in new]:
        raise SystemExit("the two trees ran different corpora")
    for a, b in zip(ref, new):
        row = rows.setdefault(a["key"][0], dict(roots=0, new_roots=0, missed=0, extra=0,
                                                kinds=0, shift=0.0, cpu_ref=0.0, cpu_new=0.0))
        row["roots"] += len(a["roots"])
        row["new_roots"] += len(b["roots"])
        row["cpu_ref"] += a["cpu"]
        row["cpu_new"] += b["cpu"]
        for x, y, kind, *_ in a["roots"]:
            dist, near = min(((math.hypot(x - u, y - v), k) for u, v, k, *_ in b["roots"]),
                             default=(math.inf, None))
            if dist > TOL:
                row["missed"] += 1
            elif near != kind:
                row["kinds"] += 1
            else:
                row["shift"] = max(row["shift"], dist)
        for x, y, kind, resid, lo, hi in b["roots"]:
            if all(math.hypot(x - u, y - v) > TOL for u, v, *_ in a["roots"]):
                row["extra"] += 1
                extras.append((b["key"], x, y, kind, resid, lo, hi))
        for side, rec in (("ref", a), ("new", b)):
            if rec["defect"]:
                defects.append((side, rec["key"], rec["defect"]))
    return rows, extras, defects


def _key(key) -> str:
    family, master, i, M, gaussian, L = key
    return f"{family} ({master}, {i}) M={M} {'G' if gaussian else 'P'} L={L:g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--ref", help="source tree of the reference finder")
    p.add_argument("--new", help="source tree of the finder under test")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.worker)
        run_tree()
        return 0
    if not (args.ref and args.new):
        p.error("--ref and --new are required")
    ref = _collect(args.ref)
    new = _collect(args.new)
    rows, extras, defects = compare(ref, new)

    print("| family | roots (ref) | roots (new) | missed | extra | kind mismatches "
          "| largest displacement | finder CPU ref -> new (s) |")
    print("|---|---|---|---|---|---|---|---|")
    total = dict.fromkeys(("roots", "new_roots", "missed", "extra", "kinds"), 0)
    total.update(shift=0.0, cpu_ref=0.0, cpu_new=0.0)
    for family, row in [*rows.items(), ("total", total)]:
        if family != "total":
            for k in total:
                total[k] = max(total[k], row[k]) if k == "shift" else total[k] + row[k]
        print(f"| {family} | {row['roots']} | {row['new_roots']} | {row['missed']} | "
              f"{row['extra']} | {row['kinds']} | {row['shift']:.1e} | "
              f"{row['cpu_ref']:.2f} -> {row['cpu_new']:.2f} |")
    if extras:
        print("\nExtra roots (|grad psi|, Hessian eigenvalues):")
        for key, x, y, kind, resid, lo, hi in extras:
            print(f"  {_key(key)}: ({x:.5f}, {y:.5f}) {kind} {resid:.1e} ({lo:.3f}, {hi:.3f})")
    if defects:
        print("\nWindows with a nonzero index defect:")
        for side, key, defect in defects:
            print(f"  {side}: {_key(key)}: {defect:+d}")
    return 1 if total["missed"] or total["kinds"] else 0


if __name__ == "__main__":
    sys.exit(main())
