"""Root-set gate: compare two versions of the critical-point finder on a fixed corpus.

    python tools/finder_corpus.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess, one after the
other, and returns every root that ``find_critical_points`` finds on the
corpus, with the finder's process CPU time, minor page faults and the
number of points it evaluates: the rows it passes to
``sampling.eval_many``, directly or through a wrapper such as
``eval_gradient``, each counted once.

The corpus has 400 realizations, 80 per family, for RandomWave(1),
BargmannFock(1), ShiftedRandomWave(0.5, 1, 1), PowerLawTruncated(3) and
Interpolation(0.5, RandomWave(1), BargmannFock(1)), each on the window
[0, L] x [0, L], once at the model's default grid step h and once at
2 h, where the seeds start farther from the roots:

* seeds (202, i), i < 40: i < 30 with M = 256, Gaussian amplitudes and
  L = 20; i >= 30 with M = 1024, random phases and L = 12;
* seeds (7, i), i < 40: M = 256 for even i and 1024 for odd i, Gaussian
  amplitudes when i = 0 mod 3, and L = 12.

A root of the reference tree is matched to the nearest root of the new
tree in the same realization at the same step.  It is missed when none
lies within TOL = 1e-9, and a kind mismatch when the nearest one lies
within TOL but has another kind; a new root with no reference root
within TOL is extra.
For each step the script prints one table row per family (roots,
missed, extra, kind mismatches, largest displacement of a matched root,
finder CPU, minor page faults and eval_many rows reference -> new),
then each extra root with its |grad psi| and Hessian eigenvalues, then
every window whose finder reports a nonzero index defect, then how
many windows differ in their number of Newton seeds (the finder's
nseeds: candidate cells plus fold partners).
Zero there means the two trees started Newton from as many points in
every window, as they do when the sign test is unchanged.  It exits 1
when a reference root is missed or changes kind at either step, else 0.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import two_trees

FAMILIES = ("randomwave", "bargmannfock", "shiftedrandomwave", "powerlawtruncated",
            "interpolation")
# Indices per seed series and family, and the match distance of a root.
SERIES = 40
TOL = 1e-9
# The grid steps run, as multiples of the default.
COARSEN = (1, 2)


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
    import numpy as np

    from planarcrit import finder, sampling
    from planarcrit.finder import default_grid_step, find_critical_points
    from planarcrit.sampling import sample_field

    # The finder's own name and the one sampling's wrappers look up both
    # lead to one counter in front of the original, so each row counts once.
    evaluate, rows = sampling.eval_many, [0]

    def counting(f, x, alphas):
        rows[0] += len(np.atleast_2d(x))
        return evaluate(f, x, alphas)

    finder.eval_many = sampling.eval_many = counting
    models = _models()
    for family, master, i, M, gaussian, L in corpus():
        field = sample_field(models[family], M=M, seed=(master, i), gaussian_amplitudes=gaussian)
        for coarsen in COARSEN:
            diag: dict = {}
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rows[0] = 0
            start = time.process_time()
            points = find_critical_points(field, ((0.0, L), (0.0, L)),
                                          coarsen * default_grid_step(field.model),
                                          diagnostics=diag)
            cpu = time.process_time() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            roots = [[*p.location, str(p.kind), p.gradient_residual, *p.hessian_eigenvalues]
                     for p in points]
            print(json.dumps({"key": [family, master, i, M, gaussian, L], "coarsen": coarsen,
                              "cpu": cpu, "faults": faults, "rows": rows[0],
                              "defect": diag.get("index_defect"),
                              "nseeds": diag.get("nseeds"), "roots": roots}))


def compare(ref: list[dict], new: list[dict]):
    """Per-family counts, the extra roots, the windows with a nonzero defect and
    the number of windows whose seed counts differ."""
    rows: dict = {}
    extras, defects = [], []
    seed_diffs = 0
    if [(a["key"], a["coarsen"]) for a in ref] != [(b["key"], b["coarsen"]) for b in new]:
        raise SystemExit("the two trees ran different corpora")
    for a, b in zip(ref, new):
        row = rows.setdefault(a["key"][0], dict(roots=0, new_roots=0, missed=0, extra=0,
                                                kinds=0, shift=0.0, cpu_ref=0.0, cpu_new=0.0,
                                                faults_ref=0, faults_new=0, rows_ref=0,
                                                rows_new=0))
        row["roots"] += len(a["roots"])
        row["new_roots"] += len(b["roots"])
        row["cpu_ref"] += a["cpu"]
        row["cpu_new"] += b["cpu"]
        row["faults_ref"] += a["faults"]
        row["faults_new"] += b["faults"]
        row["rows_ref"] += a["rows"]
        row["rows_new"] += b["rows"]
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
        seed_diffs += a["nseeds"] != b["nseeds"]
    return rows, extras, defects, seed_diffs


def _key(key) -> str:
    family, master, i, M, gaussian, L = key
    return f"{family} ({master}, {i}) M={M} {'G' if gaussian else 'P'} L={L:g}"


def report(ref: list[dict], new: list[dict]) -> int:
    """Print one table per step; 1 on a missed or retyped root at either step."""
    status = 0
    for coarsen in COARSEN:
        if coarsen != COARSEN[0]:
            print()
        print(f"## {coarsen} x the default grid step\n")
        status |= _report_step([a for a in ref if a["coarsen"] == coarsen],
                               [b for b in new if b["coarsen"] == coarsen])
    return status


def _report_step(ref: list[dict], new: list[dict]) -> int:
    """Print the table, the extra roots and the defects; 1 on a missed or retyped root."""
    rows, extras, defects, seed_diffs = compare(ref, new)
    print("| family | roots (ref) | roots (new) | missed | extra | kind mismatches "
          "| largest displacement | finder CPU ref -> new (s) | minor page faults ref -> new "
          "| eval_many rows ref -> new |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    total = dict.fromkeys(("roots", "new_roots", "missed", "extra", "kinds"), 0)
    total.update(shift=0.0, cpu_ref=0.0, cpu_new=0.0, faults_ref=0, faults_new=0, rows_ref=0,
                 rows_new=0)
    for family, row in [*rows.items(), ("total", total)]:
        if family != "total":
            for k in total:
                total[k] = max(total[k], row[k]) if k == "shift" else total[k] + row[k]
        print(f"| {family} | {row['roots']} | {row['new_roots']} | {row['missed']} | "
              f"{row['extra']} | {row['kinds']} | {row['shift']:.1e} | "
              f"{row['cpu_ref']:.2f} -> {row['cpu_new']:.2f} | "
              f"{row['faults_ref']} -> {row['faults_new']} | "
              f"{row['rows_ref']} -> {row['rows_new']} |")
    if extras:
        print("\nExtra roots (|grad psi|, Hessian eigenvalues):")
        for key, x, y, kind, resid, lo, hi in extras:
            print(f"  {_key(key)}: ({x:.5f}, {y:.5f}) {kind} {resid:.1e} ({lo:.3f}, {hi:.3f})")
    if defects:
        print("\nWindows with a nonzero index defect:")
        for side, key, defect in defects:
            print(f"  {side}: {_key(key)}: {defect:+d}")
    print(f"\nWindows with a differing seed count: {seed_diffs} of {len(ref)}")
    return 1 if total["missed"] or total["kinds"] else 0


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, report)


if __name__ == "__main__":
    sys.exit(main())
