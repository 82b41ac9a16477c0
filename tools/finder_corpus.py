"""Root-set gate: compare two versions of the critical-point finder on a fixed corpus.

    python tools/finder_corpus.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess, one after the
other, and returns every root that ``find_critical_points`` finds on the
corpus, with the finder's minor page faults and the number of points
it evaluates: the rows it passes to ``sampling.eval_many``, directly or
through a wrapper such as ``eval_gradient``, each counted once.  It
times nothing: one unpinned run per tree cannot resolve the CPU
differences between two finders, so time claims go through perfbench
or pinned in-process repeats.

The corpus has 400 realizations, 80 per family, for RandomWave(1),
BargmannFock(1), ShiftedRandomWave(0.5, 1, 1), PowerLawTruncated(3) and
Interpolation(0.5, RandomWave(1), BargmannFock(1)), each on the window
[0, L] x [0, L], once at the model's default grid step h and once at
2 h, where the seeds start farther from the roots:

* seeds (202, i), i < 40: i < 30 with M = 256, Gaussian amplitudes and
  L = 20; i >= 30 with M = 1024, random phases and L = 12;
* seeds (7, i), i < 40: M = 256 for even i and 1024 for odd i, Gaussian
  amplitudes when i = 0 mod 3, and L = 12.

A wide series adds 150 realizations per family at the default step only:
seeds (909, i), i < 150, M = 256, Gaussian amplitudes and L = 20.  It is
reported in a table of its own.

A root of the reference tree is matched to the nearest root of the new
tree in the same realization at the same step.  It is missed when none
lies within TOL = 1e-9, and a kind mismatch when the nearest one lies
within TOL but has another kind; a new root with no reference root
within TOL is extra.
For each step, and for the wide series, the script prints one table
row per family (roots, missed, extra, kind mismatches, largest
displacement of a matched root, and reference -> new: minor page faults,
eval_many rows, Newton steps and merged trajectories, the finder's
newton_iters and nmerged),
then each extra root with its |grad psi| and Hessian eigenvalues, then
every window whose finder reports a nonzero index defect, then how
many windows differ in their number of Newton seeds (the finder's
nseeds: candidate cells plus fold partners), then, per family and tree,
how many sign-test grid nodes the finder evaluated and how many of them
are undecided: their single-precision value lies within the rounding
bound that ``sampling.sign_grid`` returns with its grid.  A tree whose
``sign_grid`` returns the grid alone and recomputes those nodes in
double (``sampling._exact_nodes``) reports the recomputed ones; a tree
without ``sign_grid`` reads 0.
Zero seed-count differences mean the two trees started Newton from as
many points in every window, as they do when the sign test is unchanged.
It exits 1 when a reference root is missed or changes kind at either
step or in the wide series, else 0.  Nothing is written to a file.
"""

from __future__ import annotations

import json
import math
import resource
import sys

import two_trees

FAMILIES = ("randomwave", "bargmannfock", "shiftedrandomwave", "powerlawtruncated",
            "interpolation")
# Indices per seed series and family, and the match distance of a root.
SERIES = 40
TOL = 1e-9
# The grid steps run, as multiples of the default.
COARSEN = (1, 2)
# Indices per family of the wide series, run at the default step only.
WIDE = 150
# Per-window counts summed per family on each side, in table order.
_SUMMED = ("faults", "rows", "iters", "merged")
# Per-window grid counts, reported after the table: nodes and the undecided ones.
_NODES = ("nodes", "undecided")
_PAIRED = tuple(name + side for name in _SUMMED for side in ("_ref", "_new"))


def corpus():
    """(family, master, index, M, gaussian, L) for every corpus realization."""
    for family in FAMILIES:
        for i in range(SERIES):
            yield (family, 202, i, *((256, True, 20.0) if i < 30 else (1024, False, 12.0)))
        for i in range(SERIES):
            yield family, 7, i, 256 if i % 2 == 0 else 1024, i % 3 == 0, 12.0


def wide():
    """(family, master, index, M, gaussian, L) for every wide-series realization."""
    for family in FAMILIES:
        for i in range(WIDE):
            yield family, 909, i, 256, True, 20.0


def _runs():
    """(series, realization, coarsen) for every finder call, in output order."""
    for key in corpus():
        for coarsen in COARSEN:
            yield "corpus", key, coarsen
    for key in wide():
        yield "wide", key, 1


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
    # It forwards every argument: a tree whose finder passes grid tables
    # is compared as it runs, not through the direct form.
    evaluate, rows = sampling.eval_many, [0]

    def counting(f, x, alphas, *args, **kwargs):
        rows[0] += len(np.atleast_2d(x))
        return evaluate(f, x, alphas, *args, **kwargs)

    finder.eval_many = sampling.eval_many = counting

    # The sign-test grid's nodes, whichever grid routine the finder calls,
    # and the undecided ones: within the bound sign_grid returns, or
    # recomputed in double by a sign_grid that returns the grid alone.
    # The returned grids are counted after the page faults are read, in
    # buffers kept for the worker's life: arrays of the grid's size freed
    # between finder calls move the allocator's thresholds, and with them
    # the finder's page faults.
    grid_name = "sign_grid" if hasattr(finder, "sign_grid") else "eval_grid"
    grid_fn, exact_fn = getattr(finder, grid_name), getattr(sampling, "_exact_nodes", None)
    nodes, bounded = [0, 0], []
    held = [np.empty(0), np.empty(0, dtype=bool)]

    def undecided(grid, bound) -> int:
        if held[0].size < grid.size:
            held[:] = np.empty(grid.size), np.empty(grid.size, dtype=bool)
        size = held[0][:grid.size].reshape(grid.shape)
        near = held[1][:grid.size].reshape(grid.shape)
        return int(np.count_nonzero(np.less_equal(np.abs(grid, out=size), bound, out=near)))

    def grid_counting(tables, alphas):
        nodes[0] += len(alphas) * tables.xaxis[2] * tables.yaxis[2]
        out = grid_fn(tables, alphas)
        if isinstance(out, tuple):
            bounded.append(out)
        return out

    def exact_counting(tables, w, order, idx, *args):
        nodes[1] += idx.size
        return exact_fn(tables, w, order, idx, *args)

    setattr(finder, grid_name, grid_counting)
    if exact_fn is not None:
        sampling._exact_nodes = exact_counting
    models = _models()
    for series, (family, master, i, M, gaussian, L), coarsen in _runs():
        field = sample_field(models[family], M=M, seed=(master, i), gaussian_amplitudes=gaussian)
        diag: dict = {}
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rows[0] = nodes[0] = nodes[1] = 0
        points = find_critical_points(field, ((0.0, L), (0.0, L)),
                                      coarsen * default_grid_step(field.model),
                                      diagnostics=diag)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        nodes[1] += sum(undecided(grid, bound) for grid, bound in bounded)
        bounded.clear()
        roots = [[*p.location, str(p.kind), p.gradient_residual, *p.hessian_eigenvalues]
                 for p in points]
        print(json.dumps({"series": series, "key": [family, master, i, M, gaussian, L],
                          "coarsen": coarsen, "faults": faults, "rows": rows[0],
                          "nodes": nodes[0], "undecided": nodes[1],
                          "defect": diag.get("index_defect"),
                          "nseeds": diag.get("nseeds"), "iters": diag.get("newton_iters"),
                          "merged": diag.get("nmerged"), "roots": roots}))


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
                                                kinds=0, shift=0.0, **dict.fromkeys(_PAIRED, 0)))
        row["roots"] += len(a["roots"])
        row["new_roots"] += len(b["roots"])
        for name in _SUMMED:
            row[name + "_ref"] += a[name]
            row[name + "_new"] += b[name]
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
    """Print one table per step and one for the wide series; 1 on a missed or
    retyped root in any of them."""
    status = 0
    parts = [(f"{coarsen} x the default grid step", "corpus", coarsen) for coarsen in COARSEN]
    parts.append((f"Wide series (909, i), i < {WIDE}, at the default grid step", "wide", 1))
    for n, (title, series, coarsen) in enumerate(parts):
        if n:
            print()
        print(f"## {title}\n")
        status |= _report_step(
            *([r for r in side if r["series"] == series and r["coarsen"] == coarsen]
              for side in (ref, new)))
    return status


def _report_step(ref: list[dict], new: list[dict]) -> int:
    """Print the table, the extra roots and the defects; 1 on a missed or retyped root."""
    rows, extras, defects, seed_diffs = compare(ref, new)
    print("| family | roots (ref) | roots (new) | missed | extra | kind mismatches "
          "| largest displacement | minor page faults ref -> new | eval_many rows ref -> new "
          "| Newton steps ref -> new | merged ref -> new |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    total = dict.fromkeys(("roots", "new_roots", "missed", "extra", "kinds", *_PAIRED), 0)
    total.update(shift=0.0)
    for family, row in [*rows.items(), ("total", total)]:
        if family != "total":
            for k in total:
                total[k] = max(total[k], row[k]) if k == "shift" else total[k] + row[k]
        cells = [row["roots"], row["new_roots"], row["missed"], row["extra"], row["kinds"],
                 f"{row['shift']:.1e}",
                 *(f"{row[name + '_ref']} -> {row[name + '_new']}" for name in _SUMMED)]
        print(f"| {family} | " + " | ".join(map(str, cells)) + " |")
    if extras:
        print("\nExtra roots (|grad psi|, Hessian eigenvalues):")
        for key, x, y, kind, resid, lo, hi in extras:
            print(f"  {_key(key)}: ({x:.5f}, {y:.5f}) {kind} {resid:.1e} ({lo:.3f}, {hi:.3f})")
    if defects:
        print("\nWindows with a nonzero index defect:")
        for side, key, defect in defects:
            print(f"  {side}: {_key(key)}: {defect:+d}")
    print(f"\nWindows with a differing seed count: {seed_diffs} of {len(ref)}")
    print("\nUndecided sign-test grid nodes, ref -> new (of the grid's nodes):")
    for family in rows:
        counts = [[sum(r.get(k, 0) for r in side if r["key"][0] == family) for k in _NODES]
                  for side in (ref, new)]
        print(f"  {family}: {counts[0][1]} of {counts[0][0]} -> {counts[1][1]} of {counts[1][0]}")
    return 1 if total["missed"] or total["kinds"] else 0


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, report)


if __name__ == "__main__":
    sys.exit(main())
