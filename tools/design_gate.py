"""Equivalence gate for the field design of the sweep: the same statistics on two trees.

    python tools/design_gate.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess at 1 BLAS thread,
one after the other, and calls its own ``estimators.sweep`` with its
default number of terms for RandomWave(1) and ShiftedRandomWave(0.8, 1.3,
1.5), NREAL realizations each, on the window [0, L]^2, L = 20 / k_eff, at
every master seed in SEEDS, with the one radius RHO.  A tree whose sweep
draws M = 1024 iid directions and one whose sweep draws the ring design
(``sampling.field_terms``) so meet the same targets.  The seeds, the
quantities and the bound are fixed here, before any run, so that none is
picked by its result.

For each family and seed it prints, per tree, the terms per realization
and, each with its z:

* the intensity of all critical points against lambda_c, z = (estimate -
  lambda_c) / SE with the jackknife SE of ``estimators.intensity``;
* the e, s, min and max fractions of all points against 0.5, 0.5, 0.25
  and 0.25: the ratio of the kind's total to the total over all
  realizations, with its leave-one-out jackknife SE over realizations;

and then ``second_factorial`` cc at RHO against the other tree's, z = (new
- ref) / hypot(SE_new, SE_ref).  Last come how many |z| lie below BOUND,
for the reference tree's and for the others (the tree under test and the
comparison).  It times nothing.  It exits 1 when a z of the tree under
test or of the comparison reaches BOUND in modulus, else 0; the
reference tree's z only describe it.
"""

from __future__ import annotations

import inspect
import json
import math
import sys

import two_trees

SEEDS = (1001, 1002, 1003, 1004, 1005)
NREAL = 200
RHO = 0.5
BOUND = 3.0
FAMILIES = ("randomwave", "shiftedrandomwave")
# The fractions of all points each tag counts, in the (max, min, saddle) columns.
FRACTIONS = {"e": ((0, 1), 0.5), "s": ((2,), 0.5), "min": ((1,), 0.25), "max": ((0,), 0.25)}


def run_tree() -> None:
    """Worker: one JSON line per family and seed with the sweep's counts."""
    from planarcrit import estimators, sampling
    from planarcrit.models import (RandomWave, ShiftedRandomWave, effective_wavenumber,
                                   sigma_derivatives)
    from planarcrit.theory import lambda_c

    M = inspect.signature(estimators.sweep).parameters["M"].default
    for family, model in zip(FAMILIES, (RandomWave(1.0), ShiftedRandomWave(0.8, 1.3, 1.5))):
        side = 20.0 / effective_wavenumber(model)
        window = ((0.0, side), (0.0, side))
        # A tree without sampling.field_terms draws M iid terms.
        terms = getattr(sampling, "field_terms", lambda model, M, window: M)(model, M, window)
        for seed in SEEDS:
            sw = estimators.sweep(model, NREAL, seed, rho_list=[RHO], window=window)
            cc = estimators.second_factorial(sw, RHO)
            print(json.dumps({"family": family, "seed": seed, "terms": terms,
                              "lam": lambda_c(sigma_derivatives(model)), "area": sw.area,
                              "totals": sw.totals.tolist(),
                              "cc": [cc.value, cc.std_error]}), flush=True)


def _jackknife(num, den):
    """sum(num) / sum(den) and its leave-one-out jackknife SE over realizations."""
    n, a, b = len(num), sum(num), sum(den)
    loo = [(a - x) / (b - y) for x, y in zip(num, den)]
    mean = sum(loo) / n
    return a / b, math.sqrt((n - 1) / n * sum((v - mean) ** 2 for v in loo))


def _zs(rec: dict) -> list[tuple[str, float, float]]:
    """(quantity, estimate, z) of one tree's record against the targets."""
    totals = rec["totals"]
    counts = [sum(row) for row in totals]
    density = [c / rec["area"] for c in counts]
    value, se = _jackknife(density, [1.0] * len(density))
    out = [("intensity", value, (value - rec["lam"]) / se)]
    for tag, (cols, target) in FRACTIONS.items():
        value, se = _jackknife([sum(row[c] for c in cols) for row in totals], counts)
        out.append((f"{tag} fraction", value, (value - target) / se))
    return out


def compare(ref: list[dict], new: list[dict]) -> int:
    """Print every z per family and seed and the pass counts; 1 if a gated |z| reaches BOUND."""
    if [(a["family"], a["seed"]) for a in ref] != [(b["family"], b["seed"]) for b in new]:
        raise SystemExit("the two trees ran different families or seeds")
    print(f"{'family':>18s} {'seed':>5s} {'quantity':>12s} | {'ref':>10s} {'z':>6s} "
          f"| {'new':>10s} {'z':>6s}")
    ref_z, gated = [], []
    for a, b in zip(ref, new):
        print(f"{a['family']:>18s} {a['seed']:>5d} {'terms':>12s} | {a['terms']:>10d} "
              f"{'':>6s} | {b['terms']:>10d}")
        for (name, va, za), (_, vb, zb) in zip(_zs(a), _zs(b)):
            ref_z.append(za)
            gated.append(zb)
            print(f"{'':>18s} {'':>5s} {name:>12s} | {va:10.5g} {za:+6.2f} | {vb:10.5g} {zb:+6.2f}")
        (va, sa), (vb, sb) = a["cc"], b["cc"]
        z = (vb - va) / math.hypot(sa, sb)
        gated.append(z)
        print(f"{'':>18s} {'':>5s} {'cc at rho':>12s} | {va:10.5g} {'':>6s} | {vb:10.5g} "
              f"{z:+6.2f} (new - ref)")
    for name, zs in (("ref", ref_z), ("new and comparison", gated)):
        print(f"{name}: {sum(abs(z) < BOUND for z in zs)} of {len(zs)} |z| below {BOUND:g}")
    return 1 if any(not abs(z) < BOUND for z in gated) else 0


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, compare)


if __name__ == "__main__":
    sys.exit(main())
