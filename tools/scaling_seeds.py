"""Stream gate for `scaling`: the benchmark's scaling ops at several master seeds, on two trees.

    python tools/scaling_seeds.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess at 1 BLAS thread,
one after the other, and makes both ``scaling`` operations of the
benchmark (``perfbench/workloads.py``, read from the checkout that holds
this script: ee and ss pairs, 5 distances from 0.005 to 0.05, 4e6 draws
per distance) at each master seed in SEEDS, in process through
``planarcrit.cli.main``.  The seeds are fixed here, before any run, so
that no seed is picked by its result.

For each seed and tree the script prints the ee exponent and its
reported SE (the fit row), the smallest ss value, and whether both
operations pass the benchmark's own checks (ee exponent 3 +- 0.3, every
ss row positive).  Then, per tree, the pass rate, and the across-seed
mean and SD of the ee exponent beside the mean reported ``exponent_se``:
the fit's SE comes from its residuals and assumes independent rows, so
the across-seed SD is the measured spread to read it against.  It times
nothing.  It exits 1 when the tree under test fails a check at any seed,
else 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import sys
from pathlib import Path

import two_trees

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 101)


def run_tree() -> None:
    """Worker: one JSON line per seed with both operations' readings."""
    from planarcrit import cli

    sys.path.insert(1, str(PERFBENCH))
    import workloads

    for seed in SEEDS:
        record = {"seed": seed, "errors": []}
        for op in workloads.WORKLOADS["scaling"].ops(seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
            if code != 0:
                record["errors"].append(f"exit {code}: {err.getvalue().strip()}")
                continue
            rows = list(csv.DictReader(io.StringIO(out.getvalue())))
            if rows[-1]["label"] == "fit(e,e)":
                record["exponent"] = float(rows[-1]["value"])
                record["exponent_se"] = float(rows[-1]["std_error"])
            else:
                record["min_ss"] = min(float(r["value"]) for r in rows if r["label"] == "(s,s)")
            try:
                op.check(out.getvalue())
            except workloads.CheckError as exc:
                record["errors"].append(str(exc))
        print(json.dumps(record), flush=True)


def _cell(rec: dict) -> str:
    exponent = (f"{rec['exponent']:.4f} +- {rec['exponent_se']:.4f}" if "exponent" in rec
                else "-")
    min_ss = f"{rec['min_ss']:.4e}" if "min_ss" in rec else "-"
    return f"{exponent:>18s} {min_ss:>11s} {'pass' if not rec['errors'] else 'FAIL':>4s}"


def _summary(name: str, recs: list[dict]) -> str:
    passed = sum(not rec["errors"] for rec in recs)
    exps = [rec["exponent"] for rec in recs if "exponent" in rec]
    ses = [rec["exponent_se"] for rec in recs if "exponent_se" in rec]
    line = f"{name}: {passed} of {len(recs)} seeds pass"
    if len(exps) >= 2:
        line += (f"; ee exponent mean {statistics.fmean(exps):.4f}, across-seed SD "
                 f"{statistics.stdev(exps):.4f}, mean reported SE {statistics.fmean(ses):.4f}")
    return line


def compare(ref: list[dict], new: list[dict]) -> int:
    """Print one row per seed and a summary per tree; 1 if the new tree fails a check."""
    if [a["seed"] for a in ref] != [b["seed"] for b in new]:
        raise SystemExit("the two trees ran different seeds")
    head = f"{'ee exponent +- SE':>18s} {'min ss':>11s} {'':>4s}"
    print(f"{'seed':>5s} | ref {head} | new {head}")
    for a, b in zip(ref, new):
        print(f"{a['seed']:>5d} | {_cell(a)} | {_cell(b)}")
    for rec in new:
        for error in rec["errors"]:
            print(f"new seed {rec['seed']}: {error}")
    print(_summary("ref", ref))
    print(_summary("new", new))
    return 1 if any(rec["errors"] for rec in new) else 0


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, compare)


if __name__ == "__main__":
    sys.exit(main())
