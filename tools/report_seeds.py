"""Stream gate for `report`: every small-budget check of the triangle families at several master seeds, on two trees.

    python tools/report_seeds.py --ref SRC --new SRC

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  Each tree runs in its own subprocess at 1 BLAS thread,
one after the other, and makes the benchmark's ``triangle`` operations
(``perfbench/workloads.py``, read from the checkout that holds this
script: ``report --budget small`` for each of the five model families)
at each master seed in SEEDS, in process through ``planarcrit.cli.main``.
The seeds are fixed here, before any run, so that no seed is picked by
its result.

For each seed and family the script prints how many of the report's
checks pass on each tree (a check passes when its row reads PASS) and the
largest relative change of any estimate or SE between the trees.  Then,
per tree, the pass count over all checks, and the largest relative change
overall with the row it is in.  It times nothing.  It exits 1 when the
tree under test fails a check or a call, else 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import two_trees

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (101, 102, 103, 104, 105)


def run_tree() -> None:
    """Worker: one JSON line per seed and family with the report's rows."""
    from planarcrit import cli

    sys.path.insert(1, str(PERFBENCH))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            ops = workloads.WORKLOADS["triangle"].ops(seed)
            for model, op in zip(workloads.TRIANGLE_MODELS, ops):
                argv = list(op.argv)
                if op.config is not None:
                    path = os.path.join(tmp, "model.cfg")
                    Path(path).write_text(op.config)
                    argv[1:1] = ["--config", path]
                record = {"seed": seed, "family": model["family"],
                          "checks": len(workloads.REPORT_CHECKS), "rows": [], "errors": []}
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if code != 0:
                    record["errors"].append(f"exit {code}: {err.getvalue().strip()}")
                else:
                    record["rows"] = [
                        [row["check"], float(row["estimate"]), float(row["std_error"]),
                         row["status"]]
                        for row in csv.DictReader(io.StringIO(out.getvalue()))
                    ]
                    try:
                        op.check(out.getvalue())
                    except workloads.CheckError as exc:
                        record["errors"].append(str(exc))
                print(json.dumps(record), flush=True)


def _passed(rec: dict) -> int:
    return sum(row[3] == "PASS" for row in rec["rows"])


def _changes(a: dict, b: dict):
    """(relative change, where) of every estimate and SE the two records share."""
    for ra, rb in zip(a["rows"], b["rows"]):
        for i, what in ((1, "estimate"), (2, "std_error")):
            x, y = ra[i], rb[i]
            rel = 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))
            yield rel, f"seed {a['seed']} {a['family']} {ra[0]} {what}"


def compare(ref: list[dict], new: list[dict]) -> int:
    """Print one row per seed and family and a summary per tree; 1 if the new tree fails."""
    if [(a["seed"], a["family"]) for a in ref] != [(b["seed"], b["family"]) for b in new]:
        raise SystemExit("the two trees ran different seeds or families")
    print(f"{'seed':>5s} {'family':>18s} | {'ref':>5s} | {'new':>5s} | largest rel. change")
    worst = (0.0, "nothing")
    for a, b in zip(ref, new):
        same = [row[0] for row in a["rows"]] == [row[0] for row in b["rows"]]
        top = max(_changes(a, b), default=(0.0, "")) if same else (float("nan"), "rows differ")
        if same:
            worst = max(worst, top)
        passed = [f"{_passed(rec)}/{rec['checks']}" for rec in (a, b)]
        print(f"{a['seed']:>5d} {a['family']:>18s} | {passed[0]:>5s} | {passed[1]:>5s} | "
              f"{top[0]:.2e}")
    for rec in new:
        for error in rec["errors"]:
            print(f"new seed {rec['seed']} {rec['family']}: {error}")
    for name, recs in (("ref", ref), ("new", new)):
        total = sum(rec["checks"] for rec in recs)
        failed = sum(bool(rec["errors"]) for rec in recs)
        print(f"{name}: {sum(map(_passed, recs))} of {total} checks pass; "
              f"{failed} of {len(recs)} reports fail a check or a call")
    print(f"largest relative change of any estimate or SE: {worst[0]:.2e} ({worst[1]})")
    return 1 if any(rec["errors"] or _passed(rec) < rec["checks"] for rec in new) else 0


def main(argv=None) -> int:
    return two_trees.main(argv, __file__, __doc__, run_tree, compare)


if __name__ == "__main__":
    sys.exit(main())
