"""Memory by stage: the peak-RSS rise and page faults of each benchmark operation, on two trees.

    python tools/rss_stages.py --ref SRC --new SRC --workload NAME

SRC is a source tree: a checkout holding ``src/planarcrit`` or the ``src``
directory itself.  NAME is a workload of ``BENCHMARK.json``.  Each tree
runs in its own subprocess at 1 BLAS thread, one after the other.  The
worker imports numpy, scipy and ``planarcrit.cli``, as a benchmark
process does, and reads ``getrusage`` there: the post-import baseline.
Then it makes the workload's operations once, in order, at the master
seed SEED (``perfbench/workloads.py``, read from the checkout that holds
this script), in process through ``planarcrit.cli.main``.

For each operation the script prints, for both trees side by side:
the rise of ``ru_maxrss`` (the process's high-water mark) above the
baseline once the operation is done, the minor page faults
(``ru_minflt``) the operation took, and its wall and CPU seconds.  The
high-water mark never falls, so an operation that does not raise it
reads the rise its predecessors left.  The script writes nothing under
``perfbench/``.  It exits 1 when an operation of the tree under test
exits nonzero or fails its check, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

import two_trees

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 101


def _label(op) -> str:
    """The command, model family and pair of an operation."""
    argv = list(op.argv)
    words = [argv[0]]
    for flag in ("--model", "--pair"):
        if flag in argv:
            words.append(argv[argv.index(flag) + 1])
    if op.config is not None:
        words.append(re.search(r"^model\.family = (\S+)", op.config, re.M).group(1))
    return " ".join(words)


def run_tree(workload: str) -> None:
    """Worker: one JSON line for the baseline, then one per operation."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from planarcrit import cli

    sys.path.insert(1, str(PERFBENCH))
    import workloads

    ops = workloads.WORKLOADS[workload].ops(SEED)
    base = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"baseline_mb": base.ru_maxrss / 1024.0}), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops:
            argv = list(op.argv)
            if op.config is not None:
                path = os.path.join(tmp, "model.cfg")
                Path(path).write_text(op.config)
                argv[1:1] = ["--config", path]
            out = io.StringIO()
            before = resource.getrusage(resource.RUSAGE_SELF)
            wall, cpu = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_SELF)
            error = None if code == 0 else f"exit {code}"
            if code == 0:
                try:
                    op.check(out.getvalue())
                except workloads.CheckError as exc:
                    error = str(exc)
            print(json.dumps({
                "op": _label(op),
                "rise_mb": (after.ru_maxrss - base.ru_maxrss) / 1024.0,
                "minflt": after.ru_minflt - before.ru_minflt,
                "wall_s": wall,
                "cpu_s": cpu,
                "error": error,
            }), flush=True)


def compare(ref: list[dict], new: list[dict], workload: str) -> int:
    """Print both trees' readings per operation; 1 if the new tree fails one."""
    (ref_base, *ref_ops), (new_base, *new_ops) = ref, new
    print(f"workload {workload}, seed {SEED}: post-import ru_maxrss "
          f"{ref_base['baseline_mb']:.2f} MB (ref), {new_base['baseline_mb']:.2f} MB (new)")
    print(f"{'op':>3s} {'call':<32s} | {'rise MB ref':>11s} {'new':>7s} | "
          f"{'minflt ref':>10s} {'new':>6s} | {'wall s ref':>10s} {'new':>6s} | "
          f"{'cpu s ref':>9s} {'new':>6s}")
    for i, (a, b) in enumerate(zip(ref_ops, new_ops)):
        print(f"{i:>3d} {a['op']:<32s} | {a['rise_mb']:>11.2f} {b['rise_mb']:>7.2f} | "
              f"{a['minflt']:>10d} {b['minflt']:>6d} | {a['wall_s']:>10.3f} {b['wall_s']:>6.3f} | "
              f"{a['cpu_s']:>9.3f} {b['cpu_s']:>6.3f}")
    for name, ops in (("ref", ref_ops), ("new", new_ops)):
        print(f"{name}: {sum(op['minflt'] for op in ops)} minor faults, "
              f"{sum(op['wall_s'] for op in ops):.3f} s wall, "
              f"{sum(op['cpu_s'] for op in ops):.3f} s CPU over {len(ops)} operations")
        for i, op in enumerate(ops):
            if op["error"]:
                print(f"{name} op {i} ({op['op']}): {op['error']}")
    return 1 if any(op["error"] for op in new_ops) else 0


def _workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    options = {"workload": {"choices": _workload_names(), "help": "benchmark workload to run"}}
    return two_trees.main(argv, __file__, __doc__, run_tree, compare, options)


if __name__ == "__main__":
    sys.exit(main())
