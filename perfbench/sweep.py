"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload simulate --seeds 1 2 3 4 5 \
        [--out perfbench/results/spread-simulate.json]

For each metric: the median of its values across the runs, and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of that median.  Also the duration of every run and the
number of calls attempted and failed.  Runs are sequential, one process
at a time, each measuring workloads.RUN_SECONDS with tracing off.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def run_once(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(workloads.RUN_SECONDS), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("give at least two seeds")

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed))
        r = runs[-1]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} run_s={r['run_s']:.1f}", flush=True)
    bounds = {m.name: m.bound for m in workloads.END_TO_END}
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:16s} median {s['median']:.6g}  spread {s['spread']:.4f}"
              f"  (bound {bounds[name]})")
    doc = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": workloads.RUN_SECONDS,
        "passed": sum(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "run_s": [r["run_s"] for r in runs],
        "metrics": summary,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
