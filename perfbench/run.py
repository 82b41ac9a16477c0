"""planarcrit benchmark: one closed-loop client running a workload's CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

A run repeats its workload's job (a fixed list of ``planarcrit.cli.main``
calls, see workloads.py) in this process until ``--seconds`` have passed,
checks every call's output, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics.  Times are in reference
  seconds (calibration.py): each is scaled by the host's speed while it
  was measured, which short probes that interrupt the program track.
  ``wall_ref_s`` and ``cpu_ref_s`` are medians over jobs; ``setup_s`` is
  the median over fresh processes that import ``planarcrit.cli`` and
  build the workload's models.  The raw times are printed and recorded.
* ``--trace 1`` alternates untraced and traced jobs and reports the
  per-layer metrics of tracing.py, as medians over the traced jobs.

Every call's output is hashed.  Repeats of one (workload, seed) must give
identical bytes: within a run, between the traced and untraced jobs, and
across runs of the same program source (``perfbench/out/digests.json``).
A call fails on a nonzero exit code, a failed check or differing bytes.

The process and its children are pinned to one CPU, and the BLAS
libraries run one thread.  Each run writes its full record, with
the environment, to ``perfbench/out/``.  ``--write-spec`` rewrites
BENCHMARK.json from the tables in workloads.py.
"""

import os
import sys

# Fixed before numpy loads, for steady timings; recorded with every result.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
# Probes taken just before and just after each set-up process.
SETUP_PROBES = 4

# Child process timed for setup_s: import the CLI, build the models.
_SETUP = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import planarcrit.cli
from planarcrit.models import model_from_config
for spec in json.loads(sys.argv[2]):
    model_from_config(spec)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec:
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds < 1:
            p.error("--seed must be nonnegative and --seconds positive")
    return args


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "planarcrit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int, source: str) -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_sha": _git_sha(),
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload_seed": seed,
    }


def _setup_time(models) -> tuple[float, float]:
    """One fresh set-up process: (raw seconds, reference seconds).

    The child shares the pinned CPU, so the probes bracket it instead of
    interrupting it.
    """
    probe = calibration.Probe()
    for _ in range(SETUP_PROBES):
        probe.take()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP, str(SRC), json.dumps(list(models))], check=True
    )
    raw = time.perf_counter() - t0
    for _ in range(SETUP_PROBES):
        probe.take()
    return raw, raw * probe.scale()[0]


def _call(cli, argv, tracer, index):
    """One CLI call with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.root(index, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc()
            code = "exception"
    return code, out.getvalue(), err.getvalue()


def _job(cli, argvs, probe=None, tracer=None) -> dict:
    """Run every call once; wall and CPU time cover the calls only.

    With a probe (calibration.py), the job runs under it: its times exclude
    the probes and are also given in reference seconds.
    """
    with probe.running() if probe else contextlib.nullcontext():
        before = probe.spent() if probe else (0.0, 0.0)
        t0, c0 = time.perf_counter(), time.process_time()
        results = [_call(cli, argv, tracer, i) for i, argv in enumerate(argvs)]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = probe.spent() if probe else (0.0, 0.0)
    wall -= after[0] - before[0]
    cpu -= after[1] - before[1]
    job = {"traced": tracer is not None, "results": results}
    if probe:
        scale_wall, scale_cpu = probe.scale()
        job.update(wall_ref_s=wall * scale_wall, cpu_ref_s=cpu * scale_cpu,
                   probes=len(probe.samples), probe_mean_s=probe.means())
    job.update(wall_s=wall, cpu_s=cpu)
    return job


def _assess(ops, job, expected, check_errors) -> None:
    """Hash and check each call of a job, in place."""
    calls = []
    for i, (op, (code, out, err)) in enumerate(zip(ops, job.pop("results"))):
        sha = hashlib.sha256(out.encode()).hexdigest()
        error, pairs = None, []
        if code != 0:
            error = f"exit {code}: {err.strip()[-500:]}"
        elif expected is not None and sha != expected[i]:
            error = "output differs from an earlier call with the same inputs"
        else:
            try:
                pairs = op.check(out)
            except check_errors as exc:
                error = f"check failed: {exc}"
        calls.append({"exit": code, "sha256": sha, "error": error, "pairs": pairs})
    job["calls"] = calls


def _materialize(ops, tmp: str) -> list[list[str]]:
    """argv lists, with each op's config body written to a file in tmp."""
    argvs = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.config is not None:
            path = os.path.join(tmp, f"op{i}.cfg")
            with open(path, "w") as fh:
                fh.write(op.config)
            argv[1:1] = ["--config", path]
        argvs.append(argv)
    return argvs


def _load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _store_digests(path: Path, digests: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _end_to_end(jobs, setup, attempted, failed) -> dict:
    return {
        "wall_ref_s": statistics.median(job["wall_ref_s"] for job in jobs),
        "cpu_ref_s": statistics.median(job["cpu_ref_s"] for job in jobs),
        "wall_s": statistics.median(job["wall_s"] for job in jobs),
        "cpu_s": statistics.median(job["cpu_s"] for job in jobs),
        "setup_s": statistics.median(ref for _, ref in setup),
        "setup_raw_s": statistics.median(raw for raw, _ in setup),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                        - calibration.FOOTPRINT_MB),
        "pass_frac": (attempted - failed) / attempted,
    }


def _per_layer(workloads, tracing, jobs, tracers) -> dict:
    """Medians over traced jobs, plus the metrics that need the untraced ones."""
    per_job = [tracing.layer_values(tracing.layer_totals(t.spans)) for t in tracers]
    values = {name: statistics.median(v[name] for v in per_job) for name in per_job[0]}
    plain = [job for job in jobs if not job["traced"]]
    wall = statistics.median(job["wall_s"] for job in plain)
    traced_wall = statistics.median(job["wall_s"] for job in jobs if job["traced"])
    values["trace.overhead_frac"] = traced_wall / wall - 1.0
    cpu = statistics.median(job["cpu_ref_s"] for job in plain)
    values["wnv"] = workloads.wnv(cpu, [p for c in plain[0]["calls"] for p in c["pairs"]])
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    try:
        import planarcrit.cli as cli
        import tracing
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import planarcrit from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent.parent != SRC:
        # An installed copy is not the source tree under test.
        print(f"perfbench: planarcrit was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(workloads.spec(), indent=2) + "\n")
        return 0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # One CPU for the program, the probes and the set-up processes alike.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ops = workload.ops(args.seed)
    source = _source_digest()
    env = environment(args.seed, source)
    key = hashlib.sha256(
        json.dumps([workload.name, args.seed, [[op.argv, op.config] for op in ops], source])
        .encode()
    ).hexdigest()
    check_errors = (workloads.CheckError, KeyError, ValueError)
    OUT.mkdir(exist_ok=True)
    digest_path = OUT / "digests.json"
    digests = _load_digests(digest_path)
    expected = digests.get(key)

    setup = []
    if not args.trace:
        setup = [_setup_time(workload.models) for _ in range(SETUP_REPEATS)]

    jobs, tracers = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        argvs = _materialize(ops, tmp)
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < args.seconds:
            jobs.append(_job(cli, argvs, probe=calibration.Probe()))
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    jobs.append(_job(cli, argvs, tracer=tracer))
                tracers.append(tracer)
            if expected is None:
                expected = [hashlib.sha256(out.encode()).hexdigest()
                            for _, out, _ in jobs[0]["results"]]
            for job in jobs:
                if "results" in job:
                    _assess(ops, job, expected, check_errors)
    if key not in digests:
        digests[key] = expected
        _store_digests(digest_path, digests)

    calls = [c for job in jobs for c in job["calls"]]
    attempted = len(calls)
    failed = sum(c["error"] is not None for c in calls)
    extra = {}
    if args.trace:
        values = _per_layer(workloads, tracing, jobs, tracers)
        table = workloads.PER_LAYER
        extra["layers_by_op"] = [
            {"argv": op.argv, "config": op.config,
             "layers": tracing.layer_totals(tracers[0].spans, op=i)}
            for i, op in enumerate(ops)
        ]
    else:
        values = _end_to_end(jobs, setup, attempted, failed)
        table = workloads.END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in table}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops": [{"argv": op.argv, "config": op.config} for op in ops],
        "setup_s_samples": setup,
        "jobs": jobs,
        "result": result,
        **extra,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for call in calls:
        if call["error"]:
            print(f"FAILED: {call['error']}")
    for m in table:
        print(f"{m.name} = {values[m.name]!r} {m.unit}")
    if not args.trace:
        for name in ("wall_s", "cpu_s", "setup_raw_s"):
            print(f"(raw) {name} = {values[name]!r} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
