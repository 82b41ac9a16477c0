"""Workloads, correctness checks and metric tables of the planarcrit benchmark.

A workload is a fixed list of operations; an operation is one
``planarcrit.cli.main(argv)`` call whose CSV output is checked at the
tolerances the package itself uses.  The workload seed becomes the
``--seed`` of every operation, so the same seed gives the same inputs and
therefore byte-identical outputs.

Why these three workloads:

* ``simulate`` is the empirical route (field sampling, Newton finder,
  ball counting).  It never touches the Kac-Rice engine.
* ``scaling`` is conditional Monte-Carlo at many draws per distance.  It
  bypasses the finder and spends almost nothing on covariance assembly.
* ``triangle`` is the paper's cross-check for all five model families:
  many distances with few draws each, so covariance assembly and Schur
  conditioning weigh much more than on ``scaling``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Callable

from planarcrit.models import model_from_config, sigma_derivatives
from planarcrit.theory import lambda_c

# Metric names: the benchmark contract allows at most 64 of these
# characters, starting with a letter or digit.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Seconds one run measures: a run repeats its workload's job until this
# much time has passed (the last job started always completes).
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``bound`` is set for end-to-end metrics only: the share of the parent's
    median by which the metric may worsen.  ``moves`` is set for per-layer
    metrics only: the end-to-end metric and the workloads on which a change
    to this layer should show.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: tuple[str, tuple[str, ...]] | None = None


# Times are in reference seconds (calibration.py): scaled by the host's
# speed while they were measured.
END_TO_END = (
    Metric("wall_ref_s", "s", "lower", bound=0.25),
    Metric("cpu_ref_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.05),
    Metric("pass_frac", "frac", "higher", bound=0.05),
)

_SIM = ("simulate",)
_SCALING = ("scaling",)
_TRIANGLE = ("triangle",)
_SIM_TRI = ("simulate", "triangle")
_ALL = ("simulate", "scaling", "triangle")

PER_LAYER = (
    Metric("models.derivative_covariance.calls", "count", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("models.derivative_covariance.self_s", "s", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("kacrice._pair_conditional.calls", "count", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("kacrice._pair_conditional.s_per_call", "s", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("kacrice.sample.draws", "count", "lower", moves=("wall_ref_s", _SCALING)),
    Metric("kacrice.sample.self_s", "s", "lower", moves=("wall_ref_s", _SCALING)),
    Metric("kacrice.sample.draws_per_s", "1/s", "higher", moves=("wall_ref_s", _SCALING)),
    Metric("kacrice.two_point_correlation.self_s", "s", "lower", moves=("wall_ref_s", _SCALING)),
    Metric("kacrice.quadrature.nodes", "count", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("kacrice.one_point_intensity_mc.self_s", "s", "lower", moves=("wall_ref_s", _TRIANGLE)),
    Metric("sampling.eval_many.calls", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("sampling.eval_many.self_s", "s", "lower", moves=("wall_ref_s", _SIM)),
    Metric("sampling.eval_many.point_terms", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("sampling.eval_many.point_terms_per_s", "1/s", "higher", moves=("wall_ref_s", _SIM)),
    Metric("sampling.eval_gradient.calls", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("sampling.eval_gradient.self_s", "s", "lower", moves=("wall_ref_s", _SIM)),
    Metric("sampling.sample_field.self_s", "s", "lower", moves=("wall_ref_s", _SIM)),
    Metric("finder.find_critical_points.s_per_realization", "s", "lower",
           moves=("wall_ref_s", _SIM)),
    Metric("finder.seeds", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("finder.converged", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("finder.dropped", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("finder.roots", "count", "higher", moves=("wall_ref_s", _SIM)),
    Metric("finder.roots_per_seed", "ratio", "higher", moves=("wall_ref_s", _SIM)),
    Metric("finder.eval_calls_per_realization", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("finder._dedup.self_s", "s", "lower", moves=("wall_ref_s", _SIM)),
    Metric("estimators._realization_stats.calls", "count", "lower", moves=("wall_ref_s", _SIM)),
    Metric("estimators.sweep_redundancy", "ratio", "lower", moves=("wall_ref_s", _SIM)),
    Metric("estimators._ball_counts.calls", "count", "lower", moves=("wall_ref_s", _SIM_TRI)),
    Metric("estimators._ball_counts.self_s", "s", "lower", moves=("wall_ref_s", _SIM_TRI)),
    Metric("cli.self_s", "s", "lower", moves=("wall_ref_s", _ALL)),
    # Work-normalised variance: cpu_ref_s times the mean squared relative SE
    # of the rows the checks read, i.e. CPU time corrected for statistical
    # yield, read beside cpu_ref_s on the Monte-Carlo workloads.  The SEs
    # themselves vary from seed to seed, so it is too unsteady for an
    # end-to-end bound.
    Metric("wnv", "s", "lower", moves=("cpu_ref_s", ("scaling", "triangle"))),
    # The traced jobs' wall time over the untraced ones', minus 1.
    Metric("trace.overhead_frac", "frac", "lower", moves=("wall_ref_s", _ALL)),
)


class CheckError(Exception):
    """An operation's output failed its correctness check."""


@dataclass(frozen=True)
class Op:
    """One CLI call: argv, its check, and an optional --config file body.

    ``check`` parses the CSV output, raises CheckError on a wrong result and
    returns the (value, std_error) pairs it read.
    """

    argv: tuple[str, ...]
    check: Callable[[str], list[tuple[float, float]]]
    config: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple[dict, ...]
    ops: Callable[[int], list[Op]]


def _rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise CheckError("no output rows")
    return rows


def _pair(row: dict, value_key: str = "value") -> tuple[float, float]:
    return float(row[value_key]), float(row["std_error"])


# --- simulate ---------------------------------------------------------------

RANDOM_WAVE = {"family": "randomwave", "k": "1"}
# The finder's work varies from realization to realization, so a job's
# time varies with the seed.  256 spectral terms instead of the default
# 1024 make a realization 3.5 times cheaper, so a job averages over 40 of
# them in the time 12 would take.
SIM_NREAL = 40
SIM_SIZE = 256
SIM_RHO = ("0.5", "1.0")


def _check_intensity(text: str):
    """The empirical_intensity rule of `report`: max(4 SE, 3 % lambda_c)."""
    rows = _rows(text)
    if len(rows) != 1 + 2 * len(SIM_RHO):
        raise CheckError(f"expected {1 + 2 * len(SIM_RHO)} rows, got {len(rows)}")
    row = rows[0]
    if row["label"] != "c":
        raise CheckError(f"first row is {row['label']!r}, not the intensity")
    value, se = _pair(row)
    lam = lambda_c(sigma_derivatives(model_from_config(RANDOM_WAVE)))
    tol = max(4.0 * se, 0.03 * lam)
    if not abs(value - lam) <= tol:
        raise CheckError(f"intensity {value} misses lambda_c {lam} by more than {tol}")
    return [(value, se)]


def _simulate_ops(seed: int) -> list[Op]:
    argv = (
        "estimate", "--model", "randomwave", "--k", "1", "--window-size", "20",
        "--rho-list", *SIM_RHO, "--nreal", str(SIM_NREAL), "--size", str(SIM_SIZE),
        "--threads", "1", "--seed", str(seed),
    )
    return [Op(argv, _check_intensity)]


# --- scaling ----------------------------------------------------------------

SCALING_DRAWS = 4 * 10**6
SCALING_POINTS = 5


def _check_ee_exponent(text: str):
    """Acceptance test_06: the ee small-distance exponent is 3 +- 0.3."""
    fit = _rows(text)[-1]
    if fit["label"] != "fit(e,e)":
        raise CheckError(f"last row is {fit['label']!r}, not the ee fit")
    value, se = _pair(fit)
    if not abs(value - 3.0) <= 0.3:
        raise CheckError(f"ee exponent {value} outside 3 +- 0.3")
    return [(value, se)]


def _check_ss_positive(text: str):
    rows = [r for r in _rows(text) if r["label"] == "(s,s)"]
    if len(rows) != SCALING_POINTS:
        raise CheckError(f"expected {SCALING_POINTS} ss rows, got {len(rows)}")
    pairs = [_pair(r) for r in rows]
    if not all(value > 0 for value, _ in pairs):
        raise CheckError(f"nonpositive ss value in {[v for v, _ in pairs]}")
    return pairs


def _scaling_ops(seed: int) -> list[Op]:
    base = (
        "scaling", "--model", "randomwave", "--k", "1", "--r-min", "0.005",
        "--r-max", "0.05", "--points", str(SCALING_POINTS),
        "--nsamples", str(SCALING_DRAWS), "--threads", "1", "--seed", str(seed),
    )
    return [
        Op(base + ("--pair", "ee"), _check_ee_exponent),
        Op(base + ("--pair", "ss"), _check_ss_positive),
    ]


# --- triangle ---------------------------------------------------------------

TRIANGLE_MODELS = (
    RANDOM_WAVE,
    {"family": "bargmannfock", "k": "1"},
    {"family": "shiftedrandomwave", "tau": "0.8", "s": "1.3", "k": "1.5"},
    {"family": "powerlawtruncated", "t": "2"},
    {
        "family": "interpolation", "s": "0.35",
        "left.family": "randomwave", "left.k": "1",
        "right.family": "powerlawtruncated", "right.t": "2",
    },
)


REPORT_CHECKS = (
    "intensity_all", "intensity_e", "intensity_s", "k2_limit", "repulsion_factor",
    "poisson_control",
)


def _check_report(text: str):
    """The report has every check row, and every row reads PASS."""
    rows = _rows(text)
    if tuple(row["check"] for row in rows) != REPORT_CHECKS:
        raise CheckError(f"report rows {[row['check'] for row in rows]}")
    pairs = []
    for row in rows:
        est, se = _pair(row, "estimate")
        off = abs(est - float(row["theory"]))
        if row["status"] != "PASS" or not off <= float(row["tolerance"]):
            raise CheckError(f"{row['check']}: {row['status']}, off by {off}")
        pairs.append((est, se))
    return pairs


def _triangle_ops(seed: int) -> list[Op]:
    tail = ("--budget", "small", "--format", "csv", "--threads", "1", "--seed", str(seed))
    ops = []
    for model in TRIANGLE_MODELS:
        if any("." in key for key in model):
            # The CLI has no flags for the children of a mixture.
            body = "".join(f"model.{key} = {val}\n" for key, val in model.items())
            ops.append(Op(("report", *tail), _check_report, config=body))
        else:
            flags = ["--model", model["family"]]
            for key, val in model.items():
                if key != "family":
                    flags += [f"--{key}", val]
            ops.append(Op(("report", *flags, *tail), _check_report))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate",
            "empirical route: estimate over 40 RandomWave realizations, field evaluation "
            "inside the Newton finder dominates; bypasses the Kac-Rice engine",
            (RANDOM_WAVE,),
            _simulate_ops,
        ),
        Workload(
            "scaling",
            "conditional Monte-Carlo at 4e6 draws per distance for ee and ss pairs; "
            "bypasses the finder and spends little on covariance assembly",
            (RANDOM_WAVE,),
            _scaling_ops,
        ),
        Workload(
            "triangle",
            "small-budget report for all five families: many distances with few draws, "
            "so covariance assembly and conditioning weigh most",
            TRIANGLE_MODELS,
            _triangle_ops,
        ),
    )
}


def wnv(cpu_s: float, pairs) -> float:
    """Work-normalised variance: cpu_s x mean (SE / value)^2."""
    rel = [(se / value) ** 2 for value, se in pairs if value != 0.0]
    return cpu_s * math.fsum(rel) / len(rel) if rel else 0.0


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
