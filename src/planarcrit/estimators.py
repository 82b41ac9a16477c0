"""Monte-Carlo estimators of critical-point statistics from simulated fields.

Estimates target the closed forms in `theory`: the intensity lambda_c,
the type-fraction splits, second (factorial) moments of ball counts,
and the repulsion ratio E[N(N-1)] / E[N]^2.

One sweep feeds every estimator.  `sweep` samples each realization
once, runs the finder and counts points in the balls of every requested
radius; `intensity`, `second_factorial` and `repulsion_ratio` are pure
reductions over the resulting `Sweep`, so they share realizations and
cost no further root finding.

Ball counts inside one realization are strongly dependent (they share
the field), so every standard error here is computed by leave-one-out
jackknife over whole realizations; within a realization, counts are
averaged over a stratified grid of ball centers (spacing 2 rho, margin
rho from the window boundary), which is cheaper and lower-variance than
random centers.

All estimators consume the exactly-Gaussian amplitude convention of the
sampler by default, so their targets are the Gaussian-field values
without small-M non-Gaussianity bias.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .finder import CriticalKind, SearchConfig, find_critical_points
from .models import CovarianceModel, sigma_derivatives
from .sampling import sample_field, seed_entropy
from .theory import normalize_kind, normalize_pair

__all__ = [
    "MomentEstimate",
    "ScalingFit",
    "Sweep",
    "default_window",
    "sweep",
    "intensity",
    "second_factorial",
    "repulsion_ratio",
    "poisson_control_ratio",
    "fit_scaling",
]


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte-Carlo or quadrature estimate with its uncertainty.

    nsamples counts realizations for the empirical estimators.  For the
    antithetic conditional engines it counts draws with both members of
    each +/- pair included; the independent replications there are the
    pairs (floor(nsamples/2), or ceil(nsamples/2) for the two-point
    function), and the standard error is taken over them.
    """

    value: float
    std_error: float
    nsamples: int
    rho: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.std_error >= 0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")
        if self.nsamples < 2:
            raise ValueError(f"nsamples must be at least 2, got {self.nsamples}")


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit value ~ rho^exponent (optionally times |log rho|)."""

    exponent: float
    exponent_se: float
    log_coefficient_detected: bool
    r_squared: float
    fit_range: tuple[float, float]


def default_window(model: CovarianceModel):
    """[0, L]^2 with L = 40 / k_eff, k_eff the gradient-scale wavenumber.

    k_eff = sqrt(-4 eta0 / sigma0) equals k for wave models; the side
    gives >= 100 expected critical points per realization so the
    per-realization simulation cost is amortized.
    """
    d = sigma_derivatives(model)
    k_eff = math.sqrt(-4.0 * d.eta0 / model.total_mass())
    side = 40.0 / k_eff
    return ((0.0, side), (0.0, side))


# Kind codes used in count arrays: columns are (max, min, saddle).
_KIND_COL = {CriticalKind.MAXIMUM: 0, CriticalKind.MINIMUM: 1, CriticalKind.SADDLE: 2}


def _kind_totals(counts: np.ndarray, kind: str) -> np.ndarray:
    """Reduce (..., 3) kind-resolved counts to one tag's counts."""
    kind = normalize_kind(kind)
    if kind == "c":
        return counts.sum(axis=-1)
    if kind == "e":
        return counts[..., 0] + counts[..., 1]
    if kind == "s":
        return counts[..., 2]
    if kind == "max":
        return counts[..., 0]
    return counts[..., 1]


def _ball_centers(window, rho: float) -> np.ndarray:
    """Stratified grid of ball centers, spacing 2 rho, margin rho."""
    (xmin, xmax), (ymin, ymax) = window
    xs = np.arange(xmin + rho, xmax - rho + 1e-12, 2.0 * rho)
    ys = np.arange(ymin + rho, ymax - rho + 1e-12, 2.0 * rho)
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def _ball_counts(locations: np.ndarray, kind_cols: np.ndarray, centers: np.ndarray, rho: float):
    """(ncenters, 3) counts of points of each kind in each open ball."""
    counts = np.zeros((len(centers), 3), dtype=np.int64)
    if len(locations) == 0:
        return counts
    d2 = (
        (centers[:, 0, None] - locations[None, :, 0]) ** 2
        + (centers[:, 1, None] - locations[None, :, 1]) ** 2
    )
    inside = d2 < rho * rho
    for col in range(3):
        counts[:, col] = (inside & (kind_cols == col)).sum(axis=1)
    return counts


def _realization_stats(args):
    """Per-replicate worker: find critical points, count them in balls.

    Returns (kind totals over the window, {rho: (ncenters, 3) center
    counts}).  Top-level so process pools can pickle it.
    """
    model, M, seed, window, cfg, rho_list = args
    f = sample_field(model, M=M, seed=seed, gaussian_amplitudes=True)
    points = find_critical_points(f, window, cfg)
    locations = np.array([p.location for p in points]).reshape(-1, 2)
    kind_cols = np.array([_KIND_COL[p.kind] for p in points], dtype=np.int64)
    totals = np.bincount(kind_cols, minlength=3)
    per_rho = {}
    for rho in rho_list:
        centers = _ball_centers(window, rho)
        per_rho[rho] = _ball_counts(locations, kind_cols, centers, rho)
    return totals, per_rho


def _run_tasks(fn, tasks, threads: int = 1):
    """Map fn over tasks, optionally in worker processes; order preserved."""
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * threads))))


def _jackknife_mean(values: np.ndarray):
    """Mean and leave-one-out jackknife SE of a 1D sample."""
    n = len(values)
    mean = values.mean()
    loo = (values.sum() - values) / (n - 1)
    se = math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())
    return float(mean), float(se)


@dataclass(frozen=True, eq=False)
class Sweep:
    """Critical-point counts of realizations (seed, 0), ..., (seed, nreal - 1).

    totals holds one row of (max, min, saddle) counts over the window
    per realization; counts maps each swept radius to the
    (nreal, ncenters, 3) counts in its stratified balls.  A reduction at
    a radius that was not swept raises KeyError.
    """

    totals: np.ndarray
    area: float
    counts: dict

    @property
    def nreal(self) -> int:
        return len(self.totals)


def sweep(
    model: CovarianceModel,
    nreal: int,
    seed,
    rho_list=(),
    window=None,
    M: int = 1024,
    cfg: SearchConfig | None = None,
    threads: int = 1,
) -> Sweep:
    """Sample, search and count every realization once, for all estimators.

    Realization i is sample_field(model, M, (seed, i)) with Gaussian
    amplitudes, so the result does not depend on threads.  Each radius
    must lie in (0, window short side / 4).
    """
    if nreal < 2:
        raise ValueError(f"nreal must be at least 2, got {nreal}")
    window = window or default_window(model)
    (xmin, xmax), (ymin, ymax) = window
    rho_list = tuple(float(r) for r in rho_list)
    for rho in rho_list:
        if not 0 < rho < min(xmax - xmin, ymax - ymin) / 4.0:
            raise ValueError(f"rho = {rho} must lie in (0, window short side / 4)")
    tasks = [(model, M, (seed, i), window, cfg, rho_list) for i in range(nreal)]
    results = _run_tasks(_realization_stats, tasks, threads)
    return Sweep(
        totals=np.array([totals for totals, _ in results]),
        area=(xmax - xmin) * (ymax - ymin),
        counts={rho: np.array([per_rho[rho] for _, per_rho in results]) for rho in rho_list},
    )


def intensity(sw: Sweep, kind: str = "c") -> MomentEstimate:
    """Critical points of one type per unit area, averaged over realizations.

    Standard error is the jackknife over realizations (equivalently the
    standard error of the per-realization mean).  All kinds reduce the
    same counts, so e + s = c realization by realization.
    """
    kind = normalize_kind(kind)
    value, se = _jackknife_mean(_kind_totals(sw.totals, kind) / sw.area)
    return MomentEstimate(value=value, std_error=se, nsamples=sw.nreal, label=kind)


def _pair_center_stat(counts: np.ndarray, pair) -> np.ndarray:
    """Per-center pair statistic: N(N-1) for same type, N_a N_b for mixed."""
    a, b = pair
    na = _kind_totals(counts, a).astype(float)
    if a == b:
        return na * (na - 1.0)
    nb = _kind_totals(counts, b).astype(float)
    return na * nb


def second_factorial(sw: Sweep, rho: float, pair=("c", "c")) -> MomentEstimate:
    """Second (factorial) moment of ball counts at one swept radius.

    For same-type pairs the per-ball statistic is N(N-1); for the mixed
    pair it is N_e N_s.  Values are means over all stratified ball
    centers of all realizations; the SE is jackknifed over realizations
    because counts within one realization are dependent.
    """
    pair = normalize_pair(pair)
    value, se = _jackknife_mean(_pair_center_stat(sw.counts[float(rho)], pair).mean(axis=-1))
    return MomentEstimate(
        value=value, std_error=se, nsamples=sw.nreal, rho=float(rho),
        label=f"({pair[0]},{pair[1]})",
    )


def repulsion_ratio(sw: Sweep, rho: float) -> MomentEstimate:
    """Finite-radius repulsion ratio E[N(N-1)] / E[N]^2 for all critical points.

    The delta-method SE combines the jackknife covariance of the
    numerator and denominator means across realizations.  The estimate
    carries finite-rho bias relative to the rho -> 0 repulsion factor;
    the bias-free reference at the same rho is the Kac-Rice quadrature.
    """
    counts = sw.counts[float(rho)]
    num = _pair_center_stat(counts, ("c", "c")).mean(axis=-1)
    den = _kind_totals(counts, "c").mean(axis=-1)
    return _ratio_estimate(num, den, rho, "(c,c)/mean^2")


def _ratio_estimate(num: np.ndarray, den: np.ndarray, rho: float, label: str) -> MomentEstimate:
    n = len(num)
    a, b = num.mean(), den.mean()
    if b <= 0:
        raise ValueError("no points counted; cannot form a ratio")
    ratio = a / b**2
    # Delta method on the two means: grad = (1/b^2, -2a/b^3).
    cov = np.cov(np.stack([num, den]), ddof=1) / n
    grad = np.array([1.0 / b**2, -2.0 * a / b**3])
    var = float(grad @ cov @ grad)
    return MomentEstimate(
        value=float(ratio),
        std_error=math.sqrt(max(var, 0.0)),
        nsamples=n,
        rho=float(rho),
        label=label,
    )


def poisson_control_ratio(
    intensity: float,
    window,
    rho: float,
    nreal: int = 200,
    seed=0,
) -> MomentEstimate:
    """The same ratio estimator run on synthetic homogeneous Poisson points.

    For a Poisson process E[N(N-1)] = (lambda pi rho^2)^2 = E[N]^2, so
    the ratio is exactly 1; this is the null control for the pipeline's
    counting and ratio machinery.
    """
    if nreal < 2:
        raise ValueError(f"nreal must be at least 2, got {nreal}")
    (xmin, xmax), (ymin, ymax) = window
    area = (xmax - xmin) * (ymax - ymin)
    centers = _ball_centers(window, rho)
    rng_master = np.random.SeedSequence(seed_entropy(seed))
    num = np.empty(nreal)
    den = np.empty(nreal)
    for i, child in enumerate(rng_master.spawn(nreal)):
        rng = np.random.default_rng(child)
        npts = rng.poisson(intensity * area)
        pts = np.column_stack(
            [rng.uniform(xmin, xmax, npts), rng.uniform(ymin, ymax, npts)]
        )
        counts = _ball_counts(pts, np.zeros(npts, dtype=np.int64), centers, rho)
        n = counts[:, 0].astype(float)
        num[i] = (n * (n - 1.0)).mean()
        den[i] = n.mean()
    return _ratio_estimate(num, den, rho, "poisson-control")


def fit_scaling(estimates, with_log: bool = False) -> ScalingFit:
    """Weighted log-log power-law fit over a set of radius-tagged estimates.

    Regresses log(value) on log(rho), plus log|log rho| when with_log
    is set (for orders like rho^7 |log rho|).  Weights are the delta-
    method variances of log(value); exact inputs (zero SE) fall back to
    an unweighted fit.  log_coefficient_detected reports whether the
    |log rho| regressor came out positive by more than two of its SEs.
    """
    ests = sorted(estimates, key=lambda e: e.rho)
    if len({e.rho for e in ests}) < 4:
        raise ValueError("need at least 4 distinct rho values to fit a scaling law")
    if any(e.value <= 0 for e in ests):
        raise ValueError("all estimates must be positive for a log-log fit")
    rho = np.array([e.rho for e in ests])
    val = np.array([e.value for e in ests])
    se = np.array([e.std_error for e in ests])
    y = np.log(val)
    cols = [np.ones_like(rho), np.log(rho)]
    if with_log:
        cols.append(np.log(np.abs(np.log(rho))))
    X = np.stack(cols, axis=1)
    if np.all(se > 0):
        w = (val / se) ** 2  # 1 / Var(log value)
    else:
        w = np.ones_like(val)
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    resid = y - X @ beta
    dof = len(y) - X.shape[1]
    scale = float(w @ resid**2) / dof if dof > 0 else 0.0
    cov = np.linalg.inv(X.T @ (X * w[:, None])) * scale
    ybar = float(w @ y) / w.sum()
    ss_tot = float(w @ (y - ybar) ** 2)
    r2 = 1.0 - float(w @ resid**2) / ss_tot if ss_tot > 0 else 1.0
    detected = False
    if with_log:
        q, q_se = beta[2], math.sqrt(max(cov[2, 2], 0.0))
        detected = q > 2.0 * q_se if q_se > 0 else q > 0
    return ScalingFit(
        exponent=float(beta[1]),
        exponent_se=math.sqrt(max(cov[1, 1], 0.0)),
        log_coefficient_detected=detected,
        r_squared=float(min(max(r2, 0.0), 1.0)),
        fit_range=(float(rho.min()), float(rho.max())),
    )
