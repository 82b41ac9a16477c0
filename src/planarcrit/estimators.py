"""Monte-Carlo estimators of critical-point statistics from simulated fields.

Estimates target the closed forms in `theory`: the intensity lambda_c,
the type-fraction splits, second (factorial) moments of ball counts,
and the repulsion ratio E[N(N-1)] / E[N]^2.

One sweep feeds every estimator.  `sweep` samples each realization
once, runs the finder, counts points in the balls of every requested
radius and keeps, per radius, only the realization's ball-count
moments: the sums over its balls of the (max, min, saddle) counts N and
of N N^T.  Those are all that E[N_a (N_a - 1)], E[N_a N_b] and E[N]
read, so `intensity`, `second_factorial` and `repulsion_ratio` are pure
reductions over the resulting `Sweep`; they share realizations and cost
no further root finding.  The Poisson null control takes the same path
on synthetic points: one radius rule, rho in (0, window short side / 4);
one reduction of a realization's points to kind totals and ball-count
moments (`_reduce`); one assembly of the realizations into a `Sweep`
(`_build_sweep`); and the same ratio estimator.

Ball counts inside one realization are strongly dependent (they share
the field), so every standard error here is computed by leave-one-out
jackknife over whole realizations; within a realization, counts are
averaged over a stratified grid of ball centers (spacing 2 rho, margin
rho from the window boundary), which is cheaper and lower-variance than
random centers.  The moments are exact integers, so each realization's
mean is the one over its balls' own counts, bit for bit.

All estimators consume the exactly-Gaussian amplitude convention of the
sampler by default, so their targets are the Gaussian-field values
without small-M non-Gaussianity bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .finder import CriticalKind, default_grid_step, find_critical_points
from .models import CovarianceModel, effective_wavenumber
from .sampling import MomentEstimate, _run_tasks, sample_field, seed_entropy
from .theory import KIND_COLUMNS, normalize_kind, normalize_pair

__all__ = [
    "NonpositiveEstimateError",
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


class NonpositiveEstimateError(ArithmeticError):
    """An estimate at or below zero where a positive one is needed.

    A power-law fit takes the logarithm of each estimate, and a repulsion
    ratio divides by the squared mean count, so neither can proceed.
    """


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

    k_eff (models.effective_wavenumber) equals k for wave models; the
    side gives >= 100 expected critical points per realization so the
    per-realization simulation cost is amortized.
    """
    side = 40.0 / effective_wavenumber(model)
    return ((0.0, side), (0.0, side))


# Column of each kind in the (max, min, saddle) count arrays.
_KIND_COL = {kind: KIND_COLUMNS[normalize_kind(kind.value)][0] for kind in CriticalKind}


def _kind_totals(counts: np.ndarray, kind: str) -> np.ndarray:
    """Reduce (..., 3) kind-resolved counts to one tag's counts."""
    return counts[..., KIND_COLUMNS[normalize_kind(kind)]].sum(axis=-1)


def _ball_grid(window, rho: float):
    """Axes (xs, ys) of the stratified grid of ball centers, spacing
    2 rho, margin rho; the centers are (xs[i], ys[j]), i-major.

    Each axis holds n = floor((side - 2 rho) / (2 rho) + 1e-12 side /
    (2 rho)) + 1 centers, counted from side / 2 rho with an end slack of
    1e-12 of the side that keeps a last center lost to rounding, so n
    depends only on side / rho, whatever the length unit and wherever
    the window lies.  The centers are filled by np.arange's own rule,
    start + ((start + 2 rho) - start) i, so each has np.arange's bits."""
    step = 2.0 * rho
    axes = []
    for lo, hi in window:
        side, start = hi - lo, lo + rho
        n = math.floor((side - step) / step + 1e-12 * side / step) + 1
        axes.append(start + ((start + step) - start) * np.arange(max(n, 0)))
    return tuple(axes)


def _ball_counts(locations: np.ndarray, kind_cols: np.ndarray, grid, rho: float):
    """(ncenters, 3) counts of points of each kind in each open ball.

    The balls of radius rho sit on the 2 rho grid of _ball_grid, so a
    point lies in at most one of them, and only in one whose center
    brackets it on both axes.  Each point is tested against those <= 4
    nearest centers with the d2 < rho^2 arithmetic of a dense
    centers x points test, so the integer counts are the dense ones.
    """
    xs, ys = grid
    cells = np.zeros((len(xs) * len(ys), 3), dtype=np.int64)
    if len(locations) == 0 or len(cells) == 0:
        return cells
    step = 2.0 * rho
    ix = np.floor((locations[:, 0] - xs[0]) / step).astype(np.int64)[:, None] + [0, 0, 1, 1]
    iy = np.floor((locations[:, 1] - ys[0]) / step).astype(np.int64)[:, None] + [0, 1, 0, 1]
    point = np.broadcast_to(np.arange(len(locations))[:, None], ix.shape)
    ok = (ix >= 0) & (ix < len(xs)) & (iy >= 0) & (iy < len(ys))
    ix, iy, point = ix[ok], iy[ok], point[ok]
    d2 = (xs[ix] - locations[point, 0]) ** 2 + (ys[iy] - locations[point, 1]) ** 2
    inside = d2 < rho * rho
    flat = (ix[inside] * len(ys) + iy[inside]) * 3 + kind_cols[point[inside]]
    return np.bincount(flat, minlength=cells.size).reshape(cells.shape)


def _reduce(locations: np.ndarray, kind_cols: np.ndarray, window, rho_list):
    """One realization's (kind totals over the window, {rho: ball moments}),
    from its point locations and count columns.

    The moments at a radius are the (3,) sum over the balls of their
    (max, min, saddle) count rows N and the (3, 3) sum of N N^T, both
    exact int64.  The ball estimators read nothing else, so the balls'
    own counts are dropped once summed.
    """
    totals = np.bincount(kind_cols, minlength=3)
    per_rho = {}
    for rho in rho_list:
        counts = _ball_counts(locations, kind_cols, _ball_grid(window, rho), rho)
        per_rho[rho] = counts.sum(axis=0), counts.T @ counts
    return totals, per_rho


def _realization_stats(args):
    """Per-replicate worker: find critical points, count them in balls.

    Returns the _reduce of the realization's critical points.  Top-level
    so process pools can pickle it.
    """
    model, M, seed, window, grid_step, rho_list = args
    f = sample_field(model, M=M, seed=seed, gaussian_amplitudes=True)
    points = find_critical_points(f, window, grid_step)
    locations = np.array([p.location for p in points]).reshape(-1, 2)
    kind_cols = np.array([_KIND_COL[p.kind] for p in points], dtype=np.int64)
    return _reduce(locations, kind_cols, window, rho_list)


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
    per realization.  moments maps each swept radius to (sums, cross,
    ncenters): over each realization's ncenters stratified balls, the
    (nreal, 3) sums of the balls' count rows N and the (nreal, 3, 3)
    sums of N N^T, exact int64.  The balls' own counts are not kept.  A
    reduction at a radius that was not swept raises KeyError.
    """

    totals: np.ndarray
    area: float
    moments: dict

    @property
    def nreal(self) -> int:
        return len(self.totals)


def _build_sweep(nreal: int, window, rho_list, realize) -> Sweep:
    """The Sweep of nreal realizations on window, real or synthetic.

    Checks nreal >= 2 and that each radius lies in (0, window short
    side / 4), so every ball grid has at least two centers per axis,
    before any realization is drawn; then stacks, in realization order,
    the kind totals and ball moments of the per-realization _reduce
    results that realize(radii) gives for the checked radii (a tuple of
    floats, the keys of Sweep.moments).
    """
    if nreal < 2:
        raise ValueError(f"nreal must be at least 2, got {nreal}")
    (xmin, xmax), (ymin, ymax) = window
    rho_list = tuple(float(r) for r in rho_list)
    for rho in rho_list:
        if not 0 < rho < min(xmax - xmin, ymax - ymin) / 4.0:
            raise ValueError(f"rho = {rho} must lie in (0, window short side / 4)")
    results = list(realize(rho_list))
    moments = {}
    for rho in rho_list:
        sums, cross = (np.array(m) for m in zip(*(per_rho[rho] for _, per_rho in results)))
        moments[rho] = sums, cross, math.prod(map(len, _ball_grid(window, rho)))
    return Sweep(
        totals=np.array([totals for totals, _ in results]),
        area=(xmax - xmin) * (ymax - ymin),
        moments=moments,
    )


def sweep(
    model: CovarianceModel,
    nreal: int,
    seed,
    rho_list=(),
    window=None,
    M: int = 1024,
    threads: int = 1,
) -> Sweep:
    """Sample, search and count every realization once, for all estimators.

    Realization i is sample_field(model, M, (seed, i)) with Gaussian
    amplitudes, so the result does not depend on threads.  The finder
    runs at the model's default grid step.  Each radius must lie in
    (0, window short side / 4).
    """
    window = window or default_window(model)
    grid_step = default_grid_step(model)

    def realize(radii):
        tasks = [(model, M, (seed, i), window, grid_step, radii) for i in range(nreal)]
        return _run_tasks(_realization_stats, tasks, threads)

    return _build_sweep(nreal, window, rho_list, realize)


def intensity(sw: Sweep, kind: str = "c") -> MomentEstimate:
    """Critical points of one type per unit area, averaged over realizations.

    Standard error is the jackknife over realizations (equivalently the
    standard error of the per-realization mean).  All kinds reduce the
    same counts, so e + s = c realization by realization.
    """
    kind = normalize_kind(kind)
    value, se = _jackknife_mean(_kind_totals(sw.totals, kind) / sw.area)
    return MomentEstimate(value=value, std_error=se, nsamples=sw.nreal, label=kind)


def _ball_means(moments, pair):
    """Per-realization means over the balls of one radius of the pair
    statistic, N_a (N_a - 1) for a same-tag pair and N_a N_b for a mixed
    one, and of the count N_c, from a Sweep's (sums, cross, ncenters).

    The sums are exact integers, so each mean is the one over the balls'
    own statistics, bit for bit.
    """
    sums, cross, ncenters = moments
    a, b = pair
    stat = _kind_totals(_kind_totals(cross, b), a)
    if a == b:
        stat = stat - _kind_totals(sums, a)
    return stat / ncenters, _kind_totals(sums, "c") / ncenters


def second_factorial(sw: Sweep, rho: float, pair=("c", "c")) -> MomentEstimate:
    """Second (factorial) moment of ball counts at one swept radius.

    For same-type pairs the per-ball statistic is N(N-1); for the mixed
    pair it is N_e N_s.  Values are means over all stratified ball
    centers of all realizations; the SE is jackknifed over realizations
    because counts within one realization are dependent.
    """
    pair = normalize_pair(pair)
    value, se = _jackknife_mean(_ball_means(sw.moments[float(rho)], pair)[0])
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
    A sweep that counts no point raises NonpositiveEstimateError.
    """
    num, den = _ball_means(sw.moments[float(rho)], ("c", "c"))
    n = len(num)
    a, b = num.mean(), den.mean()
    if b <= 0:
        raise NonpositiveEstimateError("no points counted; cannot form a ratio")
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
        label="(c,c)/mean^2",
    )


def poisson_control_ratio(
    intensity: float,
    window,
    rho: float,
    nreal: int = 200,
    seed=0,
) -> MomentEstimate:
    """repulsion_ratio run on synthetic homogeneous Poisson points.

    For a Poisson process E[N(N-1)] = (lambda pi rho^2)^2 = E[N]^2, so
    the ratio is exactly 1; this is the null control for the pipeline's
    counting and ratio machinery.  Each realization is reduced and
    assembled into a Sweep exactly as sweep's are, its points all counted
    in the first (maximum) column, which the all-kinds ratio sums over;
    so rho must lie in (0, window short side / 4) and nreal be >= 2.
    """
    (xmin, xmax), (ymin, ymax) = window
    area = (xmax - xmin) * (ymax - ymin)

    def realize(radii):
        for child in np.random.SeedSequence(seed_entropy(seed)).spawn(nreal):
            rng = np.random.default_rng(child)
            npts = rng.poisson(intensity * area)
            pts = np.column_stack([rng.uniform(xmin, xmax, npts), rng.uniform(ymin, ymax, npts)])
            yield _reduce(pts, np.zeros(npts, dtype=np.int64), window, radii)

    sw = _build_sweep(nreal, window, (rho,), realize)
    return replace(repulsion_ratio(sw, rho), label="poisson-control")


def fit_scaling(estimates, with_log: bool = False) -> ScalingFit:
    """Weighted log-log power-law fit over a set of radius-tagged estimates.

    Regresses log(value) on log(rho), plus log|log rho| when with_log
    is set (for orders like rho^7 |log rho|).  Weights are the delta-
    method variances of log(value); exact inputs (zero SE) fall back to
    an unweighted fit.  log_coefficient_detected reports whether the
    |log rho| regressor came out positive by more than two of its SEs.
    exponent_se comes from the fit's residuals (the weighted residual
    variance times the inverse normal matrix), which assumes independent
    rows.  The rows of one two_point_correlation call over an array of
    distances share one stream and are correlated, so read it against
    the across-seed spread of the exponent (tools/scaling_seeds.py).
    Fewer than 4 distinct rho raise ValueError; an estimate at or below
    zero (a Monte-Carlo run that saw no pair) raises
    NonpositiveEstimateError, an ArithmeticError.
    """
    ests = sorted(estimates, key=lambda e: e.rho)
    if len({e.rho for e in ests}) < 4:
        raise ValueError("need at least 4 distinct rho values to fit a scaling law")
    if any(e.value <= 0 for e in ests):
        raise NonpositiveEstimateError("all estimates must be positive for a log-log fit")
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
