"""Exact-conditioning numeric Kac-Rice engine.

The correlation functions of critical points have the Kac-Rice form

    K1         = phi_grad(0) E[|det H| 1_kind]
    K2(z, w)   = phi_gradpair(0, 0) E[|det H(z)| |det H(w)| 1_kinds
                                      | grad(z) = grad(w) = 0]

where phi_* are Gaussian densities of the gradient (pair) at zero and
H is the Hessian.  Both factors are available essentially exactly: the
joint law of any finite set of field derivatives is a known Gaussian
(see models.derivative_covariance), conditioning on vanishing gradients
is a Schur complement, and only the conditional determinant expectation
needs Monte-Carlo, over a small exactly-known Gaussian.

The Monte-Carlo is antithetic: each draw x stands for the pair (x, -x),
and the pair average is one independent replication.  Determinants,
A1 and B0 below are sums of products of two coordinates of the draw,
so they are even under x -> -x, exactly so in IEEE arithmetic; only
the sign of h11 in the min/max indicators flips, which swaps min and
max.  Each pair is therefore evaluated once, from its "+" member.  A
reported nsamples of n counts both members: the independent
replications are the floor(n/2) pairs of the one-point and expansion
estimators and the ceil(n/2) pairs of two_point_correlation.

Ball moments reduce by isotropy to one-dimensional integrals against
the disc pair-distance density and are evaluated by Gauss-Legendre
quadrature with Monte-Carlo values of K2 at each node, with extra
log-spaced nodes packed near zero where K2 varies fastest.

Expansion-level operations sample the conditional law of third and
fourth derivatives given a degenerate critical configuration at the
origin, to verify the small-distance orders (r^3 for extrema pairs,
r^3 |log r| for saddle pairs) at the level of the quantities that
produce them, where direct simulation has no statistical power.  For
shifted-random-wave models the third derivatives satisfy an exact
linear relation on the conditioning event, so the degenerate coordinate
is substituted out instead of being sampled (a zero-variance direction
would otherwise make the covariance singular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .models import (
    CovarianceModel,
    derivative_covariance,
    effective_wavenumber,
    is_shifted_random_wave,
    sigma_derivatives,
)
from .sampling import MomentEstimate, _run_tasks, seeded_rng
from .theory import normalize_kind

__all__ = [
    "DegeneracyError",
    "ConditionalGaussian",
    "condition_on_zero_gradients",
    "correlation_length",
    "gradient_pair_density",
    "gradient_pair_density_asymptotic",
    "one_point_intensity_mc",
    "two_point_correlation",
    "disc_pair_distance_density",
    "second_factorial_by_quadrature",
    "expansion_moment_mc",
    "small_ball_probability_mc",
    "gated_magnitude_mc",
    "R_FLOOR_FRACTION",
]

# Below this fraction of a correlation length the gradient-pair
# covariance is numerically rank deficient; refuse rather than return
# garbage.
R_FLOOR_FRACTION = 1e-4

# Relative eigenvalue tolerance for conditional covariances.  Schur
# rounding dust reaches ~2e-10 of the top eigenvalue near the r floor
# (the gradient-pair block has condition number ~1e7 there); genuine
# rank collapse shows up orders of magnitude beyond this.
_EIG_TOL = 1e-8

# Constraint blocks are tested against machine-level rank deficiency
# instead: coincident points give a relative gap ~1e-16, while the
# worst legitimate case (the r floor) still sits near 2e-8.
_CONSTRAINT_TOL = 1e-12

# Antithetic pairs (one draw each) per Monte-Carlo chunk (bounds peak memory).
_CHUNK_PAIRS = 1 << 20


class DegeneracyError(ArithmeticError):
    """A covariance block is numerically degenerate where it must not be."""


@dataclass(frozen=True)
class ConditionalGaussian:
    """A centered Gaussian law for labelled field derivatives.

    Obtained by conditioning a joint derivative law on vanishing
    gradients; the mean stays zero by symmetry.  Eigenvalues of the
    covariance within rounding dust of zero are clipped to zero when
    sampling; genuinely negative ones raise DegeneracyError.
    """

    mean: np.ndarray
    covariance: np.ndarray
    labels: tuple

    def _factor(self) -> np.ndarray:
        eigval, eigvec = np.linalg.eigh(self.covariance)
        tol = _EIG_TOL * max(1.0, float(eigval[-1]))
        if eigval[0] < -tol:
            raise DegeneracyError(
                f"conditional covariance has eigenvalue {eigval[0]} below -{tol}"
            )
        return eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    def sample(self, rng: np.random.Generator, nsamples: int) -> np.ndarray:
        """Draw nsamples independent rows, shape (nsamples, dim)."""
        fac = self._factor()
        draws = rng.standard_normal((nsamples, len(self.mean))) @ fac.T
        draws += self.mean
        return draws


def _condition(model: CovarianceModel, constraints, targets) -> ConditionalGaussian:
    """Law of `targets` given that every constraint derivative vanishes."""
    specs = list(constraints) + list(targets)
    cov = derivative_covariance(model, specs)
    nc = len(constraints)
    cc = cov[:nc, :nc]
    ct = cov[:nc, nc:]
    tt = cov[nc:, nc:]
    eigval = np.linalg.eigvalsh(cc)
    if eigval[0] <= _CONSTRAINT_TOL * max(1.0, float(eigval[-1])):
        raise DegeneracyError(
            f"constraint covariance is degenerate (smallest eigenvalue {eigval[0]})"
        )
    cho = linalg.cho_factor(cc, lower=True)
    cond_cov = tt - ct.T @ linalg.cho_solve(cho, ct)
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return ConditionalGaussian(
        mean=np.zeros(len(targets)), covariance=cond_cov, labels=tuple(targets)
    )


def condition_on_zero_gradients(model: CovarianceModel, points, targets) -> ConditionalGaussian:
    """Conditional law of derivative targets given zero gradients.

    Parameters
    ----------
    model : CovarianceModel
    points : sequence of one or two planar points
        The gradient (both components) is constrained to zero at each.
    targets : sequence of (point, alpha)
        Derivative labels whose joint conditional law is wanted.

    Raises
    ------
    DegeneracyError
        If the gradient block is numerically singular (coincident or
        too-close points).
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if not 1 <= len(pts) <= 2:
        raise ValueError(f"expected one or two points, got {len(pts)}")
    constraints = [(p, alpha) for p in pts for alpha in ((1, 0), (0, 1))]
    return _condition(model, constraints, targets)


def correlation_length(model: CovarianceModel) -> float:
    """Oscillation length 2 pi / k_eff, k_eff = sqrt(-4 eta0 / sigma0)."""
    return 2.0 * math.pi / effective_wavenumber(model)


def _gradient_specs(r: float):
    """Gradient labels at the two probe points +-(r/2, 0)."""
    p1 = np.array([r / 2.0, 0.0])
    p2 = np.array([-r / 2.0, 0.0])
    return p1, p2, [(p, alpha) for p in (p1, p2) for alpha in ((1, 0), (0, 1))]


def _balanced_map(nper: int, r) -> np.ndarray:
    """Mixing matrix sending per-point blocks (v(p1), v(p2)) of length nper
    each to (averages, differences / r), in the dtype of r.

    At mutual distance r the raw pair covariance has condition number
    ~(L/r)^2: differences of derivatives across the pair are O(r) while
    sums are O(1).  The average/scaled-difference basis keeps the
    constraint block well conditioned, so the Schur step is stable.
    """
    eye = np.eye(nper, dtype=np.asarray(r).dtype)
    return np.block([[0.5 * eye, 0.5 * eye], [eye / r, -eye / r]])


def _chol_ld(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a small longdouble SPD matrix."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - low[i, :j] @ low[j, :j]
            if i == j:
                if not s > 0:
                    raise DegeneracyError(
                        f"covariance not positive definite (pivot {i} gave {s})"
                    )
                low[i, i] = np.sqrt(s)
            else:
                low[i, j] = s / low[j, j]
    return low


def _chol_solve_ld(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low low^T) x = b by substitution (longdouble)."""
    n = low.shape[0]
    y = np.zeros_like(b)
    for i in range(n):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros_like(b)
    for i in reversed(range(n)):
        x[i] = (y[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def _pair_conditional(model: CovarianceModel, r: float):
    """Conditional Hessian-pair law at +-(r/2, 0) given zero gradients.

    Everything up to the conditional covariance runs in 80-bit
    arithmetic: the averaged Hessian entries have conditional variance
    ~r^4 times a small constant, 13+ digits below the matrix entries,
    which a double-precision Schur complement cannot resolve (it shows
    up as spurious variance that inflates the rare typed events).

    Returns (covariance 6x6 float64 in the balanced basis, log det of
    the balanced gradient block).
    """
    rld = np.longdouble(r)
    p1, p2, gspecs = _gradient_specs(r)
    tspecs = [(p, alpha) for p in (p1, p2) for alpha in ((2, 0), (1, 1), (0, 2))]
    cov = derivative_covariance(model, gspecs + tspecs, extended=True)
    a = _balanced_map(2, rld)
    b = _balanced_map(3, rld)
    gg = a @ cov[:4, :4] @ a.T
    tg = b @ cov[4:, :4] @ a.T
    tt = b @ cov[4:, 4:] @ b.T
    try:
        low = _chol_ld(0.5 * (gg + gg.T))
    except DegeneracyError as err:
        raise DegeneracyError(
            f"gradient-pair covariance is degenerate at r = {r}: {err}"
        ) from None
    cond = tt - tg @ _chol_solve_ld(low, tg.T)
    cond = (0.5 * (cond + cond.T)).astype(float)
    logdet = float(2.0 * np.log(np.diag(low)).sum())
    return cond, logdet


def gradient_pair_density(model: CovarianceModel, r: float) -> float:
    """Joint density at (0, 0) of the two gradients at mutual distance r.

    Computed from the exact 4x4 covariance; this is the non-Monte-Carlo
    factor of the 2-point correlation function.  The determinant is
    taken in the balanced basis (det scales back by r^4 exactly).
    """
    _, logdet = _pair_conditional(model, r)
    return float(math.exp(-0.5 * logdet) / (2.0 * math.pi * r) ** 2)


def gradient_pair_density_asymptotic(d, r: float) -> float:
    """Small-distance law of gradient_pair_density at mutual distance r.

    1 / (2^7 pi^2 sqrt(3) |mu0 eta0| h^2) with h = r/2 the half
    separation between the probe points.
    """
    h = r / 2.0
    return 1.0 / (2.0**7 * math.pi**2 * math.sqrt(3.0) * abs(d.mu0 * d.eta0) * h * h)


# Per-position type indicators on (det, h11) of a Hessian draw.
def _kind_indicator(kind: str, det: np.ndarray, h11: np.ndarray) -> np.ndarray:
    if kind == "c":
        return np.ones_like(det, dtype=bool)
    if kind == "e":
        return det > 0.0
    if kind == "s":
        return det < 0.0
    if kind == "min":
        return (det > 0.0) & (h11 > 0.0)
    return (det > 0.0) & (h11 < 0.0)  # max


# The "-" member of an antithetic pair has h11 negated, which swaps these.
_MIRROR = {"min": "max", "max": "min"}


def _typed_pair_average(weight: np.ndarray, kinds, dets, h11s) -> np.ndarray:
    """Pair average of weight * prod_i 1[kinds[i]](dets[i], h11s[i]).

    weight and the determinants are even under x -> -x; only h11 flips,
    so c/e/s indicators agree across the pair and the average is the "+"
    value itself, while a min/max tag reads its mirror on the "-" member.
    """
    plus = weight
    for kind, det, h11 in zip(kinds, dets, h11s):
        plus = plus * _kind_indicator(kind, det, h11)
    if not any(kind in _MIRROR for kind in kinds):
        return plus
    minus = weight
    for kind, det, h11 in zip(kinds, dets, h11s):
        minus = minus * _kind_indicator(_MIRROR.get(kind, kind), det, h11)
    return 0.5 * (plus + minus)


def _mean_se(values: np.ndarray):
    """Mean and SE over independent replications: antithetic pair averages or draws."""
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    return mean, se


def _require_two_pairs(nsamples: int, npairs: int) -> None:
    """Reject budgets of fewer than two antithetic pairs.

    The standard error is taken over pairs, and one pair has none.
    """
    if npairs < 2:
        raise ValueError(
            f"nsamples = {nsamples} gives {npairs} antithetic pair(s); the standard "
            f"error needs at least two antithetic pairs"
        )


def one_point_intensity_mc(
    model: CovarianceModel, nsamples: int = 10**6, seed=0, kind: str = "c"
) -> MomentEstimate:
    """Intensity of critical points of one type, by conditional Monte-Carlo.

    The gradient density at zero is closed-form, 1 / (4 pi |eta0|); the
    Hessian is independent of the gradient at a point, so the
    determinant moment E[|det H| 1_kind] is sampled from the exact
    (conditional = unconditional) Hessian law.
    """
    kind = normalize_kind(kind)
    _require_two_pairs(nsamples, nsamples // 2)
    d = sigma_derivatives(model)
    origin = np.zeros(2)
    law = condition_on_zero_gradients(
        model, [origin], [(origin, (2, 0)), (origin, (1, 1)), (origin, (0, 2))]
    )
    rng = seeded_rng(seed)
    h11, h12, h22 = law.sample(rng, nsamples // 2).T
    det = h11 * h22 - h12**2
    mean, se = _mean_se(_typed_pair_average(np.abs(det), (kind,), (det,), (h11,)))
    phi = 1.0 / (4.0 * math.pi * abs(d.eta0))
    return MomentEstimate(
        value=phi * mean, std_error=phi * se, nsamples=nsamples, label=kind
    )


def two_point_correlation(
    model: CovarianceModel, r: float, pair=("c", "c"), nsamples: int = 10**5, seed=0
) -> MomentEstimate:
    """2-point correlation function K2 of typed critical points.

    Parameters
    ----------
    model : CovarianceModel
    r : float
        Mutual distance between the two points (probes sit at
        +-(r/2, 0); by isotropy the axis is arbitrary).
    pair : (tag, tag)
        Type constraint per position, tags in {c, e, s, min, max};
        order does not matter in law.
    nsamples : int
        Conditional Monte-Carlo draws, counting both members of each
        antithetic pair: ceil(nsamples / 2) pairs are sampled, and they
        are the independent replications behind the standard error, so
        at least 3 are needed.

    Raises
    ------
    DegeneracyError
        If r is below R_FLOOR_FRACTION correlation lengths, where the
        gradient-pair covariance is numerically rank deficient.
    """
    kinds = tuple(normalize_kind(k) for k in pair)
    _require_two_pairs(nsamples, (nsamples + 1) // 2)
    floor = R_FLOOR_FRACTION * correlation_length(model)
    if not r >= floor:
        raise DegeneracyError(
            f"r = {r} is below the numerical-rank floor {floor:.3e} "
            f"({R_FLOOR_FRACTION} correlation lengths)"
        )
    cond_cov, logdet = _pair_conditional(model, r)
    law = ConditionalGaussian(
        mean=np.zeros(6),
        covariance=cond_cov,
        labels=("s11", "s12", "s22", "d11/r", "d12/r", "d22/r"),
    )
    phi = float(math.exp(-0.5 * logdet) / (2.0 * math.pi * r) ** 2)
    rng = seeded_rng(seed)

    # Chunked accumulation of antithetic pair averages keeps memory flat
    # for the large budgets the rare typed events need at small r.
    npairs_left = (nsamples + 1) // 2
    tot = tot2 = 0.0
    ntot = 0
    while npairs_left > 0:
        npairs = min(npairs_left, _CHUNK_PAIRS)
        npairs_left -= npairs
        draws = law.sample(rng, npairs)
        # Hessians back from averages and scaled differences.
        half_diff = (r / 2.0) * draws[:, 3:]
        h1 = draws[:, :3] + half_diff
        h2 = draws[:, :3] - half_diff
        det1 = h1[:, 0] * h1[:, 2] - h1[:, 1] ** 2
        det2 = h2[:, 0] * h2[:, 2] - h2[:, 1] ** 2
        pairs = _typed_pair_average(
            np.abs(det1 * det2), kinds, (det1, det2), (h1[:, 0], h2[:, 0])
        )
        tot += float(pairs.sum())
        tot2 += float(pairs @ pairs)
        ntot += npairs
    mean = tot / ntot
    var = max(tot2 / ntot - mean * mean, 0.0) * ntot / (ntot - 1)
    se = math.sqrt(var / ntot)
    return MomentEstimate(
        value=phi * mean,
        std_error=phi * se,
        nsamples=nsamples,
        rho=r,
        label=f"({kinds[0]},{kinds[1]})",
    )


def disc_pair_distance_density(u, rho: float):
    """Density of the distance between two uniform points in a disc of radius rho.

    q(u) = (2u / rho^2) (2/pi) [arccos(v) - v sqrt(1 - v^2)], v = u/(2 rho),
    supported on [0, 2 rho].
    """
    u = np.asarray(u, dtype=float)
    v = np.clip(u / (2.0 * rho), 0.0, 1.0)
    body = (2.0 * u / rho**2) * (2.0 / math.pi) * (np.arccos(v) - v * np.sqrt(1.0 - v * v))
    return np.where((u >= 0) & (u <= 2.0 * rho), body, 0.0)


def _k2_node(args):
    model, u, pair, nsamples, seed = args
    est = two_point_correlation(model, u, pair, nsamples, seed)
    return est.value, est.std_error


def second_factorial_by_quadrature(
    model: CovarianceModel,
    rho: float,
    pair=("c", "c"),
    nsamples_per_node: int = 10**5,
    seed=0,
    nodes: tuple[int, int] = (32, 16),
    threads: int = 1,
) -> MomentEstimate:
    """Ball second (factorial) moment by 1D quadrature of K2.

    Isotropy collapses the 4D integral of K2 over the ball pair to

        E = (pi rho^2)^2 int_0^{2 rho} K2(u) q_rho(u) du

    with q_rho the disc pair-distance density.  The outer region uses
    Gauss-Legendre nodes in the substitution u = 2 rho sin(theta)
    (which absorbs the square-root endpoint of q); the region below
    0.2 rho, where K2 still varies fast, uses Gauss-Legendre in log u
    down to just above the engine's small-r floor.  K2 at each node is
    conditional Monte-Carlo with a per-node derived seed, so the result
    does not depend on scheduling.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    delta = 0.2 * rho
    floor = R_FLOOR_FRACTION * correlation_length(model)
    u_lo = max(floor * (1.0 + 1e-9), 1e-6 * rho)
    if u_lo >= delta:
        raise DegeneracyError(
            f"quadrature range is empty: rho = {rho} too small for the r floor {floor:.3e}"
        )
    n_outer, n_inner = nodes

    # Outer: u = 2 rho sin(theta), theta from asin(delta / 2 rho) to pi/2.
    x, w = np.polynomial.legendre.leggauss(n_outer)
    t0, t1 = math.asin(delta / (2.0 * rho)), 0.5 * math.pi
    theta = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
    wt = 0.5 * (t1 - t0) * w
    u_outer = 2.0 * rho * np.sin(theta)
    jac_outer = 2.0 * rho * np.cos(theta) * wt

    # Inner: v = log u from log u_lo to log delta.
    x, w = np.polynomial.legendre.leggauss(n_inner)
    v0, v1 = math.log(u_lo), math.log(delta)
    v = 0.5 * (v1 - v0) * x + 0.5 * (v1 + v0)
    wv = 0.5 * (v1 - v0) * w
    u_inner = np.exp(v)
    jac_inner = u_inner * wv

    u_all = np.concatenate([u_inner, u_outer])
    jac_all = np.concatenate([jac_inner, jac_outer])
    weights = jac_all * disc_pair_distance_density(u_all, rho)

    tasks = [
        (model, float(u), pair, nsamples_per_node, (seed, i)) for i, u in enumerate(u_all)
    ]
    k2 = np.array(_run_tasks(_k2_node, tasks, threads))
    area2 = (math.pi * rho**2) ** 2
    value = area2 * float(weights @ k2[:, 0])
    se = area2 * math.sqrt(float((weights**2) @ (k2[:, 1] ** 2)))
    a, b = pair
    return MomentEstimate(
        value=value,
        std_error=se,
        nsamples=nsamples_per_node * len(u_all),
        rho=rho,
        label=f"({a},{b})",
    )


# Conditioning event of the degenerate expansion: gradient and the
# first Hessian column vanish at the origin.
_Y0 = [
    (np.zeros(2), (1, 0)),
    (np.zeros(2), (0, 1)),
    (np.zeros(2), (2, 0)),
    (np.zeros(2), (1, 1)),
]


def expansion_moment_mc(
    model: CovarianceModel,
    r: float,
    variant: str = "extrema",
    nsamples: int = 10**5,
    seed=0,
) -> MomentEstimate:
    """Leading-order surrogate for the same-type pair density near zero.

    Samples the conditional law, given the degenerate event (gradient
    and first Hessian column zero at the origin), of

        A1 = d22 d111,
        B0 = d122 d111 - d112^2 + (1/3) d22 d1111,

    and estimates E[|A1^2 - r^2 B0^2| J] with the event J = {|A1| <
    r B0} for the extrema variant and J = {|A1| <= -r B0} for saddles.
    These scale like r^3 and r^3 |log r| respectively, which is where
    the ball moments rho^7 and rho^7 |log rho| come from (after the
    rho^4 pair-volume factor).

    At r = 0 the value returned is the baseline second moment E[A1^2]
    (no indicator), the normalizing constant of the expansion.

    For shifted-random-wave models the conditioning makes d122 equal
    -d111 exactly, so that coordinate is substituted, not sampled.
    """
    if variant not in ("extrema", "saddle"):
        raise ValueError(f"variant must be 'extrema' or 'saddle', got {variant!r}")
    _require_two_pairs(nsamples, nsamples // 2)
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    degenerate, _ = is_shifted_random_wave(model)
    origin = np.zeros(2)
    names = [(0, 2), (3, 0), (2, 1), (4, 0)]  # d22, d111, d112, d1111
    if not degenerate:
        names.insert(2, (1, 2))  # d122 sampled explicitly
    targets = [(origin, alpha) for alpha in names]
    law = _condition(model, _Y0, targets)
    rng = seeded_rng(seed)
    # A1 and B0 are even in the draw, so each pair average is its "+" value.
    draws = law.sample(rng, nsamples // 2)
    if degenerate:
        d22, d111, d112, d1111 = draws.T
        d122 = -d111
    else:
        d22, d111, d122, d112, d1111 = draws.T
    a1 = d22 * d111
    b0 = d122 * d111 - d112**2 + d22 * d1111 / 3.0
    if r == 0.0:
        vals = a1**2
    else:
        if variant == "extrema":
            event = np.abs(a1) < r * b0
        else:
            event = np.abs(a1) <= -r * b0
        vals = np.abs(a1**2 - r * r * b0**2) * event
    mean, se = _mean_se(vals)
    return MomentEstimate(
        value=mean, std_error=se, nsamples=nsamples, rho=r, label=f"expansion-{variant}"
    )


def small_ball_probability_mc(
    dim: int = 2, coupling=None, r: float = 0.01, nsamples: int = 10**6, seed=0
) -> MomentEstimate:
    """P(|Z1 Z2 + sum_ij coupling[i,j] Z_i Z_j| < r) for standard Gaussian Z.

    The product of two Gaussian coordinates concentrates mass near zero
    like r log(1/r); this estimator is the oracle for that the small-
    ball bounds hold with matching lower-bound behavior, including
    under quadratic couplings of the remaining coordinates.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    if nsamples < 2:
        raise ValueError(f"nsamples must be at least 2, got {nsamples}")
    rng = seeded_rng(seed)
    z = rng.standard_normal((nsamples, dim))
    q = z[:, 0] * z[:, 1]
    if coupling is not None:
        coupling = np.asarray(coupling, dtype=float)
        if coupling.shape != (dim, dim):
            raise ValueError(f"coupling must be ({dim}, {dim}), got {coupling.shape}")
        q = q + np.einsum("ni,ij,nj->n", z, coupling, z)
    p = float(np.mean(np.abs(q) < r))
    se = math.sqrt(max(p * (1.0 - p), 0.0) / nsamples)
    return MomentEstimate(value=p, std_error=se, nsamples=nsamples, rho=r, label="small-ball")


def gated_magnitude_mc(r: float, nsamples: int = 10**6, seed=0) -> MomentEstimate:
    """E[|Z2| 1{|Z1| <= r Z2}] for iid standard Gaussians; bounded by C r."""
    if nsamples < 2:
        raise ValueError(f"nsamples must be at least 2, got {nsamples}")
    rng = seeded_rng(seed)
    z1, z2 = rng.standard_normal((2, nsamples))
    mean, se = _mean_se(np.abs(z2) * (np.abs(z1) <= r * z2))
    return MomentEstimate(
        value=mean, std_error=se, nsamples=nsamples, rho=r, label="gated-magnitude"
    )
