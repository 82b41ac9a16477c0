"""Exact-conditioning numeric Kac-Rice engine.

The correlation functions of critical points have the Kac-Rice form

    K1         = phi_grad(0) E[|det H| 1_kind]
    K2(z, w)   = phi_gradpair(0, 0) E[|det H(z)| |det H(w)| 1_kinds
                                      | grad(z) = grad(w) = 0]

where phi_* are Gaussian densities of the gradient (pair) at zero and
H is the Hessian.  Both factors are available essentially exactly: the
joint law of any finite set of field derivatives is a known Gaussian
(see models.derivative_covariance), and only the conditional
determinant expectation needs Monte-Carlo, over a small exactly-known
Gaussian.  At one point the gradient and Hessian are independent (odd
and even derivatives of a stationary isotropic field), so the one-point
law is the plain Hessian covariance.  The pair law is the one Schur
complement of the engine, _pair_conditional, taken in 80-bit arithmetic
in a balanced basis.

The Monte-Carlo is antithetic: each draw x stands for the pair (x, -x),
and the pair average is one independent replication.  Determinants are
sums of products of two coordinates of the draw, so they are even under
x -> -x, exactly so in IEEE arithmetic; only the sign of h11 in the
min/max indicators flips, which swaps min and max.  Each pair is
therefore evaluated once, from its "+" member.  A reported nsamples of
n counts both members: the independent replications are the floor(n/2)
pairs of one_point_intensity_mc and the ceil(n/2) pairs of
two_point_correlation.

Each estimator is a law (the conditional covariance and the density
prefactor) and an integrand (draws to pair averages); one driver,
_antithetic_mean, owns the seeded stream, the chunking and the
reduction.  The reduction is plain elementwise sums with no BLAS call,
so the reported std_error does not depend on the BLAS thread count.

Ball moments reduce by isotropy to one-dimensional integrals against
the disc pair-distance density and are evaluated by Gauss-Legendre
quadrature with Monte-Carlo values of K2 at each node, with extra
log-spaced nodes packed near zero where K2 varies fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    CovarianceModel,
    _require_finite_positive,
    derivative_covariance,
    effective_wavenumber,
    sigma_derivatives,
)
from .sampling import MomentEstimate, _run_tasks, seeded_rng
from .theory import normalize_kind

__all__ = [
    "DegeneracyError",
    "ConditionalGaussian",
    "correlation_length",
    "gradient_pair_density",
    "gradient_pair_density_asymptotic",
    "one_point_intensity_mc",
    "two_point_correlation",
    "disc_pair_distance_density",
    "second_factorial_by_quadrature",
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

# Antithetic pairs (one draw each) per Monte-Carlo chunk (bounds peak memory).
_CHUNK_PAIRS = 1 << 20


class DegeneracyError(ArithmeticError):
    """A covariance block is numerically degenerate where it must not be."""


@dataclass(frozen=True)
class ConditionalGaussian:
    """A centered Gaussian law of field derivatives.

    Eigenvalues of the covariance within rounding dust of zero are
    clipped to zero when sampling; genuinely negative ones raise
    DegeneracyError.
    """

    covariance: np.ndarray

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
        return rng.standard_normal((nsamples, len(self.covariance))) @ fac.T


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

    Returns (covariance 6x6 float64 in the balanced basis, rows the
    averages s11, s12, s22 and then the scaled differences d11/r, d12/r,
    d22/r of the two Hessians; log det of the balanced gradient block).
    """
    _require_finite_positive("r", r)
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
    """Mean and SE over independent draws."""
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


def _antithetic_mean(law: ConditionalGaussian, integrand, npairs: int, seed):
    """Mean and SE of integrand's pair averages over npairs antithetic pairs.

    integrand maps a block of "+" draws from law to one pair average per
    row.  Pairs are drawn from seeded_rng(seed) in chunks of at most
    _CHUNK_PAIRS, which keeps memory flat for the large budgets the rare
    typed events need at small r.  The mean is the running sum of chunk
    sums over npairs; the squared deviations are summed two-pass within
    each chunk, plus each chunk's between-chunk term.  On one chunk this
    is _mean_se bit for bit, and no reduction is a BLAS call.
    """
    rng = seeded_rng(seed)
    tot = 0.0
    chunks = []  # (pair count, chunk mean, within-chunk sum of squared deviations)
    left = npairs
    while left > 0:
        n = min(left, _CHUNK_PAIRS)
        left -= n
        pairs = integrand(law.sample(rng, n))
        total = float(pairs.sum())
        dev = pairs - total / n
        tot += total
        chunks.append((n, total / n, float((dev * dev).sum())))
    mean = tot / npairs
    ss = 0.0
    for n, chunk_mean, dev2 in chunks:
        ss += dev2 + n * (chunk_mean - mean) ** 2
    se = math.sqrt(ss / (npairs - 1)) / math.sqrt(npairs)
    return mean, se


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
    npairs = nsamples // 2
    _require_two_pairs(nsamples, npairs)
    origin = np.zeros(2)
    law = ConditionalGaussian(
        derivative_covariance(model, [(origin, (2, 0)), (origin, (1, 1)), (origin, (0, 2))])
    )
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))

    def integrand(draws):
        h11, h12, h22 = draws.T
        det = h11 * h22 - h12**2
        return _typed_pair_average(np.abs(det), (kind,), (det,), (h11,))

    mean, se = _antithetic_mean(law, integrand, npairs, seed)
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
    npairs = (nsamples + 1) // 2
    _require_two_pairs(nsamples, npairs)
    _require_finite_positive("r", r)
    floor = R_FLOOR_FRACTION * correlation_length(model)
    if not r >= floor:
        raise DegeneracyError(
            f"r = {r} is below the numerical-rank floor {floor:.3e} "
            f"({R_FLOOR_FRACTION} correlation lengths)"
        )
    cond_cov, logdet = _pair_conditional(model, r)
    law = ConditionalGaussian(cond_cov)
    phi = float(math.exp(-0.5 * logdet) / (2.0 * math.pi * r) ** 2)

    def integrand(draws):
        # Hessians back from averages and scaled differences.
        half_diff = (r / 2.0) * draws[:, 3:]
        h1 = draws[:, :3] + half_diff
        h2 = draws[:, :3] - half_diff
        det1 = h1[:, 0] * h1[:, 2] - h1[:, 1] ** 2
        det2 = h2[:, 0] * h2[:, 2] - h2[:, 1] ** 2
        return _typed_pair_average(
            np.abs(det1 * det2), kinds, (det1, det2), (h1[:, 0], h2[:, 0])
        )

    mean, se = _antithetic_mean(law, integrand, npairs, seed)
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
    _require_finite_positive("rho", rho)
    kinds = tuple(normalize_kind(k) for k in pair)
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
        (model, float(u), kinds, nsamples_per_node, (seed, i)) for i, u in enumerate(u_all)
    ]
    k2 = np.array(_run_tasks(_k2_node, tasks, threads))
    area2 = (math.pi * rho**2) ** 2
    value = area2 * float(weights @ k2[:, 0])
    se = area2 * math.sqrt(float((weights**2) @ (k2[:, 1] ** 2)))
    return MomentEstimate(
        value=value,
        std_error=se,
        nsamples=nsamples_per_node * len(u_all),
        rho=rho,
        label=f"({kinds[0]},{kinds[1]})",
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
