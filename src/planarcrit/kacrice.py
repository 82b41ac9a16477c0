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
in a balanced basis: averages and scaled differences of the derivatives
at the probe points +-(r/2, 0).  The reflections x -> -x (which swaps
the points) and y -> -y give the four balanced gradient coordinates
avg d1, avg d2, diff d1 / r and diff d2 / r four different parities, so
their covariance is exactly diagonal, and the law splits into four
parity blocks, each Hessian coordinate paired with one gradient
coordinate: {s11, s22} with diff d1, {s12} with diff d2, {d11, d22}
with avg d1 and {d12} with avg d2 (s for averaged and d for differenced
Hessian entries).  The Schur step is a division by the four gradient
variances, and the conditional covariance is block diagonal.

The Monte-Carlo is antithetic: each draw x stands for the pair (x, -x),
and the pair average is one independent replication.  Determinants are
sums of products of two coordinates of the draw, so they are even under
x -> -x, exactly so in IEEE arithmetic, and so are the indicators of
the tags c, e and s, the only ones the integrands read.  Each pair is
therefore evaluated once, from its "+" member.  x -> -x negates h11,
which swaps minima and maxima (h11 = 0 forces det <= 0), so a one-point
min or max intensity is exactly half the e intensity; the pair functions
take c, e or s at each position.  A reported nsamples of n counts both
members: the independent replications are the floor(n/2) pairs of
one_point_intensity_mc and the ceil(n/2) pairs of two_point_correlation.

Each estimator is a law (the conditional covariance and the density
prefactor) and an integrand (draws to pair averages); one driver,
_antithetic_mean, owns the seeded stream, the chunking and the
reduction.  It draws and integrates in blocks of _BLOCK_PAIRS pairs,
small enough to stay in cache; blocks are for speed and change no
bits.  Chunks of _CHUNK_PAIRS pairs are the unit of the reduction and
fix its bits.  The reduction is plain elementwise sums with no BLAS
call, so the reported std_error does not depend on the BLAS thread
count.

Ball moments reduce by isotropy to one-dimensional integrals against
the disc pair-distance density and are evaluated by Gauss-Legendre
quadrature with Monte-Carlo values of K2 at each node, with extra
log-spaced nodes packed near zero where K2 varies fastest.
"""

from __future__ import annotations

import functools
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
from .theory import normalize_kind, pair_tags

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
    "small_ball_probability",
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

# Antithetic pairs (one draw each) per Monte-Carlo chunk, the unit of the
# reduction: it fixes the bits of the mean and SE and bounds peak memory.
_CHUNK_PAIRS = 1 << 20

# Antithetic pairs per block, the unit of drawing and integrating: a
# block of six-component draws is 384 KB and each of its temporaries
# 64 KB, so they stay in cache.  It changes no bits.
_BLOCK_PAIRS = 1 << 13

# Gauss-Legendre nodes of the ball quadrature above and below 0.2 rho.
_OUTER_NODES, _INNER_NODES = 32, 16


class DegeneracyError(ArithmeticError):
    """A covariance block is numerically degenerate where it must not be."""


@dataclass(frozen=True)
class ConditionalGaussian:
    """A centered Gaussian law of field derivatives.

    Eigenvalues of the covariance within rounding dust of zero are
    clipped to zero when sampling; genuinely negative ones raise
    DegeneracyError.  The factor F, with F F^T = covariance, is computed
    at the first draw and kept: a draw is F z for standard normal z.
    """

    covariance: np.ndarray

    @functools.cached_property
    def _fac(self) -> np.ndarray:
        eigval, eigvec = np.linalg.eigh(self.covariance)
        tol = _EIG_TOL * max(1.0, float(eigval[-1]))
        if eigval[0] < -tol:
            raise DegeneracyError(
                f"conditional covariance has eigenvalue {eigval[0]} below -{tol}"
            )
        return eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    def sample(self, rng: np.random.Generator, nsamples: int) -> np.ndarray:
        """Draw nsamples independent rows, shape (nsamples, dim).

        Row i is the draw F z_i.  The array is the transpose of F z^T, so
        result.T holds one contiguous row per component, which is how the
        integrands read it without a copy.  F z^T has the bits of z F^T
        with numpy 2.4's OpenBLAS: tools/cli_digests.py gives the same
        Kac-Rice digests for both forms.
        """
        z = rng.standard_normal((nsamples, len(self.covariance)))
        return (self._fac @ z.T).T


def correlation_length(model: CovarianceModel) -> float:
    """Oscillation length 2 pi / k_eff, k_eff = sqrt(-4 eta0 / sigma0)."""
    return 2.0 * math.pi / effective_wavenumber(model)


def _balanced_map(nper: int, r) -> np.ndarray:
    """Mixing matrix sending per-point blocks (v(p1), v(p2)) of length nper
    each to (averages, differences / r), in the dtype of r; one matrix
    per element of an array r, shape r.shape + (2 nper, 2 nper).

    At mutual distance r the raw pair covariance has condition number
    ~(L/r)^2: differences of derivatives across the pair are O(r) while
    sums are O(1).  The average/scaled-difference basis keeps the
    constraint block well conditioned, so the Schur step is stable.
    """
    r = np.asarray(r)[..., None, None]
    eye = np.eye(nper, dtype=r.dtype)
    half = np.broadcast_to(0.5 * eye, r.shape[:-2] + eye.shape)
    return np.concatenate(
        [np.concatenate([half, half], axis=-1), np.concatenate([eye / r, -eye / r], axis=-1)],
        axis=-2,
    )


def _balanced_blocks(model: CovarianceModel, r):
    """Balanced covariance blocks (gg, tg, tt) of the gradients and
    Hessians at +-(r/2, 0), in 80 bits.

    r is one distance or a 1-D array of them; an array gives each block
    a leading batch axis, assembled in one derivative_covariance call,
    with the bits of the per-distance blocks.  Rows of gg: avg d1, avg
    d2, diff d1 / r, diff d2 / r; rows of tt: s11, s12, s22, d11 / r,
    d12 / r, d22 / r.  By parity (module notes) gg is diagonal and each
    row of tg has at most one nonzero entry.
    """
    rld = np.asarray(r, dtype=np.longdouble)
    zero = np.zeros_like(rld)
    points = (np.stack([rld / 2.0, zero], axis=-1), np.stack([-rld / 2.0, zero], axis=-1))
    grad, hess = ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))
    specs = [(p, alpha) for orders in (grad, hess) for p in points for alpha in orders]
    cov = derivative_covariance(model, specs)
    a = _balanced_map(2, rld)
    b = _balanced_map(3, rld)
    at, bt = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
    return a @ cov[..., :4, :4] @ at, b @ cov[..., 4:, :4] @ at, b @ cov[..., 4:, 4:] @ bt


def _pair_conditional(model: CovarianceModel, r):
    """Conditional Hessian-pair law at +-(r/2, 0) given zero gradients.

    Everything up to the conditional covariance runs in 80-bit
    arithmetic: the averaged Hessian entries have conditional variance
    ~r^4 times a small constant, 13+ digits below the matrix entries,
    which a double-precision Schur complement cannot resolve (it shows
    up as spurious variance that inflates the rare typed events).

    The balanced gradient block is diagonal (its four coordinates have
    four different parities under the two axis reflections), so the
    Schur step divides by the four gradient variances: each Hessian
    coordinate is regressed on the one gradient coordinate of its parity
    block, {s11, s22} on diff d1, {s12} on diff d2, {d11, d22} on avg d1
    and {d12} on avg d2.

    r is one distance or a 1-D array of them.  For one distance, returns
    (covariance 6x6 float64 in the balanced basis, rows the averages
    s11, s12, s22 and then the scaled differences d11/r, d12/r, d22/r of
    the two Hessians; the joint density of the two gradients at (0, 0)).
    For an array, the laws of all distances come from one batched
    assembly, as (covariances (n, 6, 6), densities (n,)), each with the
    bits of its own one-distance call.  The density is
    exp(-logdet / 2) / (2 pi r)^2 with logdet the log of the product of
    the four balanced gradient variances, since the balanced basis
    scales the raw determinant by r^-4 exactly.  The covariance is block
    diagonal in the four parity blocks.

    Raises DegeneracyError naming r, the first such r of an array, when
    a balanced gradient variance is not positive.
    """
    for value in np.atleast_1d(r):
        _require_finite_positive("r", value)
    gg, tg, tt = _balanced_blocks(model, r)
    var = np.diagonal(gg, axis1=-2, axis2=-1)
    degenerate = ~np.all(var > 0, axis=-1)
    if degenerate.any():
        first = np.flatnonzero(degenerate)[0]
        raise DegeneracyError(
            f"gradient-pair covariance is degenerate at r = {np.atleast_1d(r)[first]}: "
            f"balanced gradient variances {np.atleast_2d(var)[first].astype(float)}"
        )
    sd = np.sqrt(var)[..., :, None]
    # Two divisions by sd round as the Cholesky solve of the diagonal
    # block does; one by var would move the last bits of every K2.
    cond = tt - tg @ (np.swapaxes(tg, -1, -2) / sd / sd)
    cond = (0.5 * (cond + np.swapaxes(cond, -1, -2))).astype(float)
    logdet = 2.0 * np.log(sd[..., 0]).sum(axis=-1)
    density = [
        math.exp(-0.5 * float(ld)) / (2.0 * math.pi * float(dist)) ** 2
        for ld, dist in zip(np.atleast_1d(logdet), np.atleast_1d(r))
    ]
    if np.ndim(r) == 0:
        return cond, density[0]
    return cond, np.array(density)


def gradient_pair_density(model: CovarianceModel, r: float) -> float:
    """Joint density at (0, 0) of the two gradients at mutual distance r.

    Computed by _pair_conditional from the four variances of the
    balanced gradient block, which is diagonal by parity (avg d1, avg d2,
    diff d1 / r and diff d2 / r are odd under different reflections);
    this is the non-Monte-Carlo factor of the 2-point correlation
    function.
    """
    return _pair_conditional(model, r)[1]


def gradient_pair_density_asymptotic(d, r: float) -> float:
    """Small-distance law of gradient_pair_density at mutual distance r.

    1 / (2^7 pi^2 sqrt(3) |mu0 eta0| h^2) with h = r/2 the half
    separation between the probe points.
    """
    h = r / 2.0
    return 1.0 / (2.0**7 * math.pi**2 * math.sqrt(3.0) * abs(d.mu0 * d.eta0) * h * h)


# Per-position type indicator on the determinant of a Hessian draw.
def _kind_indicator(kind: str, det: np.ndarray) -> np.ndarray:
    if kind == "c":
        return np.ones_like(det, dtype=bool)
    if kind == "e":
        return det > 0.0
    return det < 0.0  # s


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
    typed events need at small r, and each chunk is drawn and integrated
    in blocks of at most _BLOCK_PAIRS, which keeps the draws and the
    integrand's temporaries in cache.  Blocks are for speed only: the
    normal stream, the row-wise map and the elementwise integrand give
    the same pair averages whatever the block size.  Chunks fix the bits
    of the reduction.  Every chunk's pair averages go into one reused
    buffer, which the reduction squares in place, so one chunk-sized
    array is alive at a time.  The mean is the running sum of chunk sums
    over npairs; the squared deviations are summed two-pass within each
    chunk, plus each chunk's between-chunk term.  On one chunk this is
    the plain sample mean and values.std(ddof=1) / sqrt(npairs) bit for
    bit, and no reduction is a BLAS call.
    """
    rng = seeded_rng(seed)
    tot = 0.0
    chunks = []  # (pair count, chunk mean, within-chunk sum of squared deviations)
    buf = np.empty(min(npairs, _CHUNK_PAIRS))
    left = npairs
    while left > 0:
        n = min(left, _CHUNK_PAIRS)
        left -= n
        pairs = buf[:n]
        for lo in range(0, n, _BLOCK_PAIRS):
            hi = min(lo + _BLOCK_PAIRS, n)
            pairs[lo:hi] = integrand(law.sample(rng, hi - lo))
        total = float(pairs.sum())
        pairs -= total / n
        pairs *= pairs
        tot += total
        chunks.append((n, total / n, float(pairs.sum())))
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
    (conditional = unconditional) Hessian law.  A min or max intensity
    is half the e intensity on the same draws (see the module notes).
    """
    kind = normalize_kind(kind)
    npairs = nsamples // 2
    _require_two_pairs(nsamples, npairs)
    # The moments first: they fail cleanly where the covariance overflows.
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))
    tag = kind
    if kind in ("min", "max"):
        tag, phi = "e", 0.5 * phi
    origin = np.zeros(2)
    law = ConditionalGaussian(
        derivative_covariance(model, [(origin, (2, 0)), (origin, (1, 1)), (origin, (0, 2))])
    )

    def integrand(draws):
        h11, h12, h22 = draws.T
        det = h11 * h22 - h12**2
        return np.where(_kind_indicator(tag, det), np.abs(det), 0.0)

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
    pair : (tag, tag) or str
        Type constraint per position, tags in {c, e, s}; a string is
        split by theory.pair_tags ("e,s", "extremum saddle", "es").
        (e, s) and (s, e) agree in law but not draw by draw.
    nsamples : int
        Conditional Monte-Carlo draws, counting both members of each
        antithetic pair: ceil(nsamples / 2) pairs are sampled, and they
        are the independent replications behind the standard error, so
        at least 3 are needed.

    Raises
    ------
    ValueError
        If pair is not two of the tags c, e, s (min and max are one-point).
    DegeneracyError
        If r is below R_FLOOR_FRACTION correlation lengths, where the
        gradient-pair covariance is numerically rank deficient.
    """
    kinds = pair_tags(pair)
    npairs = (nsamples + 1) // 2
    _require_two_pairs(nsamples, npairs)
    _require_finite_positive("r", r)
    floor = R_FLOOR_FRACTION * correlation_length(model)
    if not r >= floor:
        raise DegeneracyError(
            f"r = {r} is below the numerical-rank floor {floor:.3e} "
            f"({R_FLOOR_FRACTION} correlation lengths)"
        )
    cond_cov, phi = _pair_conditional(model, r)
    value, se = _k2_from_law(cond_cov, phi, r, kinds, npairs, seed)
    return MomentEstimate(
        value=value,
        std_error=se,
        nsamples=nsamples,
        rho=r,
        label=f"({kinds[0]},{kinds[1]})",
    )


def _k2_from_law(cond_cov, phi: float, r: float, kinds, npairs: int, seed):
    """K2 and its SE at distance r from the pair law (cond_cov, phi) of
    _pair_conditional, over npairs antithetic pairs."""
    law = ConditionalGaussian(cond_cov)

    def integrand(draws):
        # Hessians back from averages and scaled differences; h1 is built
        # in place over the half differences.
        rows = draws.T
        avg, h1 = rows[:3], (r / 2.0) * rows[3:]
        h2 = avg - h1
        h1 += avg
        det1 = h1[0] * h1[2] - h1[1] ** 2
        det2 = h2[0] * h2[2] - h2[1] ** 2
        typed = _kind_indicator(kinds[0], det1) & _kind_indicator(kinds[1], det2)
        return np.where(typed, np.abs(det1 * det2), 0.0)

    mean, se = _antithetic_mean(law, integrand, npairs, seed)
    return phi * mean, phi * se


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
    """One quadrature node: (cond_cov, phi, r, kinds, npairs, seed) to (K2, SE)."""
    return _k2_from_law(*args)


def second_factorial_by_quadrature(
    model: CovarianceModel,
    rho: float,
    pair=("c", "c"),
    nsamples_per_node: int = 10**5,
    seed=0,
    threads: int = 1,
) -> MomentEstimate:
    """Ball second (factorial) moment by 1D quadrature of K2.

    Isotropy collapses the 4D integral of K2 over the ball pair to

        E = (pi rho^2)^2 int_0^{2 rho} K2(u) q_rho(u) du

    with q_rho the disc pair-distance density.  The outer region uses
    Gauss-Legendre nodes in the substitution u = 2 rho sin(theta)
    (which absorbs the square-root endpoint of q); the region below
    0.2 rho, where K2 still varies fast, uses Gauss-Legendre in log u
    down to just above the engine's small-r floor.  The pair laws of
    all nodes are built in one batched _pair_conditional call before the
    worker pool starts, and each node task carries its law (covariance,
    density) rather than the model.  K2 at each node is then conditional
    Monte-Carlo with a per-node derived seed, so the result does not
    depend on scheduling.
    """
    _require_finite_positive("rho", rho)
    kinds = pair_tags(pair)
    delta = 0.2 * rho
    floor = R_FLOOR_FRACTION * correlation_length(model)
    u_lo = max(floor * (1.0 + 1e-9), 1e-6 * rho)
    if u_lo >= delta:
        raise DegeneracyError(
            f"quadrature range is empty: rho = {rho} too small for the r floor {floor:.3e}"
        )
    # Outer: u = 2 rho sin(theta), theta from asin(delta / 2 rho) to pi/2.
    x, w = np.polynomial.legendre.leggauss(_OUTER_NODES)
    t0, t1 = math.asin(delta / (2.0 * rho)), 0.5 * math.pi
    theta = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
    wt = 0.5 * (t1 - t0) * w
    u_outer = 2.0 * rho * np.sin(theta)
    jac_outer = 2.0 * rho * np.cos(theta) * wt

    # Inner: v = log u from log u_lo to log delta.
    x, w = np.polynomial.legendre.leggauss(_INNER_NODES)
    v0, v1 = math.log(u_lo), math.log(delta)
    v = 0.5 * (v1 - v0) * x + 0.5 * (v1 + v0)
    wv = 0.5 * (v1 - v0) * w
    u_inner = np.exp(v)
    jac_inner = u_inner * wv

    u_all = np.concatenate([u_inner, u_outer])
    jac_all = np.concatenate([jac_inner, jac_outer])
    weights = jac_all * disc_pair_distance_density(u_all, rho)

    npairs = (nsamples_per_node + 1) // 2
    _require_two_pairs(nsamples_per_node, npairs)
    conds, phis = _pair_conditional(model, u_all)
    tasks = [
        (cond, float(phi), float(u), kinds, npairs, (seed, i))
        for i, (cond, phi, u) in enumerate(zip(conds, phis, u_all))
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


def small_ball_probability(r: float) -> float:
    """P(|Z1 Z2| < r) for independent standard Gaussians Z1, Z2, exactly.

    The product Z1 Z2 has density K0(|u|) / pi, so the probability is
    (2 / pi) int_0^r K0 = r [K0(r) L_{-1}(r) + K1(r) L0(r)], with L the
    modified Struve functions.  It concentrates mass near zero like
    r log(1/r), the oracle that the small-ball bounds hold with matching
    lower-bound behavior.
    """
    # Imported here: scipy.special would cost every CLI start.
    from scipy.special import k0, k1, modstruve

    return float(r * (k0(r) * modstruve(-1, r) + k1(r) * modstruve(0, r)))
