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
variances, and the conditional covariance is block diagonal.  The law
is balanced but its draws are not: a pair law's factor is folded once,
at its first draw, by the map to the two Hessians h(+-r/2, 0) =
avg +- (r/2) diff, so the integrand reads h(z) and h(w) straight from
its rows.

Determinants are sums of products of two coordinates of a draw x, so
they are even under x -> -x, exactly so in IEEE arithmetic, and so are
the signed parts of them that the tags c, e and s read (|det|, det+ and
(-det)+), the only tags the integrands read: a draw and its mirror -x
give the same value, so each draw is evaluated once and is one
independent replication.  x -> -x negates h11, which swaps minima and
maxima (h11 = 0 forces det <= 0), so a one-point min or max intensity
is exactly half the e intensity; the pair functions take c, e or s at
each position.  A reported nsamples of n counts each draw twice, as x
and -x: every estimator draws ceil(n/2) times (_draws, the one budget
rule), and at least two draws are needed for a standard error.

Each estimator is a stack of k laws (conditional covariances and
density prefactors) and an integrand (one law's block of draws to its
values, one per draw, written in place); one driver, _mc_mean, owns the
seeded stream, the blocks and the reduction.  The laws of a stack
share one stream: two_point_correlation over an array of distances draws
each normal vector z once and maps it by every distance's factor F_r,
since only F_r depends on r (common random numbers; Asmussen & Glynn
2007, Stochastic Simulation, ch. V).  Each row keeps its distance's
exact law, value and SE, and the rows are correlated.  One law, as in
the one-point intensity, a one-distance call or a quadrature node, is a
stack of one, and takes the same path.  one_point_intensity_mc over
several kinds is a stack of copies of its one Hessian law, so its kinds
read each draw once too.

The driver draws, integrates and reduces in blocks of _BLOCK_DRAWS
draws, small enough to stay in cache.  A block of normals is drawn once
into a reused workspace and copied to column-major order there; then,
one law at a time, F_r maps it into the workspace's row-major half, as
one (6, block) array whose rows are that law's two Hessians (h11, h12,
h22 at each point), and the integrand forms det1 and det2 in place over
them, then each tag's signed part of its determinant and their product
into that law's row of a reused (k, block) buffer of values, so only
one law's draws exist at a time.  Each block's values are reduced while
still in cache, to row sums and two-pass squared deviations about the
block mean, and merged into running per-row totals by the pairwise
update of Chan, Golub & LeVeque (1983, Amer. Statist. 37:242), so the
driver's memory does not grow with the budget or with k beyond one row
per law.  The block size fixes the bits of the reduction, and each row
is reduced on its own, so a row of a stack has the bits of its law's
own call at any budget.  The reduction is plain elementwise sums with
no BLAS call, so the reported std_error does not depend on the BLAS
thread count.  The `scaling` and two-point CLI calls make one call for
all their distances, so they draw k times fewer normals.

Ball moments reduce by isotropy to one-dimensional integrals against
the disc pair-distance density and are evaluated by Gauss-Legendre
quadrature with Monte-Carlo values of K2 at each node, with extra
log-spaced nodes packed near zero where K2 varies fastest.  The nodes
keep separate streams: their weights are all positive, so shared draws
would raise the variance of the weighted sum from sum w_i^2 sigma_i^2
towards (sum w_i sigma_i)^2.
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
from .theory import ball_area_squared, normalize_kind, pair_tags

__all__ = [
    "DegeneracyError",
    "PrecisionError",
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

# Relative eigenvalue tolerance for conditional covariances: a law whose
# least eigenvalue is below -_EIG_TOL times its top one raises, whatever
# the law's scale.  Schur rounding dust reaches ~2e-10 of the top
# eigenvalue near the r floor (the gradient-pair block has condition
# number ~1e7 there); genuine rank collapse shows up orders of magnitude
# beyond this.
_EIG_TOL = 1e-8

# Draws per block, the unit of drawing, integrating and reducing: a
# block of six-component normals and its column-major copy (later one
# law's rows) are 192 KB each, and each integrand temporary 32 KB, so
# they stay in cache.  It fixes the bits of the mean and SE.
_BLOCK_DRAWS = 1 << 12

# Mantissa bits of numpy's longdouble here: 63 for the x86 80-bit format
# that _pair_conditional needs, 52 where longdouble is a plain double.
_LONGDOUBLE_NMANT = np.finfo(np.longdouble).nmant

# Gauss-Legendre nodes of the ball quadrature above and below 0.2 rho.
_OUTER_NODES, _INNER_NODES = 32, 16


class DegeneracyError(ArithmeticError):
    """A covariance block is numerically degenerate where it must not be."""


class PrecisionError(ArithmeticError):
    """The platform's arithmetic is too coarse for a law it would return."""


@dataclass(frozen=True)
class ConditionalGaussian:
    """A stack of k centered Gaussian laws of field derivatives that
    share one normal stream; one law is a stack of one.

    covariance is a stack (k, dim, dim) of k laws, or one (dim, dim)
    matrix, which is the stack of that one law.  Eigenvalues of a
    covariance within rounding dust of zero are clipped to zero when
    sampling; genuinely negative ones, in any law, raise
    DegeneracyError.  The factors F_i, with F_i F_i^T = covariance i,
    are computed at the first draw and kept as one (k, dim, dim) array:
    law i's draw is F_i z for standard normal z.

    half, given for a stack of pair laws (covariances in the balanced
    basis of _pair_conditional), holds their k half distances r_i / 2.
    The factors are then folded: F_i stacks the rows B_avg + (r_i/2)
    B_diff and B_avg - (r_i/2) B_diff of the balanced factor B_i,
    formed elementwise, so law i's draw is the two Hessians
    (h(r_i/2, 0), h(-r_i/2, 0)) and F_i F_i^T = T_i covariance_i T_i^T
    with T_i = [[I, r_i/2 I], [I, -r_i/2 I]].  The eigendecomposition
    and its check stay on the balanced covariance, and only the folded
    factor is kept.

    sample is the one place where a stack draws from its stream, so a
    trace of sample counts each draw once.  It returns the common
    normals z, and _rows maps them by one law at a time into a caller's
    buffer, so one law's draws exist at a time.  Every law maps the same
    z: the k draws made from one z are correlated with each other, and
    each law's draws still have exactly that law.
    """

    covariance: np.ndarray
    half: np.ndarray | None = None

    @functools.cached_property
    def _fac(self) -> np.ndarray:
        cov = self.covariance
        eigval, eigvec = np.linalg.eigh(cov.reshape((-1, *cov.shape[-2:])))
        tol = _EIG_TOL * eigval[:, -1]
        bad = np.flatnonzero(eigval[:, 0] < -tol)
        if bad.size:
            raise DegeneracyError(
                f"conditional covariance has eigenvalue {eigval[bad[0], 0]} below -{tol[bad[0]]}"
            )
        fac = eigvec * np.sqrt(np.clip(eigval, 0.0, None))[:, None, :]
        if self.half is None:
            return fac
        # h = avg +- (r/2) diff, row by row: elementwise, so each law of a
        # stack folds to the bits of its own one-law call.
        avg, diff = fac[:, :3], fac[:, 3:] * np.reshape(self.half, (-1, 1, 1))
        return np.concatenate([avg + diff, avg - diff], axis=1)

    def sample(self, rng: np.random.Generator, nsamples: int, out=None) -> np.ndarray:
        """Draw the common normals z of nsamples independent draws,
        shape (nsamples, dim), in column-major order.

        Every law is checked before the draw.  out, a (2, m) array with
        m >= nsamples * dim, is a caller's workspace, reused from block to
        block (a fresh one is made without it): the normals fill its
        first row in the stream's order, (nsamples, dim) row-major, and
        are copied into its second row in column-major order, of which z
        is a view; the first row is then free for the caller.  So z.T
        holds one contiguous row per component and every law's _rows is
        a plain matrix product, about twice as fast as one with a
        transposed operand and with the same bits.
        """
        dim = self._fac.shape[-1]
        out = np.empty((2, nsamples * dim)) if out is None else out
        z = out[1, : nsamples * dim].reshape(dim, nsamples).T
        z[...] = rng.standard_normal(out=out[0, : nsamples * dim].reshape(nsamples, dim))
        return z

    def _rows(self, z: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        """Law i's draws F_i z^T of the common normals z (from sample),
        written into out, shape (dim, len(z)), one row per component: for
        a folded pair law, the rows h11, h12, h22 at (r/2, 0) and then at
        (-r/2, 0)."""
        return np.matmul(self._fac[i], z.T, out=out)


def correlation_length(model: CovarianceModel) -> float:
    """Oscillation length 2 pi / k_eff, k_eff = sqrt(-4 eta0 / sigma0)."""
    return 2.0 * math.pi / effective_wavenumber(model)


def _balanced_blocks(model: CovarianceModel, r):
    """Balanced covariance blocks (gg, tg, tt) of the gradients and
    Hessians at +-(r/2, 0), in 80 bits.

    At mutual distance r the raw pair covariance has condition number
    ~(L/r)^2: differences of derivatives across the pair are O(r) while
    sums are O(1).  The basis of averages and differences / r keeps the
    constraint block well conditioned, so the Schur step is stable.  Each
    block's rows, then its columns, are mixed from the two points' halves
    p1, p2 as 0.5 p1 + 0.5 p2 and inv p1 - inv p2, with inv = 1 / r
    rounded once in 80 bits.

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
    inv = (1.0 / rld)[..., None, None]

    def mix_rows(m, n):
        p1, p2 = m[..., :n, :], m[..., n:, :]
        return np.concatenate([0.5 * p1 + 0.5 * p2, inv * p1 - inv * p2], axis=-2)

    def mix(m, nrow, ncol):
        return np.swapaxes(mix_rows(np.swapaxes(mix_rows(m, nrow), -1, -2), ncol), -1, -2)

    return mix(cov[..., :4, :4], 2, 2), mix(cov[..., 4:, :4], 3, 2), mix(cov[..., 4:, 4:], 3, 3)


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

    Raises PrecisionError naming the platform's mantissa bits where
    numpy's longdouble has fewer than the 63 of the 80-bit format (it is
    a plain double on some platforms, where the law would be silently
    wrong at small r), DegeneracyError naming r, the first such r of an
    array, when a balanced gradient variance is not positive, and
    OverflowError naming the first r whose density's factors overflow.
    """
    for value in np.atleast_1d(r):
        _require_finite_positive("r", value)
    if _LONGDOUBLE_NMANT < 63:
        raise PrecisionError(
            f"the Kac-Rice pair law needs an 80-bit longdouble (63 mantissa bits), "
            f"but numpy's longdouble here has {_LONGDOUBLE_NMANT}")
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
    density = []
    for ld, dist in zip(np.atleast_1d(logdet), np.atleast_1d(r)):
        # Far apart, each factor overflows a double before their ratio does.
        try:
            density.append(math.exp(-0.5 * float(ld)) / (2.0 * math.pi * float(dist)) ** 2)
        except OverflowError:
            raise OverflowError(
                f"distance r = {dist} is too large: the gradient-pair density "
                "exp(-logdet / 2) / (2 pi r)^2 overflows a double") from None
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


# Each tag's signed part of a determinant, written into out (det may be
# overwritten): |det| for c, det+ = max(det, 0) for e and (-det)+ for s.
# np.maximum(x, 0.0) returns its second operand, +0.0, where x is -0.0.
_SIGNED_PART = {
    "c": lambda det, out: np.abs(det, out=out),
    "e": lambda det, out: np.maximum(det, 0.0, out=out),
    "s": lambda det, out: np.maximum(np.negative(det, out=det), 0.0, out=out),
}


def _typed_product(tags):
    """The integrand of _mc_mean whose value is the product of the signed
    parts of its positions' determinants; tags[i] holds law i's tags, one
    per position, and position p is rows 3p..3p+2 of the block (h11, h12,
    h22).

    det h_p is formed in place over its rows.  The first position's part
    is written into out, and out is multiplied by each later part, formed
    in place over h22 of its position.  Where a position fails its type
    its part is +0.0, so the value is +0.0, never -0.0; where all hold it
    is the product of the |det h_p|, with the bits of |det h_1 det h_2|.
    """

    def integrand(i, rows, out):
        for p, tag in enumerate(tags[i]):
            h11, h12, h22 = rows[3 * p : 3 * p + 3]
            det = np.multiply(h11, h22, out=h11)
            det -= np.square(h12, out=h12)
            if p == 0:
                _SIGNED_PART[tag](det, out)
            else:
                out *= _SIGNED_PART[tag](det, h22)

    return integrand


def _draws(nsamples: int) -> int:
    """Independent draws bought by a budget of nsamples: ceil(nsamples / 2).

    Each draw counts twice, as x and its mirror -x (module notes).  The
    standard error is taken over draws, and one draw has none.
    """
    ndraws = (nsamples + 1) // 2
    if ndraws < 2:
        raise ValueError(f"nsamples = {nsamples} buys {ndraws} draw(s); an SE needs two or more")
    return ndraws


def _mc_mean(law: ConditionalGaussian, integrand, ndraws: int, seed):
    """Mean and SE of integrand's values over ndraws independent draws,
    for each of the k laws of law.

    integrand(i, rows, out) writes law i's values, one per draw, into
    out, shape (n,), from that law's block of draws rows, shape (dim, n)
    with one row per component of the law's factor (for a pair law, the
    two Hessians), which it may overwrite.  Every law is checked before
    the first draw.  Draws come from seeded_rng(seed) in blocks of
    _BLOCK_DRAWS, the unit of drawing, integrating and reducing: a block
    of common normals is drawn once into a reused workspace (sample) and
    then mapped law by law into the workspace's free row, as one (dim,
    block) array, and each law's values go into its row of one reused
    (k, block) buffer.  A block holds at least two draws, and a lone
    last draw joins the block before it: numpy maps one draw by its
    matrix-vector product, whose last bits differ from the matrix
    product's.

    Each block is reduced while in cache, its k rows at once but each on
    its own: its row sums, and its squared deviations about the block
    mean summed two-pass (the buffer is squared in place).  It is then
    merged into running per-row totals (draw count, sums and sums of
    squared deviations) by the pairwise update of Chan, Golub & LeVeque
    (1983): the deviations gain delta^2 n_a n_b / (n_a + n_b), delta the
    gap between the block mean and the running mean.  So memory stays
    flat whatever the budget, the block size fixes the bits, and a row of
    a stack has the bits of its law's own call with the same seed at any
    budget, while the rows are correlated.  On one block this is the
    plain sample mean and values.std(ddof=1) / sqrt(ndraws) bit for
    bit, and no reduction is a BLAS call.  Returns (means, SEs), arrays
    of k.
    """
    k, _, dim = law._fac.shape
    block_draws = max(2, _BLOCK_DRAWS)
    size = min(ndraws, block_draws + 1)
    rng = seeded_rng(seed)
    # buf is flat so that each block's (k, n) values are contiguous: on a
    # strided slice, numpy buffers the broadcast subtraction below.
    work, buf = np.empty((2, size * dim)), np.empty(k * size)
    count, sums, dev2 = 0, np.zeros(k), np.zeros(k)
    while count < ndraws:
        # No block but the first starts at the last draw (see above), since
        # the matrix-vector product maps about 2 draws in 3 to other bits.
        n = block_draws if count + block_draws < ndraws - 1 else ndraws - count
        values = buf[: k * n].reshape(k, n)
        z = law.sample(rng, n, work)
        rows = work[0, : dim * n].reshape(dim, n)
        for i in range(k):
            integrand(i, law._rows(z, i, rows), values[i])
        block = values.sum(axis=1)
        values -= (block / n)[:, None]
        values *= values
        merged = values.sum(axis=1)
        if count:
            delta = block / n - sums / count
            merged += delta * delta * (count * n / (count + n))
        dev2 += merged
        sums += block
        count += n
    return sums / ndraws, np.sqrt(dev2 / (ndraws - 1)) / math.sqrt(ndraws)


def one_point_intensity_mc(
    model: CovarianceModel, nsamples: int = 10**6, seed=0, kind="c"
):
    """Intensity of critical points of one type, by conditional Monte-Carlo.

    The gradient density at zero is closed-form, 1 / (4 pi |eta0|); the
    Hessian is independent of the gradient at a point, so the
    determinant moment E[|det H| 1_kind] is sampled from the exact
    (conditional = unconditional) Hessian law.  A min or max intensity
    is half the e intensity on the same draws (see the module notes).

    kind is one kind, which returns one MomentEstimate, or a sequence of
    kinds, which returns a list of them in its order.  The kinds of a
    sequence are a stack of the one Hessian law and read one stream, as
    the distances of two_point_correlation do: each normal vector is
    drawn once, and each estimate has the bits of its one-kind call with
    the same seed.
    """
    kinds = [normalize_kind(k) for k in ([kind] if isinstance(kind, str) else kind)]
    if not kinds:
        raise ValueError("kind must be one kind or a non-empty sequence of kinds")
    ndraws = _draws(nsamples)
    # The moments first: they fail cleanly where the covariance overflows.
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))
    tags = ["e" if k in ("min", "max") else k for k in kinds]
    phis = [0.5 * phi if k in ("min", "max") else phi for k in kinds]
    origin = np.zeros(2)
    cov = derivative_covariance(model, [(origin, (2, 0)), (origin, (1, 1)), (origin, (0, 2))])
    law = ConditionalGaussian(np.broadcast_to(cov, (len(kinds), *cov.shape)))

    mean, se = _mc_mean(law, _typed_product([(t,) for t in tags]), ndraws, seed)
    ests = [
        MomentEstimate(value=float(p * m), std_error=float(p * e), nsamples=nsamples, label=k)
        for p, m, e, k in zip(phis, mean, se, kinds)
    ]
    return ests[0] if isinstance(kind, str) else ests


def two_point_correlation(
    model: CovarianceModel, r, pair=("c", "c"), nsamples: int = 10**5, seed=0
):
    """2-point correlation function K2 of typed critical points.

    Parameters
    ----------
    model : CovarianceModel
    r : float or 1-D array of float
        Mutual distance between the two points (probes sit at
        +-(r/2, 0); by isotropy the axis is arbitrary), or several
        distances.  The laws of an array come from one batched
        _pair_conditional call, and every distance reads one stream of
        draws from seeded_rng(seed): the estimates are correlated
        across distances, and each keeps the value's law and the SE of
        its own call.  Each has the bits of the one-distance call with
        the same seed.
    pair : (tag, tag) or str
        Type constraint per position, tags in {c, e, s}; a string is
        split by theory.pair_tags ("e,s", "extremum saddle", "es").
        (e, s) and (s, e) agree in law but not draw by draw.
    nsamples : int
        Conditional Monte-Carlo budget per distance, counting each
        draw twice (module notes): ceil(nsamples / 2) independent draws
        are sampled, and the standard error is taken over them, so
        nsamples must be at least 3.

    Returns
    -------
    One MomentEstimate for one distance, a list of them, in the order
    of r, for an array.

    Raises
    ------
    ValueError
        If pair is not two of the tags c, e, s (min and max are
        one-point), or a distance is not finite and positive.
    DegeneracyError
        If a distance is below R_FLOOR_FRACTION correlation lengths,
        where the gradient-pair covariance is numerically rank
        deficient, or a pair law is not positive semidefinite.  Every
        distance is checked before the first draw.
    """
    kinds = pair_tags(pair)
    ndraws = _draws(nsamples)
    dists = np.asarray(r, dtype=float)
    if dists.ndim > 1 or dists.size == 0:
        raise ValueError(f"r must be one distance or a 1-D array of them, got shape {dists.shape}")
    for dist in dists.flat:
        _require_finite_positive("r", dist)
    floor = R_FLOOR_FRACTION * correlation_length(model)
    for dist in dists.flat:
        if not dist >= floor:
            raise DegeneracyError(
                f"r = {float(dist)} is below the numerical-rank floor {floor:.3e} "
                f"({R_FLOOR_FRACTION} correlation lengths)"
            )
    cond_cov, phi = _pair_conditional(model, dists)
    value, se = _k2_from_law(cond_cov, phi, dists, kinds, ndraws, seed)
    label = f"({kinds[0]},{kinds[1]})"
    ests = [
        MomentEstimate(value=float(v), std_error=float(e), nsamples=nsamples, rho=float(d),
                       label=label)
        for v, e, d in zip(value, se, dists.reshape(-1))
    ]
    return ests[0] if dists.ndim == 0 else ests


def _k2_from_law(cond_cov, phi, r, kinds, ndraws: int, seed):
    """K2 and its SE, arrays of k, at the k distances r from the pair
    laws (cond_cov, phi) of _pair_conditional, over ndraws draws of one
    stream; one distance is a stack of one.

    The laws' factors are folded (ConditionalGaussian, half = r / 2), so
    each block's rows are the two Hessians, and the integrand is
    _typed_product of kinds at every distance: the signed parts of det1
    and det2 for the two tags, formed in place, and their product.
    """
    law = ConditionalGaussian(cond_cov, half=np.atleast_1d(r) / 2.0)
    mean, se = _mc_mean(law, _typed_product([kinds] * len(law.half)), ndraws, seed)
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
    """One quadrature node: (cond_cov, phi, r, kinds, ndraws, seed) to (K2, SE)."""
    (value,), (se,) = _k2_from_law(*args)
    return value, se


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
    depend on scheduling.  A radius whose (pi rho^2)^2 overflows a
    double raises OverflowError naming it, before any node law is built.
    """
    _require_finite_positive("rho", rho)
    area2 = ball_area_squared(rho)  # fails before any node law is built
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

    ndraws = _draws(nsamples_per_node)
    conds, phis = _pair_conditional(model, u_all)
    tasks = [
        (cond, float(phi), float(u), kinds, ndraws, (seed, i))
        for i, (cond, phi, u) in enumerate(zip(conds, phis, u_all))
    ]
    k2 = np.array(_run_tasks(_k2_node, tasks, threads))
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
