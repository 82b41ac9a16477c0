"""Spectral Monte-Carlo simulation of isotropic Gaussian fields.

A realization is a finite superposition of plane waves

    psi(x) = shift + sum_j r_j cos(lam_j . x + phi_j)

with frequencies lam_j drawn iid from the normalized continuous part of
the model's spectral measure and a separate constant Gaussian term for
a spectral atom at the origin (shifted random waves).  Every partial
derivative of psi up to order 4 is again an explicit superposition --
each derivative multiplies a term by a frequency component and rotates
cosine into sine -- so no numerical differentiation happens anywhere.

Two amplitude conventions are available:

  * random-phase (default): r_j = sqrt(2 sigma_c / M) fixed, phi_j
    uniform.  Exactly stationary with exact spectral support, but only
    asymptotically Gaussian as the number of terms M grows.
  * gaussian_amplitudes=True: each term carries independent N(0,
    sigma_c/M) cosine and sine coefficients, folded into (r_j, phi_j).
    The field is then exactly Gaussian for any M, conditional on the
    drawn frequencies; its covariance is the transform of the empirical
    frequency measure.  Estimators that rely on Gaussianity use this
    variant.

Here sigma_c is the mass of the continuous spectral part, so the total
variance shift^2-part + sum r_j^2/2 matches sigma(0) in expectation.

The module also holds what the simulation and Kac-Rice layers share:
the (master, index) seed derivation, the worker pool built on it, and
the MomentEstimate record every estimator returns.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .models import MAX_DERIVATIVE_ORDER, CovarianceModel

__all__ = [
    "MomentEstimate",
    "FieldRealization",
    "seed_entropy",
    "seeded_rng",
    "sample_field",
    "eval_derivative",
    "eval_many",
    "eval_grid",
    "eval_gradient",
    "eval_hessian",
    "empirical_derivative_variances",
]


def seed_entropy(seed) -> tuple:
    """Flatten an int or nested tuple seed into SeedSequence entropy.

    Derived streams are spelled (master, index) throughout the package;
    flattening keeps that composition legal when the master seed is
    itself such a tuple.
    """
    if isinstance(seed, (tuple, list)):
        flat = []
        for part in seed:
            flat.extend(seed_entropy(part))
        return tuple(flat)
    return (int(seed),)


def seeded_rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(seed)))


def _run_tasks(fn, tasks, threads: int = 1):
    """Map fn over tasks, optionally in worker processes; order preserved.

    Each task carries its own derived (seed, i) stream, so the results do
    not depend on threads.
    """
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * threads))))


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
class FieldRealization:
    """One sampled field: frequencies, phases, per-term amplitudes, atom shift.

    Fully determined by (model, M, seed, amplitude convention); sampling
    the same triple twice gives bit-identical realizations.  Instances
    are immutable and safe to evaluate concurrently.
    """

    frequencies: np.ndarray  # (M, 2)
    phases: np.ndarray  # (M,)
    amplitudes: np.ndarray  # (M,)
    shift: float  # constant Gaussian atom contribution
    model: CovarianceModel | None = None
    seed: object = None
    gaussian_amplitudes: bool = field(default=False, compare=False)
    # Per-term weights of each multi-index, filled by _term_weights; the
    # values depend only on the fields above, so sharing stays safe.
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nterms(self) -> int:
        return self.frequencies.shape[0]


def sample_field(
    model: CovarianceModel,
    M: int = 1024,
    seed=0,
    gaussian_amplitudes: bool = False,
) -> FieldRealization:
    """Draw one field realization with M spectral terms.

    Parameters
    ----------
    model : CovarianceModel
    M : int
        Number of plane-wave terms; covariance bias of the random-phase
        variant is O(1/sqrt(M)).
    seed : int or tuple of ints
        Entropy for the realization; tuples support hierarchical
        (master seed, replicate index) derivation whose result does not
        depend on scheduling.
    gaussian_amplitudes : bool
        Use the exactly-Gaussian amplitude convention (see module docs).
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    rng = seeded_rng(seed)
    freqs = model.sample_frequencies(rng, M)
    atom = model.atom_mass()
    sigma_c = model.total_mass() - atom
    shift = math.sqrt(atom) * rng.standard_normal() if atom > 0.0 else 0.0
    if gaussian_amplitudes:
        coef = rng.standard_normal((M, 2)) * math.sqrt(sigma_c / M)
        amplitudes = np.hypot(coef[:, 0], coef[:, 1])
        phases = np.arctan2(-coef[:, 1], coef[:, 0])
    else:
        amplitudes = np.full(M, math.sqrt(2.0 * sigma_c / M))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=M)
    return FieldRealization(
        frequencies=freqs,
        phases=phases,
        amplitudes=amplitudes,
        shift=float(shift),
        model=model,
        seed=seed,
        gaussian_amplitudes=gaussian_amplitudes,
    )


def eval_derivative(f: FieldRealization, x, alpha=(0, 0)):
    """Evaluate d^alpha psi at one point or an array of points.

    A one-column eval_many; see there for how derivatives are taken.

    Parameters
    ----------
    f : FieldRealization
    x : array-like, shape (2,) or (..., 2)
    alpha : multi-index (order in x1, order in x2), total order <= 4

    Returns
    -------
    float or ndarray matching the leading shape of x.
    """
    x = np.asarray(x, dtype=float)
    out = eval_many(f, x.reshape(-1, 2), [alpha])[:, 0]
    if x.ndim == 1:
        return float(out[0])
    return out.reshape(x.shape[:-1])


def eval_many(f: FieldRealization, x, alphas) -> np.ndarray:
    """Evaluate several derivatives at once, sharing the phase matrix.

    Each cosine term differentiates exactly: order n in a coordinate
    multiplies by that frequency component n times and applies the
    n-th derivative of the cosine, taken from the 4-cycle
    {cos, -sin, -cos, sin} so signs stay exact.  The N x M argument
    matrix and its sine/cosine are computed once and reused across all
    requested multi-indices, which is what makes the Newton refinement
    in the finder cheap.

    Returns shape (N, len(alphas)) for x of shape (N, 2).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    arg = pts @ f.frequencies.T + f.phases  # (N, M)
    cos = sin = None
    out = np.empty((pts.shape[0], len(alphas)))
    for col, alpha in enumerate(alphas):
        weights, order = _term_weights(f, alpha)
        k = order % 4
        if k in (0, 2):
            if cos is None:
                cos = np.cos(arg)
            osc, sign = cos, (1.0 if k == 0 else -1.0)
        else:
            if sin is None:
                sin = np.sin(arg)
            osc, sign = sin, (-1.0 if k == 1 else 1.0)
        col_val = osc @ (sign * weights)
        if order == 0:
            col_val = col_val + f.shift
        out[:, col] = col_val
    return out


def _term_weights(f: FieldRealization, alpha) -> tuple[np.ndarray, int]:
    """Per-term factor r_j lam_j1^a1 lam_j2^a2 of d^alpha, and the order a1 + a2.

    Computed once per realization and multi-index.
    """
    a1, a2 = int(alpha[0]), int(alpha[1])
    order = a1 + a2
    weights = f._weights.get((a1, a2))
    if weights is None:
        if a1 < 0 or a2 < 0 or order > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"multi-index {alpha} exceeds total order {MAX_DERIVATIVE_ORDER}")
        weights = f.amplitudes
        if order:
            weights = weights * f.frequencies[:, 0] ** a1 * f.frequencies[:, 1] ** a2
        f._weights[a1, a2] = weights
    return weights, order


def eval_grid(f: FieldRealization, xs, ys, alphas) -> np.ndarray:
    """Evaluate several derivatives on the tensor grid xs x ys.

    A plane wave separates over the coordinates: with a = lam1 xs + phi
    and b = lam2 ys,

        r cos(a + b) = r cos a cos b - r sin a sin b,

    and d^alpha multiplies it by lam1^a1 lam2^a2 and turns cos into its
    n-th derivative, n = a1 + a2: +-cos(a + b) for even n, -+sin(a + b) =
    -+(sin a cos b + cos a sin b) for odd n.  So with C1, S1 = cos, sin a
    (len(xs) x M), C2, S2 = cos, sin b (M x len(ys)) and w the per-term
    factor of eval_many,

        d^alpha psi = +-[C1 w, -S1 w] @ [C2; S2]   (n even, + for n = 0 mod 4)
        d^alpha psi = -+[S1 w,  C1 w] @ [C2; S2]   (n odd, - for n = 1 mod 4),

    one real matmul of inner size 2M per multi-index on
    2 (len(xs) + len(ys)) M trig values, instead of len(xs) len(ys) M
    trig calls.  Agrees with eval_many to rounding.

    Returns shape (len(xs), len(ys), len(alphas)); entry [a, b] is the
    point (xs[a], ys[b]), so reshape(-1, len(alphas)) lists the points in
    meshgrid(xs, ys, indexing="ij") order.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    M = f.nterms
    # The result goes first, below the temporaries, so that freeing them
    # lets the heap shrink back instead of growing the process's peak.
    out = np.empty((xs.size, ys.size, len(alphas)))
    c1 = np.outer(xs, f.frequencies[:, 0])
    c1 += f.phases
    s1 = np.sin(c1)
    np.cos(c1, out=c1)
    right = np.empty((2 * M, ys.size))  # [C2; S2]
    np.outer(f.frequencies[:, 1], ys, out=right[M:])
    np.cos(right[M:], out=right[:M])
    np.sin(right[M:], out=right[M:])
    left = np.empty((xs.size, 2 * M))
    for col, alpha in enumerate(alphas):
        weights, order = _term_weights(f, alpha)
        # The sign of d^n cos / d theta^n, n mod 4 = 0, 1, 2, 3.
        w = (1.0, -1.0, -1.0, 1.0)[order % 4] * weights
        if order % 2 == 0:
            np.multiply(c1, w, out=left[:, :M])
            np.multiply(s1, -w, out=left[:, M:])
        else:
            np.multiply(s1, w, out=left[:, :M])
            np.multiply(c1, w, out=left[:, M:])
        val = left @ right
        if order == 0:
            val += f.shift
        out[:, :, col] = val
    return out


def eval_gradient(f: FieldRealization, x) -> np.ndarray:
    """Gradient of psi; shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    out = eval_many(f, x.reshape(-1, 2), [(1, 0), (0, 1)])
    return out.reshape(x.shape[:-1] + (2,)) if x.ndim > 1 else out[0]


def eval_hessian(f: FieldRealization, x) -> np.ndarray:
    """Hessian of psi; shape (..., 2, 2), symmetric."""
    x = np.asarray(x, dtype=float)
    h11, h12, h22 = eval_many(f, x.reshape(-1, 2), [(2, 0), (1, 1), (0, 2)]).T
    hess = np.stack(
        [np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2
    )
    return hess.reshape(x.shape[:-1] + (2, 2)) if x.ndim > 1 else hess[0]


def empirical_derivative_variances(
    model: CovarianceModel,
    M: int = 1024,
    nsamples: int = 2000,
    seed=0,
    max_order: int = 3,
) -> dict:
    """Sample variances of d^alpha psi(0) across independent realizations.

    Returns a map {alpha: (variance, standard error)} for all
    multi-indices of total order <= max_order, using the exactly-
    Gaussian amplitude convention so the estimates target the model
    covariance without small-M non-Gaussianity bias.
    """
    if nsamples < 2:
        raise ValueError(f"nsamples must be at least 2, got {nsamples}")
    alphas = [
        (a1, a2)
        for order in range(max_order + 1)
        for a1 in range(order + 1)
        for a2 in [order - a1]
    ]
    origin = np.zeros(2)
    values = np.empty((nsamples, len(alphas)))
    for i in range(nsamples):
        f = sample_field(model, M=M, seed=(seed, i), gaussian_amplitudes=True)
        values[i] = eval_many(f, origin, alphas)[0]
    out = {}
    for j, alpha in enumerate(alphas):
        v = values[:, j]
        var = float(np.var(v, ddof=1))
        # SE of a sample variance: sqrt((m4 - m2^2 (n-3)/(n-1)) / n).
        m2 = np.mean((v - v.mean()) ** 2)
        m4 = np.mean((v - v.mean()) ** 4)
        se = math.sqrt(max(m4 - m2**2 * (nsamples - 3) / (nsamples - 1), 0.0) / nsamples)
        out[alpha] = (var, se)
    return out
