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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import MAX_DERIVATIVE_ORDER, CovarianceModel

__all__ = [
    "FieldRealization",
    "seed_entropy",
    "seeded_rng",
    "sample_field",
    "eval_derivative",
    "eval_many",
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
        a1, a2 = int(alpha[0]), int(alpha[1])
        order = a1 + a2
        if a1 < 0 or a2 < 0 or order > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"multi-index {alpha} exceeds total order {MAX_DERIVATIVE_ORDER}")
        weights = f.amplitudes
        if order:
            weights = weights * f.frequencies[:, 0] ** a1 * f.frequencies[:, 1] ** a2
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
