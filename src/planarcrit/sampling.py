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
import threading
from dataclasses import dataclass, field

import numpy as np

from .models import MAX_DERIVATIVE_ORDER, CovarianceModel

__all__ = [
    "MomentEstimate",
    "FieldRealization",
    "seed_entropy",
    "seeded_rng",
    "sample_field",
    "eval_many",
    "eval_grid",
    "eval_gradient",
    "eval_hessian",
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
    # Imported here: the pool machinery costs a fresh CLI process time
    # that single-process runs never use.
    from concurrent.futures import ProcessPoolExecutor

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


def eval_many(f: FieldRealization, x, alphas) -> np.ndarray:
    """Evaluate several derivatives at once, sharing the phase matrix.

    Each cosine term differentiates exactly: d^alpha of the sum is the
    cosines (even order) or the sines (odd order) of the arguments
    times the signed per-term weights of _term_weights, so signs stay
    exact.  The N x M argument matrix and its sine/cosine are computed
    once and reused across all requested multi-indices, which is what
    makes the Newton refinement in the finder cheap.

    Returns shape (N, len(alphas)) for x of shape (N, 2).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    arg = pts @ f.frequencies.T + f.phases  # (N, M)
    cos = sin = None
    out = np.empty((pts.shape[0], len(alphas)))
    for col, alpha in enumerate(alphas):
        weights, order = _term_weights(f, alpha)
        if order % 2 == 0:
            if cos is None:
                cos = np.cos(arg)
            osc = cos
        else:
            if sin is None:
                sin = np.sin(arg)
            osc = sin
        col_val = osc @ weights
        if order == 0:
            col_val = col_val + f.shift
        out[:, col] = col_val
    return out


def _term_weights(f: FieldRealization, alpha) -> tuple[np.ndarray, int]:
    """Signed per-term factor s_n r_j lam_j1^a1 lam_j2^a2 of d^alpha, and n = a1 + a2.

    d^n cos / d theta^n runs through cos, -sin, -cos, sin, so
    d^alpha r_j cos(theta_j) is this factor times cos(theta_j) for even n
    and sin(theta_j) for odd n, with s_n = 1, -1, -1, 1 for n mod 4 = 0,
    1, 2, 3.  Computed once per realization and multi-index.
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
        if order % 4 in (1, 2):
            weights = -weights
        f._weights[a1, a2] = weights
    return weights, order


def eval_grid(f: FieldRealization, xaxis, yaxis, alphas) -> np.ndarray:
    """Evaluate several derivatives on a uniform tensor grid.

    Each axis is (start, step, count): the nx points x_a = start + a step
    of xaxis, the ny points y_b of yaxis.  A plane wave separates over the
    coordinates: with a = lam1 x + phi and b = lam2 y,

        r cos(a + b) = r cos a cos b - r sin a sin b,

    and d^alpha multiplies it by lam1^a1 lam2^a2 and turns cos into its
    n-th derivative, n = a1 + a2: +-cos(a + b) for even n, -+sin(a + b) =
    -+(sin a cos b + cos a sin b) for odd n.  So with C1, S1 = cos, sin a
    (nx x M), C2, S2 = cos, sin b (M x ny) and w the signed per-term
    factor of _term_weights, which carries the +-,

        d^alpha psi = [C1 w, -S1 w] @ [C2; S2]   (n even)
        d^alpha psi = [S1 w,  C1 w] @ [C2; S2]   (n odd),

    one real matmul of inner size 2M per multi-index (the code orders the
    inner index term by term, cos then sin).

    The tables C + i S of an axis of n points come from angle addition
    (_axis_trig): with B = floor(sqrt(n)), only ceil(n / B) + B rows of
    arguments go through cos and sin (29 of 207 on the finder's grid of
    a 20 x 20 window at the default step), and every other entry is one complex product of a coarse and
    a fine entry.  That product is off by a few ulp of 1, so the grid is
    off by a few ulp of the amplitude sum sum_j |w_j|, on top of the
    |lam x| eps rounding of the argument that eval_many shares; the two
    agree to rounding.

    The tables and the matmul operand [C1 w, +-S1 w] live in a workspace
    private to the calling thread (_scratch).  It grows to the largest
    grid the thread has evaluated and is reused as prefix views, so it
    keeps one grid's tables and operand, about 2.5 MB at M = 256 on a
    20 x 20 window at the default step, and a call allocates only its
    result and the ceil(n / B) + B trig rows of each axis.  Each matmul
    writes straight into the result, which never shares memory with the
    workspace.

    Returns shape (nx, ny, len(alphas)); entry [a, b] is the point
    (x_a, y_b), so reshape(-1, len(alphas)) lists the points in
    meshgrid(xs, ys, indexing="ij") order.  The array is a view of one
    (len(alphas), nx, ny) block, so each derivative's grid is contiguous.
    """
    M = f.nterms
    nx, ny = int(xaxis[2]), int(yaxis[2])
    out = np.empty((len(alphas), nx, ny))
    e1 = _axis_trig(f.frequencies[:, 0], f.phases, *xaxis, "x")  # C1 + i S1
    right = _axis_trig(f.frequencies[:, 1], 0.0, *yaxis, "y").view(float).T  # C2, S2 rows in turn
    left = _scratch("left", nx * M * 2, float).reshape(nx, M, 2)
    for col, alpha in enumerate(alphas):
        w, order = _term_weights(f, alpha)
        if order % 2 == 0:
            np.multiply(e1.real, w, out=left[..., 0])
            np.multiply(e1.imag, -w, out=left[..., 1])
        else:
            np.multiply(e1.imag, w, out=left[..., 0])
            np.multiply(e1.real, w, out=left[..., 1])
        np.matmul(left.reshape(nx, 2 * M), right, out=out[col])
        if order == 0:
            out[col] += f.shift
    return out.transpose(1, 2, 0)


_workspace = threading.local()


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    """The first size entries of this thread's buffer name, a 1-d array.

    A buffer is replaced only by a larger one, so grids of alternating
    sizes reuse it without returning memory to the system in between.
    """
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        setattr(_workspace, name, buf)
    return buf[:size]


def _axis_trig(lam: np.ndarray, phase, start: float, step: float, count: int,
               name: str) -> np.ndarray:
    """exp(i (lam (start + k step) + phase)) for k < count; shape (count, M).

    Angle addition: with k = q B + p, B = floor(sqrt(count)), the angle is
    theta_q + delta_p, theta_q = lam (start + q B step) + phase and
    delta_p = lam p step.  Only the ceil(count / B) + B rows of theta and
    delta go through exp(i .), that is cos and sin; each row k is then one
    complex product, four multiplications and two additions per entry.
    The table is a view of the thread's workspace buffer name (_scratch),
    valid until the next call that uses that buffer.
    """
    count = int(count)
    B = max(1, math.isqrt(count))
    Q = -(-count // B)
    coarse = np.exp(1j * (np.outer(start + step * (B * np.arange(Q)), lam) + phase))
    fine = np.exp(1j * np.outer(step * np.arange(B), lam))
    table = _scratch(name, Q * B * lam.size, complex).reshape(Q, B, lam.size)
    # Row by row: numpy runs a product broadcast over both axes through
    # its buffered iterator, which takes longer and allocates its buffers.
    for q in range(Q):
        np.multiply(coarse[q], fine, out=table[q])
    return table.reshape(Q * B, lam.size)[:count]


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
