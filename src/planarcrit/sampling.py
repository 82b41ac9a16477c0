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
    "field_terms",
    "eval_many",
    "eval_grid",
    "sign_grid",
    "eval_gradient",
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

    The pool gets min(threads, len(tasks)) workers, since a forked pool
    starts all of them at its first task whether or not each gets one;
    with one worker the tasks run in this process.  Each task carries its
    own derived (seed, i) stream, so the results do not depend on threads.
    """
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # Imported here: the pool machinery costs a fresh CLI process time
    # that single-process runs never use.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte-Carlo or quadrature estimate with its uncertainty.

    nsamples counts realizations for the empirical estimators.  For the
    conditional Kac-Rice engines it is the budget, which counts each
    draw twice, as x and its mirror -x (their integrands are even): the
    independent replications there are ceil(nsamples/2) draws, for
    every estimator, and the standard error is taken over them.
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

    Fully determined by (model, M, seed, amplitude convention, window);
    sampling the same arguments twice gives bit-identical realizations.
    Instances are immutable and safe to evaluate concurrently.
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
    window=None,
) -> FieldRealization:
    """Draw one field realization with at most M spectral terms.

    Parameters
    ----------
    model : CovarianceModel
    M : int
        Number of plane-wave terms of iid frequencies; covariance bias of
        the random-phase variant is O(1/sqrt(M)).  The ring design takes
        at most M terms.
    seed : int or tuple of ints
        Entropy for the realization; tuples support hierarchical
        (master seed, replicate index) derivation whose result does not
        depend on scheduling.
    gaussian_amplitudes : bool
        Use the exactly-Gaussian amplitude convention (see module docs).
    window : ((xmin, xmax), (ymin, ymax)) or None
        The window the field will be read on.  With Gaussian amplitudes
        and a model whose continuous spectral part is one circle, the
        field is the ring design (module docs) with field_terms(model, M,
        window) terms, exact on the window; otherwise it is not read.

    The draws come from the seed's one stream in a fixed order: the
    frequencies (M iid ones, or the ring's one offset theta0), then the
    atom's Gaussian shift when the model has an atom, then the (M, 2)
    Gaussian coefficients or the M random phases.
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    rng = seeded_rng(seed)
    ring = _ring_terms(model, M, window) if gaussian_amplitudes else None
    if ring is None:
        freqs = model.sample_frequencies(rng, M)
    else:
        M = ring
        freqs = model.sample_ring(rng, M)
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


def field_terms(model: CovarianceModel, M: int, window=None) -> int:
    """The number of terms of sample_field(model, M, seed, True, window), for every seed."""
    ring = _ring_terms(model, M, window)
    return M if ring is None else ring


def _ring_terms(model: CovarianceModel, M: int, window) -> int | None:
    """min(M, n) for the ring design of model that is exact on window, or None
    when the model has no ring design or no window is given."""
    if window is None:
        return None
    (xmin, xmax), (ymin, ymax) = window
    n = model.ring_terms(math.hypot(xmax - xmin, ymax - ymin))
    return None if n is None else min(M, n)


def eval_many(f: FieldRealization, x, alphas) -> np.ndarray:
    """Evaluate several derivatives at once, sharing the phase matrix.

    Each cosine term differentiates exactly: d^alpha of the sum is the
    cosines (even order) or the sines (odd order) of the arguments
    times the signed per-term weights of _term_weights, so signs stay
    exact.  The N x M argument matrix and its sine/cosine are computed
    once and reused across all requested multi-indices, which is what
    makes the Newton refinement in the finder cheap.  The arrays are
    allocated like any numpy expression; the thread's workspace
    (_scratch) is left alone.

    Returns shape (N, len(alphas)) for x of shape (N, 2).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    arg = pts @ f.frequencies.T
    arg += f.phases
    out = np.empty((pts.shape[0], len(alphas)))
    osc: dict = {}
    for col, alpha in enumerate(alphas):
        weights, order = _term_weights(f, alpha)
        odd = order % 2
        if odd not in osc:
            osc[odd] = np.sin(arg) if odd else np.cos(arg)
        col_val = osc[odd] @ weights
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
    """Evaluate several derivatives of f on the tensor grid xaxis x yaxis.

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

    The axis tables C + i S come from angle addition (_axis_trig): with
    B = floor(sqrt(n)), only ceil(n / B) + B rows of arguments go through
    cos and sin (29 of 207 on the finder's grid of a 20 x 20 window at the
    default step), and every other entry is one complex product of a
    coarse and a fine entry.  So an entry is off by a few ulp of 1 on top
    of the |lam x| eps rounding of its coarse argument, which eval_many
    shares at x, and the grid agrees with eval_many to a few ulp of the
    amplitude sum sum_j |w_j|.

    The tables and the matmul operand [C1 w, +-S1 w] live in a workspace
    private to the calling thread (_scratch), and nothing in it outlives
    the call that wrote it.  The operand's buffer holds, call by call,
    this operand or sign_grid's two single-precision operands.  It grows
    to the largest grid the thread has evaluated and is reused as prefix
    views, so it keeps one grid's tables and operand, about 2.5 MB at
    M = 256 on a 20 x 20 window at the default step (2.7 MB with
    sign_grid's single-precision result), and a call allocates only its
    result and the coarse and fine trig rows of each axis.  Each matmul
    writes straight into the result, which never shares memory with the
    workspace.

    Returns shape (nx, ny, len(alphas)); entry [a, b] is the point
    (x_a, y_b), so reshape(-1, len(alphas)) lists the points in
    meshgrid(xs, ys, indexing="ij") order.  The array is a view of one
    (len(alphas), nx, ny) block, so each derivative's grid is contiguous.
    """
    M = f.nterms
    e1, e2 = _axis_tables(f, xaxis, yaxis)  # C1 + i S1, C2 + i S2
    nx, ny = len(e1), len(e2)
    out = np.empty((len(alphas), nx, ny))
    right = e2.view(float).T  # C2, S2 rows in turn
    left = _scratch("work", nx * M * 2, float).reshape(nx, M, 2)
    for col, alpha in enumerate(alphas):
        w, order = _term_weights(f, alpha)
        _left_operand(e1, w, order, left)
        np.matmul(left.reshape(nx, 2 * M), right, out=out[col])
        if order == 0:
            out[col] += f.shift
    return out.transpose(1, 2, 0)


def _axis_tables(f: FieldRealization, xaxis, yaxis) -> tuple[np.ndarray, np.ndarray]:
    """exp(i (lam1 x_a + phi)) (nx x M) and exp(i lam2 y_b) (ny x M) on the
    axes xaxis and yaxis, each (start, step, count); views of the thread's
    workspace (_axis_trig)."""
    return (_axis_trig(f.frequencies[:, 0], f.phases, *xaxis, "x"),
            _axis_trig(f.frequencies[:, 1], 0.0, *yaxis, "y"))


def _left_operand(e1: np.ndarray, w: np.ndarray, order: int, out: np.ndarray) -> None:
    """eval_grid's left operand [C1 w, -S1 w] (order even) or [S1 w, C1 w] (odd).

    e1 = C1 + i S1 holds rows of the x-axis table, and out has shape
    (rows, M, 2).  Each entry is one double product; a single-precision
    out rounds it once more.
    """
    if order % 2 == 0:
        np.multiply(e1.real, w, out=out[..., 0])
        np.multiply(e1.imag, -w, out=out[..., 1])
    else:
        np.multiply(e1.imag, w, out=out[..., 0])
        np.multiply(e1.real, w, out=out[..., 1])


# Unit roundoff of single precision, and the underflow allowance per
# product of a single-precision dot product (sign_grid).
_U32 = 2.0**-24
_TINY32 = 2.0**-123


def sign_grid(f: FieldRealization, xaxis, yaxis, alphas) -> tuple[np.ndarray, np.ndarray]:
    """eval_grid(f, xaxis, yaxis, alphas) from one sgemm each, and its rounding bound.

    Returns (grid, bound): every entry of grid[..., col] lies within
    bound[col] of the exact sum that eval_grid's double matmul rounds,
    so an entry beyond the bound in modulus has the exact sum's sign and
    any other entry is undecided (finder._candidate_cells lets it count
    as either sign).  The operands are eval_grid's, l (nx x 2M) and
    r (2M x ny), divided by W = 2^floor(log2 max_j |w_j|) and rounded to
    single precision, and one single-precision matmul per multi-index
    sums them; the result is multiplied by W, plus f.shift at order 0,
    both in double.  A power of two keeps RandomWave(2^m) equal to
    RandomWave(1) bit for bit, and keeps single precision clear of
    overflow.

    The bound (Higham 2002, Accuracy and Stability of Numerical
    Algorithms, section 3.1): a dot product of n terms summed in any
    order, with or without fused multiply-adds, is within gamma_n
    sum_k |a_k b_k| of the exact one, gamma_n = n u / (1 - n u), here
    with u = 2^-24.  Rounding both operands first makes it gamma_{n+2},
    with n = 2M.  Per plane wave, |S1 C2| + |C1 S2| and |C1 C2| + |S1 S2|
    are at most |e1| |e2|, which is 1 up to a few ulp, so
    sum_k |l_k r_k| / W <= (1 + 1e-12) sum_j |w_j| / W; the factor also
    covers the double products in l and the rounding of the bound.
    Underflow adds at most 2^-123 per product, which holds also for a
    BLAS that flushes subnormals to zero.  So

        bound = gamma_{2M+2} (1 + 1e-12) sum_j |w_j| + 2M 2^-123 W,

    of shape (len(alphas),).  About 17 of 42 849 nodes per derivative lie
    within it on the finder's grid of RandomWave(1), M = 256, 20 x 20
    window, and 148 at M = 1024.

    The call builds eval_grid's axis tables in the thread's workspace
    (_scratch).  Both single-precision operands live in eval_grid's
    buffer there, which holds them when ny <= nx (and grows to hold them
    otherwise), and the single-precision matmul result has a buffer of
    its own.  So a repeat call allocates only its result and the trig
    rows of the tables.  The grid has eval_grid's shape and order and
    never shares memory with the workspace.
    """
    M = f.nterms
    e1, e2 = _axis_tables(f, xaxis, yaxis)
    nx, ny = len(e1), len(e2)
    out = np.empty((len(alphas), nx, ny))
    bound = np.empty(len(alphas))
    # eval_grid's double buffer holds the right operand and then the left
    # one in single precision.
    work = _scratch("work", M * max(2 * nx, nx + ny), float)
    right = work[:ny * M].view(np.float32).reshape(ny, 2 * M)
    left = work[ny * M:(ny + nx) * M].view(np.float32).reshape(nx, M, 2)
    np.copyto(right, e2.view(float))
    single = _scratch("single", nx * ny, np.float32).reshape(nx, ny)
    n = 2 * M + 2
    gamma = n * _U32 / (1.0 - n * _U32) if n * _U32 < 1.0 else math.inf
    for col, alpha in enumerate(alphas):
        w, order = _term_weights(f, alpha)
        size = np.abs(w)
        scale = math.ldexp(1.0, math.frexp(float(size.max()))[1] - 1)
        _left_operand(e1, w / scale, order, left)
        np.matmul(left.reshape(nx, 2 * M), right.T, out=single)
        # A float64 scalar, so that the product is formed in double: a
        # Python float would keep it in single precision, where W can overflow.
        np.multiply(single, np.float64(scale), out=out[col])
        if order == 0:
            out[col] += f.shift
        bound[col] = gamma * (1.0 + 1e-12) * float(size.sum()) + 2 * M * _TINY32 * scale
    return out.transpose(1, 2, 0), bound


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
