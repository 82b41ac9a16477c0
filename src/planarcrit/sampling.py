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
    "GridTables",
    "grid_tables",
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


@dataclass(frozen=True, eq=False)
class GridTables:
    """exp(i (lam1 x_a + phi)) and exp(i lam2 y_b) at the nodes of a tensor grid.

    E1 = e1 (nx x M) and E2 = e2 (ny x M) for the axes xaxis and yaxis,
    each (start, step, count), of realization field, built by
    grid_tables.  eval_grid reads them as C1 + i S1 and C2 + i S2 to
    evaluate field on that grid, and sign_grid to evaluate it in single
    precision within a rounding bound it returns; eval_many reads them to
    evaluate points near the grid without the cos and sin of their full
    arguments.

    The tables come from angle addition (_axis_trig): with
    B = floor(sqrt(n)), only ceil(n / B) + B rows of arguments go through
    cos and sin (29 of 207 on the finder's grid of a 20 x 20 window at
    the default step), and every other entry is one complex product of a
    coarse and a fine entry.  So an entry is off by a few ulp of 1 on top
    of the |lam x| eps rounding of its coarse argument, the rounding that
    the direct eval_many has at x.  eval_many's anchored form adds two
    complex products and the |lam . d| eps rounding of the offset angle,
    so it stays within a few ulp of the amplitude sum sum_j |w_j| of
    the direct form (tests/test_sampling.py checks 32).

    Lifetime: the tables are views of the calling thread's workspace
    (_scratch), valid until the thread's next grid_tables call.  They
    belong to one realization.  Using them after that call, in another
    thread or with another realization raises ValueError; nothing is
    cached on the realization.
    """

    field: FieldRealization
    xaxis: tuple
    yaxis: tuple
    e1: np.ndarray
    e2: np.ndarray
    stamp: int


def grid_tables(f: FieldRealization, xaxis, yaxis) -> GridTables:
    """The GridTables of f on the grid xaxis x yaxis, each (start, step, count)."""
    xaxis, yaxis = _axis(xaxis), _axis(yaxis)
    stamp = getattr(_workspace, "stamp", 0) + 1
    _workspace.stamp = stamp
    e1 = _axis_trig(f.frequencies[:, 0], f.phases, *xaxis, "x")
    e2 = _axis_trig(f.frequencies[:, 1], 0.0, *yaxis, "y")
    return GridTables(f, xaxis, yaxis, e1, e2, stamp)


def _axis(axis) -> tuple:
    start, step, count = axis
    return float(start), float(step), int(count)


def _check_tables(tables: GridTables, f: FieldRealization) -> None:
    """Refuse tables of another realization or whose workspace was reused."""
    if tables.field is not f:
        raise ValueError("grid tables of another realization")
    if tables.stamp != getattr(_workspace, "stamp", None):
        raise ValueError("grid tables outlived their workspace: the thread built others since")


def eval_many(f: FieldRealization, x, alphas, tables: GridTables | None = None) -> np.ndarray:
    """Evaluate several derivatives at once, sharing the phase matrix.

    Each cosine term differentiates exactly: d^alpha of the sum is the
    cosines (even order) or the sines (odd order) of the arguments
    times the signed per-term weights of _term_weights, so signs stay
    exact.  The N x M argument matrix and its sine/cosine are computed
    once and reused across all requested multi-indices, which is what
    makes the Newton refinement in the finder cheap.

    Given the GridTables of a grid (grid_tables), the cosines and sines
    come from the tables instead, by angle addition at each point's
    nearest grid node (_anchored): only the small offset angle lam . d
    goes through cos and sin, which costs a fifth of a large argument's.
    A point beyond the grid anchors at the nearest edge node; its offset
    is then larger, and so are the cost and rounding of its cos and sin,
    but the value stays exact to rounding.  The two forms agree to a few
    ulp of the amplitude sum sum_j |w_j| (a bound in the GridTables
    docstring).  Without tables the result is the direct form's.

    The direct form allocates its argument matrix and the cosines and
    sines of it like any numpy expression and leaves the thread's workspace
    alone, so grid tables built before it stay valid.  It is the
    reference the anchored form is tested against, and what
    eval_gradient calls.  The anchored form keeps its blocks in the
    buffer of eval_grid's matmul operand and never grows it past that
    operand.

    Returns shape (N, len(alphas)) for x of shape (N, 2).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if tables is not None:
        return _anchored(f, pts, alphas, tables, _block_rows(tables.xaxis[2]))
    arg = pts @ f.frequencies.T
    arg += f.phases
    out = np.empty((pts.shape[0], len(alphas)))
    _weighted_sums(f, alphas, lambda odd: (np.cos, np.sin)[odd](arg), out)
    return out


def _weighted_sums(f: FieldRealization, alphas, trig, out: np.ndarray) -> None:
    """out[:, col] = d^alpha psi of alphas[col] at the rows of trig's tables.

    trig(odd) gives the (rows, M) cosines (odd = 0) or sines (odd = 1)
    of the arguments; it is asked once per parity that alphas need.
    """
    osc: dict = {}
    for col, alpha in enumerate(alphas):
        weights, order = _term_weights(f, alpha)
        odd = order % 2
        if odd not in osc:
            osc[odd] = trig(odd)
        col_val = osc[odd] @ weights
        if order == 0:
            col_val = col_val + f.shift
        out[:, col] = col_val


def _anchored(f: FieldRealization, pts: np.ndarray, alphas, tables: GridTables,
              rows: int) -> np.ndarray:
    """eval_many at pts from the grid tables, `rows` points at a time.

    A point p with nearest node (x_a, y_b) (clamped to the grid) and
    offset d = p - (x_a, y_b) has, per term,

        exp(i (lam . p + phi)) = E1[a] E2[b] exp(i lam . d),

    so its cosines and sines are the real and imaginary parts of two
    complex products of table rows with exp(i lam . d), whose angle is at
    most |lam| times half a cell diagonal inside the grid.  A block of
    `rows` points keeps four (rows, M) arrays in the workspace: the
    offset angles, then the gathered E1 rows, and exp(i lam . d), then
    the gathered E2 rows, then the cosines and sines.  Every row is
    computed on its own up to the weighted sums, one matrix-vector
    product per multi-index as in the direct form, whose BLAS kernel
    groups rows by four.  So with `rows` a multiple of 4, at least 8, the
    blocks do not change a bit of the result; the last block takes four
    rows more rather than one row alone, which numpy would sum by
    another BLAS routine.
    """
    _check_tables(tables, f)
    n, M = pts.shape[0], f.nterms
    start, step, count = np.array([tables.xaxis, tables.yaxis]).T
    out = np.empty((n, len(alphas)))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1 and rows >= 8:
        starts[-1] -= 4
    for lo, hi in zip(starts, starts[1:] + [n]):
        r = hi - lo
        # The nearest node, clamped to the grid; fmax and fmin send NaN to node 0.
        k = np.subtract(pts[lo:hi], start)
        k /= step
        np.rint(k, out=k)
        np.fmin(np.fmax(k, 0.0, out=k), count - 1.0, out=k)
        node = k.astype(np.intp)
        offset = pts[lo:hi] - (start + k * step)
        work = _scratch("work", 4 * r * M, float)
        grid_e = work[:2 * r * M].view(complex).reshape(r, M)
        rot = work[2 * r * M:].view(complex).reshape(r, M)
        angle = work[:r * M].reshape(r, M)  # lam . d, until grid_e takes its place
        np.matmul(offset, f.frequencies.T, out=angle)
        np.sin(angle, out=rot.imag)
        np.cos(angle, out=rot.real)
        np.take(tables.e1, node[:, 0], axis=0, out=grid_e, mode="clip")
        grid_e *= rot
        np.take(tables.e2, node[:, 1], axis=0, out=rot, mode="clip")
        grid_e *= rot
        parts = work[2 * r * M:].reshape(2, r, M)  # rot's memory, free again

        def trig(odd):
            np.copyto(parts[odd], grid_e.imag if odd else grid_e.real)
            return parts[odd]

        _weighted_sums(f, alphas, trig, out[lo:hi])
    return out


def _block_rows(nx: int) -> int:
    """Rows per block of _anchored on a grid of nx x-nodes.

    Its four (rows, M) arrays stay within eval_grid's (nx, 2M) operand.
    From nx = 16 on, rows is a multiple of 4 and at least 8, so the
    blocks do not change a bit of the result (_anchored).
    """
    rows = max(1, nx // 2)
    return rows - rows % 4 if rows >= 4 else rows


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


def eval_grid(tables: GridTables, alphas) -> np.ndarray:
    """Evaluate several derivatives of tables.field on the grid of tables.

    The grid is the one grid_tables(f, xaxis, yaxis) built the tables
    for.  Each axis is (start, step, count): the nx points
    x_a = start + a step of xaxis, the ny points y_b of yaxis.  A plane
    wave separates over the coordinates: with a = lam1 x + phi and
    b = lam2 y,

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

    The caller builds the tables C + i S of the two axes and keeps them
    for eval_many at points near the grid; they live until the thread's
    next grid_tables call (GridTables).  Their angle addition leaves the
    grid off by a few ulp of the amplitude sum sum_j |w_j|, on top of the
    |lam x| eps rounding of the argument that eval_many shares; the two
    agree to rounding.

    The tables and the matmul operand [C1 w, +-S1 w] live in a workspace
    private to the calling thread (_scratch).  The operand's buffer holds,
    call by call, this operand, eval_many's anchored blocks or sign_grid's
    two single-precision operands, and nothing in it outlives the call
    that wrote it.  It grows to the largest grid the thread has evaluated
    and is reused as prefix views, so it keeps one grid's tables and
    operand, about 2.5 MB at M = 256 on a 20 x 20 window at the default
    step (2.7 MB with sign_grid's single-precision result), and a call
    allocates only its result (grid_tables, only the coarse and fine
    trig rows of each axis).  Each matmul writes straight into the result, which never
    shares memory with the workspace.

    Returns shape (nx, ny, len(alphas)); entry [a, b] is the point
    (x_a, y_b), so reshape(-1, len(alphas)) lists the points in
    meshgrid(xs, ys, indexing="ij") order.  The array is a view of one
    (len(alphas), nx, ny) block, so each derivative's grid is contiguous.
    """
    f = tables.field
    _check_tables(tables, f)
    M = f.nterms
    nx, ny = tables.xaxis[2], tables.yaxis[2]
    out = np.empty((len(alphas), nx, ny))
    e1 = tables.e1  # C1 + i S1
    right = tables.e2.view(float).T  # C2, S2 rows in turn
    left = _scratch("work", nx * M * 2, float).reshape(nx, M, 2)
    for col, alpha in enumerate(alphas):
        w, order = _term_weights(f, alpha)
        _left_operand(e1, w, order, left)
        np.matmul(left.reshape(nx, 2 * M), right, out=out[col])
        if order == 0:
            out[col] += f.shift
    return out.transpose(1, 2, 0)


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


def sign_grid(tables: GridTables, alphas) -> tuple[np.ndarray, np.ndarray]:
    """eval_grid's derivatives of tables.field from one sgemm each, and their rounding bound.

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

    Both single-precision operands live in eval_grid's buffer of the
    thread's workspace (_scratch), which holds them when ny <= nx (and
    grows to hold them otherwise), and the single-precision matmul result
    has a buffer of its own there.  So a repeat call allocates only its
    result.  The grid has eval_grid's shape and order and never shares
    memory with the workspace.
    """
    f = tables.field
    _check_tables(tables, f)
    M = f.nterms
    nx, ny = tables.xaxis[2], tables.yaxis[2]
    out = np.empty((len(alphas), nx, ny))
    bound = np.empty(len(alphas))
    # eval_grid's double buffer holds the right operand and then the left
    # one in single precision.
    work = _scratch("work", M * max(2 * nx, nx + ny), float)
    right = work[:ny * M].view(np.float32).reshape(ny, 2 * M)
    left = work[ny * M:(ny + nx) * M].view(np.float32).reshape(nx, M, 2)
    np.copyto(right, tables.e2.view(float))
    single = _scratch("single", nx * ny, np.float32).reshape(nx, ny)
    n = 2 * M + 2
    gamma = n * _U32 / (1.0 - n * _U32) if n * _U32 < 1.0 else math.inf
    for col, alpha in enumerate(alphas):
        w, order = _term_weights(f, alpha)
        size = np.abs(w)
        scale = math.ldexp(1.0, math.frexp(float(size.max()))[1] - 1)
        _left_operand(tables.e1, w / scale, order, left)
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
