"""Spectral field sampler: exact derivatives, PDE identity, reproducibility."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from planarcrit.finder import default_grid_step
from planarcrit.models import BargmannFock, RandomWave, ShiftedRandomWave, sigma_derivatives
from planarcrit.sampling import (
    eval_gradient,
    eval_grid,
    eval_many,
    sample_field,
    seed_entropy,
    seeded_rng,
)


def test_same_seed_same_field():
    a = sample_field(RandomWave(1.0), M=64, seed=7)
    b = sample_field(RandomWave(1.0), M=64, seed=7)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.phases, b.phases)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = sample_field(RandomWave(1.0), M=64, seed=8)
    assert not np.array_equal(a.phases, c.phases)


def test_seed_entropy_flattens_nested_tuples():
    assert seed_entropy(5) == (5,)
    assert seed_entropy((3, 4)) == (3, 4)
    assert seed_entropy(((3, 4), 7)) == (3, 4, 7)
    # a flat tuple and its int give different streams, nesting does not change one
    x = seeded_rng(((1, 2), 3)).standard_normal()
    y = seeded_rng((1, 2, 3)).standard_normal()
    assert x == y


def test_fixed_amplitude_convention():
    m = 128
    f = sample_field(RandomWave(1.0), M=m, seed=0)
    np.testing.assert_allclose(f.amplitudes, math.sqrt(2.0 / m))
    assert f.shift == 0.0
    g = sample_field(RandomWave(1.0), M=m, seed=0, gaussian_amplitudes=True)
    assert np.std(g.amplitudes) > 0.0


def test_shift_component_present_only_with_atom():
    f = sample_field(ShiftedRandomWave(tau=1.0, s=1.0, k=1.0), M=32, seed=3)
    assert f.shift != 0.0
    # amplitude normalization covers only the continuous mass s^2
    np.testing.assert_allclose(f.amplitudes, math.sqrt(2.0 / 32))


@pytest.mark.parametrize("gaussian", [False, True])
def test_random_wave_satisfies_helmholtz(gaussian):
    # every spectral atom sits on |lambda| = k, so Delta psi = -k^2 psi exactly
    k = 1.7
    f = sample_field(RandomWave(k), M=256, seed=11, gaussian_amplitudes=gaussian)
    pts = seeded_rng(1).uniform(-5.0, 5.0, size=(40, 2))
    vals = eval_many(f, pts, [(0, 0), (2, 0), (0, 2)])
    laplacian = vals[:, 1] + vals[:, 2]
    np.testing.assert_allclose(laplacian, -(k**2) * vals[:, 0], rtol=1e-10, atol=1e-12)


def test_eval_many_matches_finite_differences():
    f = sample_field(RandomWave(1.3), M=64, seed=5)
    x = np.array([0.37, -1.21])
    h = 1e-6
    for alpha, stencil in [
        ((1, 0), np.array([1.0, 0.0])),
        ((0, 1), np.array([0.0, 1.0])),
    ]:
        hi, lo = eval_many(f, [x + h * stencil, x - h * stencil], [(0, 0)])[:, 0]
        assert eval_many(f, x, [alpha])[0, 0] == pytest.approx((hi - lo) / (2 * h), abs=1e-8)
    # second derivatives against gradient differences
    grad_hi = eval_gradient(f, x + h * np.array([1.0, 0.0]))
    grad_lo = eval_gradient(f, x - h * np.array([1.0, 0.0]))
    h11, h12 = eval_many(f, x, [(2, 0), (1, 1)])[0]
    assert h11 == pytest.approx((grad_hi[0] - grad_lo[0]) / (2 * h), abs=1e-7)
    assert h12 == pytest.approx((grad_hi[1] - grad_lo[1]) / (2 * h), abs=1e-7)


def test_eval_many_columns_agree_with_one_column_calls():
    f = sample_field(RandomWave(1.0), M=64, seed=9)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [0.3, 0.4]])
    alphas = [(0, 0), (1, 0), (2, 1), (0, 4)]
    packed = eval_many(f, pts, alphas)
    for j, alpha in enumerate(alphas):
        np.testing.assert_allclose(packed[:, j], eval_many(f, pts, [alpha])[:, 0], rtol=1e-13)


def test_kept_term_weights_change_no_bytes():
    # A realization keeps the per-term weights of each multi-index after
    # first use; it gives the bytes of a fresh realization per
    # multi-index and the same repr, and a bad multi-index is refused
    # every time.
    def fresh():
        return sample_field(RandomWave(1.0), M=64, seed=9)

    used = fresh()
    xaxis, yaxis = (0.0, 0.3, 3), (-2.0, 0.6, 4)
    pts = np.stack(np.meshgrid(*_axis_points(xaxis, yaxis), indexing="ij"), axis=-1).reshape(-1, 2)
    alphas = [(0, 0), (1, 0), (0, 1), (2, 1), (0, 4)]
    first = eval_many(used, pts, alphas)
    grid = eval_grid(used, xaxis, yaxis, alphas)
    assert repr(used) == repr(fresh())
    np.testing.assert_array_equal(eval_many(used, pts, alphas), first)
    for col, alpha in enumerate(alphas):
        np.testing.assert_array_equal(eval_many(fresh(), pts, [alpha])[:, 0], first[:, col])
        np.testing.assert_array_equal(
            eval_grid(fresh(), xaxis, yaxis, [alpha])[..., 0], grid[..., col]
        )
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds total order"):
            eval_many(used, pts, [(3, 2)])


@pytest.mark.parametrize("model", [RandomWave(1.0), ShiftedRandomWave(0.5, 1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("gaussian", [False, True])
def test_eval_grid_agrees_with_eval_many(model, gaussian):
    f = sample_field(model, M=512, seed=5, gaussian_amplitudes=gaussian)
    xaxis, yaxis = (-1.5, 0.45, 30), (-2.0, 0.37, 30)
    xs, ys = _axis_points(xaxis, yaxis)
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 0)]
    grid = eval_grid(f, xaxis, yaxis, alphas)
    assert grid.shape == (len(xs), len(ys), len(alphas))
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    ref = eval_many(f, pts, alphas)
    err = np.abs(grid.reshape(-1, len(alphas)) - ref).max(axis=0)
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=0)), err


@pytest.mark.parametrize("model", [RandomWave(1.0), ShiftedRandomWave(0.5, 1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("gaussian", [False, True])
def test_eval_grid_tables_hold_on_long_axes_far_from_the_origin(model, gaussian):
    # The angle-addition tables of 1500-point axes that start near |x| = 500:
    # ceil(1500 / 38) = 40 coarse rows, each reused for 38 fine offsets.
    f = sample_field(model, M=1024, seed=11, gaussian_amplitudes=gaussian)
    xaxis, yaxis = (499.7, 0.37, 1500), (-503.1, 0.29, 1500)
    alphas = [(0, 0), (1, 0), (1, 1)]
    grid = eval_grid(f, xaxis, yaxis, alphas)
    xs, ys = _axis_points(xaxis, yaxis)
    rng = seeded_rng(3)
    # Both ends of each axis and random points in between.
    i = np.concatenate([[0, 1499, 0, 1499], rng.integers(0, 1500, 300)])
    j = np.concatenate([[0, 0, 1499, 1499], rng.integers(0, 1500, 300)])
    ref = eval_many(f, np.column_stack([xs[i], ys[j]]), alphas)
    err = np.abs(grid[i, j] - ref).max(axis=0)
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=0)), err


@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("ny", [1, 2, 3])
def test_eval_grid_on_axes_of_one_to_three_points(nx, ny):
    f = sample_field(ShiftedRandomWave(0.5, 1.0, 1.0), M=64, seed=9)
    xaxis, yaxis = (-0.7, 0.45, nx), (2.1, 0.37, ny)
    alphas = [(0, 0), (1, 0), (0, 2)]
    grid = eval_grid(f, xaxis, yaxis, alphas)
    assert grid.shape == (nx, ny, len(alphas))
    xs, ys = _axis_points(xaxis, yaxis)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_allclose(grid.reshape(-1, len(alphas)), eval_many(f, pts, alphas),
                               rtol=0.0, atol=1e-13)


def _finder_axes(model, window: float, coarsen: int = 1):
    """The x and y axes of find_critical_points' sign-test grid on [0, window]^2."""
    cell = coarsen * default_grid_step(model) / 8
    axis = (-cell, cell, math.ceil(window / cell) + 3)
    return axis, axis


def _traced_peak(fn):
    """fn()'s result and the peak of traced memory while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_repeat_eval_grid_allocates_only_its_result():
    # The axis tables and the matmul operand stay in the thread's
    # workspace, so a repeat call on the finder's 207 x 207 grid allocates
    # its result and the trig rows of _axis_trig, and so does the grid at
    # twice the step, evaluated after it in the workspace's prefix.
    # Temporaries allocated per call lift the peak to 5.7 and 9.6 results.
    f = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    alphas = [(1, 0), (0, 1)]
    fine, coarse = _finder_axes(f.model, 20.0), _finder_axes(f.model, 20.0, coarsen=2)
    assert fine[0][2] == 207
    eval_grid(f, *fine, alphas)
    for axes in (fine, coarse):
        out, peak = _traced_peak(lambda: eval_grid(f, *axes, alphas))
        assert out.shape == (axes[0][2], axes[1][2], 2)
        assert peak <= 2 * out.nbytes, (axes, peak / out.nbytes)


def test_repeat_eval_many_allocates_less_than_one_table():
    # The argument matrix and its cosine and sine stay in the thread's
    # workspace, so a repeat call allocates less than one (N, M) array,
    # and so does a call on fewer points, evaluated in the workspace's
    # prefix.  Computed per call, the three tables lift the peak to three.
    f = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    pts = seeded_rng(3).uniform(0.0, 20.0, size=(400, 2))
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    eval_many(f, pts, alphas)
    for n in (400, 150):
        out, peak = _traced_peak(lambda: eval_many(f, pts[:n], alphas))
        assert out.shape == (n, len(alphas))
        assert peak < n * f.nterms * 8, (n, peak / (n * f.nterms * 8))


def test_eval_grid_workspace_is_invisible_to_callers():
    # A returned grid or eval_many block shares no memory with the
    # workspace: a later call on another field leaves it byte-equal.  Six
    # threads, each with its own workspace, evaluate two fields of
    # different sizes on grids and at scattered points in turn and get
    # the serial bytes.
    a = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    b = sample_field(BargmannFock(1.0), M=128, seed=(7, 1))
    pts = seeded_rng(3).uniform(0.0, 6.0, size=(300, 2))
    jobs = [lambda: eval_grid(a, *_finder_axes(a.model, 6.0), [(1, 0), (0, 1)]),
            lambda: eval_grid(b, *_finder_axes(b.model, 4.0, coarsen=2), [(0, 0), (2, 0), (1, 1)]),
            lambda: eval_many(a, pts, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
            lambda: eval_many(b, pts[:70], [(0, 0), (3, 0), (2, 1), (1, 2), (0, 3)])]
    serial = [job() for job in jobs]
    before = [out.copy() for out in serial]
    for job in reversed(jobs):
        job()
    for out, ref in zip(serial, before):
        np.testing.assert_array_equal(out, ref)

    results: dict = {}
    n = len(jobs)

    def worker(k: int) -> None:
        results[k] = [job().tobytes() for _ in range(4) for job in jobs[k % n:] + jobs[:k % n]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(6):
        order = [serial[(k + i) % n].tobytes() for i in range(n)]
        assert results[k] == order * 4, k


def _axis_points(*axes):
    """The coordinates of each (start, step, count) axis of eval_grid."""
    return [start + step * np.arange(count) for start, step, count in axes]


def test_gradient_accepts_stacked_points():
    f = sample_field(RandomWave(1.0), M=64, seed=9)
    pts = seeded_rng(2).uniform(-3.0, 3.0, size=(3, 4, 2))
    grads = eval_gradient(f, pts)
    assert grads.shape == (3, 4, 2)
    np.testing.assert_array_equal(grads.reshape(-1, 2), eval_gradient(f, pts.reshape(-1, 2)))
    # one point at a time goes through a matrix-vector product, which may
    # round the last bit differently
    tol = dict(rtol=1e-13, atol=1e-13)
    for i in range(3):
        for j in range(4):
            np.testing.assert_allclose(grads[i, j], eval_gradient(f, pts[i, j]), **tol)


def test_stationarity_of_second_moments():
    # the sample second moment of psi over many realizations matches sigma(0)
    # at every point; spot-check two points far apart
    model = ShiftedRandomWave(tau=0.5, s=1.0, k=1.0)
    sigma0 = model.sigma_derivative(0, 0.0)
    nreal = 400
    pts = np.array([[0.0, 0.0], [3.7, -2.1]])
    vals = np.empty((nreal, 2))
    for i in range(nreal):
        f = sample_field(model, M=128, seed=(21, i), gaussian_amplitudes=True)
        vals[i] = eval_many(f, pts, [(0, 0)])[:, 0]
    var = vals.var(axis=0, ddof=1)
    se = sigma0 * math.sqrt(2.0 / (nreal - 1))
    assert np.all(np.abs(var - sigma0) < 4.0 * se)


def test_derivative_sample_variances_match_model():
    # sample variances of d^alpha psi(0) over exactly Gaussian realizations
    model = RandomWave(1.0)
    d = sigma_derivatives(model)
    targets = {
        (1, 0): -2.0 * d.eta0,
        (2, 0): 12.0 * d.mu0,
        (1, 1): 4.0 * d.mu0,
        (3, 0): -120.0 * d.nu0,
    }
    n = 1500
    values = np.array([
        eval_many(sample_field(model, M=128, seed=(2, i), gaussian_amplitudes=True),
                  np.zeros(2), list(targets))[0]
        for i in range(n)
    ])
    for v, (alpha, expected) in zip(values.T, targets.items()):
        # SE of a sample variance: sqrt((m4 - m2^2 (n-3)/(n-1)) / n)
        m2 = np.mean((v - v.mean()) ** 2)
        m4 = np.mean((v - v.mean()) ** 4)
        se = math.sqrt(max(m4 - m2**2 * (n - 3) / (n - 1), 0.0) / n)
        assert abs(np.var(v, ddof=1) - expected) < 4.0 * se, alpha


def test_sample_field_validation():
    with pytest.raises(ValueError):
        sample_field(RandomWave(1.0), M=0, seed=1)
