"""Spectral field sampler: exact derivatives, PDE identity, reproducibility."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from planarcrit import sampling
from planarcrit.finder import default_grid_step
from planarcrit.models import (
    BargmannFock,
    Interpolation,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    sigma_derivatives,
)
from planarcrit.sampling import (
    eval_gradient,
    eval_grid,
    eval_many,
    field_terms,
    sample_field,
    seed_entropy,
    seeded_rng,
    sign_grid,
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


def test_run_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    # A forked pool starts all of its workers at the first task, so the
    # pool gets min(threads, len(tasks)) of them, and one worker means no
    # pool.  The fake pool maps in this process and starts no worker.
    import concurrent.futures

    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    for threads, ntasks, started in [(64, 40, [40]), (3, 40, [3]), (2, 2, [2]), (64, 1, []),
                                     (8, 0, []), (1, 5, [])]:
        pools.clear()
        tasks = list(range(ntasks))
        assert sampling._run_tasks(str, tasks, threads) == list(map(str, tasks))
        assert pools == started


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


_RING_CASES = [(RandomWave(1.0), 20.0), (RandomWave(2.0**20), 20.0 * 2.0**-20),
               (RandomWave(2.0**-20), 20.0 * 2.0**20), (ShiftedRandomWave(0.8, 1.3, 1.5), 20.0)]


@pytest.mark.parametrize("model, side", _RING_CASES, ids=repr)
def test_ring_design_has_the_model_covariance_on_its_window(model, side):
    # The design's covariance (sigma_c / n) sum_j cos(lam_j . x), plus the
    # atom, is the model's sigma(|x|^2) to rounding at every lag inside the
    # window: 2 000 random lags with |x| up to its diagonal.
    window = ((0.0, side), (0.0, side))
    f = sample_field(model, M=1024, seed=5, gaussian_amplitudes=True, window=window)
    n = f.nterms
    assert n == field_terms(model, 1024, window) == model.ring_terms(math.hypot(side, side))
    rng = np.random.default_rng(17)
    radius = math.hypot(side, side) * rng.uniform(0.0, 1.0, 2000)
    angle = rng.uniform(0.0, 2.0 * math.pi, 2000)
    lags = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    sigma_c = model.total_mass() - model.atom_mass()
    design = model.atom_mass() + sigma_c / n * np.cos(lags @ f.frequencies.T).sum(axis=1)
    exact = model.sigma_derivative(0, (lags**2).sum(axis=1))
    assert np.max(np.abs(design - exact)) <= 1e-14 * model.total_mass()


def test_ring_design_draws_equispaced_directions_in_a_fixed_order():
    model, window = ShiftedRandomWave(0.8, 1.3, 1.5), ((0.0, 20.0), (0.0, 20.0))
    f = sample_field(model, M=1024, seed=(4, 2), gaussian_amplitudes=True, window=window)
    assert f.nterms == 44
    # theta0 + pi j / n on the half circle, theta0 the stream's first draw,
    # then the atom's shift, then the (n, 2) coefficients of variance sigma_c / n.
    rng = seeded_rng((4, 2))
    theta = rng.uniform(0.0, math.pi) + math.pi * np.arange(44) / 44
    np.testing.assert_array_equal(f.frequencies, 1.5 * np.column_stack([np.cos(theta),
                                                                         np.sin(theta)]))
    assert f.shift == 0.8 * rng.standard_normal()
    coef = rng.standard_normal((44, 2)) * math.sqrt(1.3**2 / 44)
    np.testing.assert_array_equal(f.amplitudes, np.hypot(coef[:, 0], coef[:, 1]))
    # M caps the ring's terms.
    assert sample_field(model, M=16, seed=1, gaussian_amplitudes=True, window=window).nterms == 16


@pytest.mark.parametrize("model, gaussian", [(RandomWave(1.0), False), (BargmannFock(1.0), True)],
                         ids=repr)
def test_without_a_ring_design_the_window_changes_no_draw(model, gaussian):
    # Random phases keep iid directions, as does every family without one circle.
    window = ((0.0, 20.0), (0.0, 20.0))
    f = sample_field(model, M=64, seed=3, gaussian_amplitudes=gaussian, window=window)
    g = sample_field(model, M=64, seed=3, gaussian_amplitudes=gaussian)
    assert field_terms(model, 64) == 64 and f.nterms == 64
    for name in ("frequencies", "phases", "amplitudes"):
        np.testing.assert_array_equal(getattr(f, name), getattr(g, name))


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



def _assert_certified_signs(f, xaxis, yaxis, alphas):
    """sign_grid against eval_grid on f's grid xaxis x yaxis: values within sign_grid's stated
    bound of the exact sum, which eval_grid rounds to well within 1e-12
    sum_j |w_j|, so the same signs wherever a value lies beyond the bound;
    and the returned bound is the stated one."""
    (single, got), ref = sign_grid(f, xaxis, yaxis, alphas), eval_grid(f, xaxis, yaxis, alphas)
    assert single.shape == ref.shape and got.shape == (len(alphas),)
    n, u = 2 * f.nterms + 2, 2.0**-24
    for col, alpha in enumerate(alphas):
        w = np.abs(sampling._term_weights(f, alpha)[0])
        scale = 2.0 ** math.floor(math.log2(w.max()))
        bound = n * u / (1 - n * u) * (1 + 1e-12) * w.sum() + 2 * f.nterms * 2.0**-123 * scale
        assert got[col] == bound, (alpha, got[col], bound)
        err = np.abs(single[..., col] - ref[..., col]).max()
        assert err <= bound + 1e-12 * w.sum(), (alpha, err, bound)
        decided = np.abs(single[..., col]) > bound
        np.testing.assert_array_equal(np.sign(single[..., col][decided]),
                                      np.sign(ref[..., col][decided]))


@pytest.mark.parametrize("model", [RandomWave(1.0), ShiftedRandomWave(0.5, 1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("M", [512, 4096])
def test_sign_grid_has_eval_grids_signs(model, gaussian, M):
    # The inputs of test_eval_grid_agrees_with_eval_many, and M = 4096.
    f = sample_field(model, M=M, seed=5, gaussian_amplitudes=gaussian)
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 0)]
    _assert_certified_signs(f, (-1.5, 0.45, 30), (-2.0, 0.37, 30), alphas)


@pytest.mark.parametrize("model", [RandomWave(1.0), ShiftedRandomWave(0.5, 1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("gaussian", [False, True])
def test_sign_grid_holds_on_long_axes_far_from_the_origin(model, gaussian):
    # The inputs of test_eval_grid_tables_hold_on_long_axes_far_from_the_origin.
    f = sample_field(model, M=1024, seed=11, gaussian_amplitudes=gaussian)
    _assert_certified_signs(f, (499.7, 0.37, 1500), (-503.1, 0.29, 1500), [(0, 0), (1, 0), (1, 1)])


@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("ny", [1, 2, 3])
def test_sign_grid_on_axes_of_one_to_three_points(nx, ny):
    # The inputs of test_eval_grid_on_axes_of_one_to_three_points.
    f = sample_field(ShiftedRandomWave(0.5, 1.0, 1.0), M=64, seed=9)
    _assert_certified_signs(f, (-0.7, 0.45, nx), (2.1, 0.37, ny), [(0, 0), (1, 0), (0, 2)])


@pytest.mark.parametrize("m", [-30, 30])
def test_sign_grid_of_a_rescaled_field_is_scaled_bit_for_bit(m):
    # RandomWave(2^m) on the finder's grid scaled by 2^-m: its gradient
    # grid and rounding bound are 2^m times RandomWave(1)'s, bit for bit,
    # so its signs are the same array.
    one = sample_field(RandomWave(1.0), M=256, seed=1, gaussian_amplitudes=True)
    scaled = sample_field(RandomWave(2.0**m), M=256, seed=1, gaussian_amplitudes=True)
    np.testing.assert_array_equal(scaled.frequencies, one.frequencies * 2.0**m)
    axes = _finder_axes(one.model, 20.0)
    alphas = [(1, 0), (0, 1)]
    want, want_bound = sign_grid(one, *axes, alphas)
    got, got_bound = sign_grid(
        scaled, *[(a * 2.0**-m, b * 2.0**-m, n) for a, b, n in axes], alphas)
    np.testing.assert_array_equal(got, want * 2.0**m)
    np.testing.assert_array_equal(np.sign(got), np.sign(want))
    np.testing.assert_array_equal(got_bound, want_bound * 2.0**m)


def test_sign_grid_leaves_few_nodes_undecided(monkeypatch):
    # On the finder's grid at M = 256 a few nodes per derivative lie within
    # the rounding bound, where the sign test counts them as either sign;
    # with the bound made infinite every node does.
    f = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    axes = _finder_axes(f.model, 20.0)
    grid, bound = sign_grid(f, *axes, [(1, 0), (0, 1)])
    undecided = (np.abs(grid) <= bound).sum(axis=(0, 1))
    assert np.all((0 < undecided) & (undecided < 100)), undecided
    monkeypatch.setattr(sampling, "_U32", 1.0)
    assert np.all(sign_grid(f, *axes, [(1, 0), (0, 1)])[1] == math.inf)


def test_repeat_sign_grid_allocates_only_its_result():
    # As test_repeat_eval_grid_allocates_only_its_result: the single-
    # precision operands and result stay in the thread's workspace, so a
    # repeat call on the finder's grid allocates its result and the trig
    # rows of _axis_trig, and the workspace does not grow.
    f = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    alphas = [(1, 0), (0, 1)]
    fine, coarse = _finder_axes(f.model, 20.0), _finder_axes(f.model, 20.0, coarsen=2)
    sign_grid(f, *fine, alphas)
    sizes = sampling._workspace.work.size, sampling._workspace.single.size
    for axes in (fine, coarse):
        (out, _), peak = _traced_peak(lambda: sign_grid(f, *axes, alphas))
        assert out.shape == (axes[0][2], axes[1][2], 2)
        assert peak <= 2 * out.nbytes, (axes, peak / out.nbytes)
    assert (sampling._workspace.work.size, sampling._workspace.single.size) == sizes


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


def test_direct_eval_many_leaves_the_grid_workspace_alone():
    # eval_many allocates its own arrays: the grid paths' axis tables and
    # matmul operand buffer are the same objects with the same bytes
    # afterwards, for a call on 10 points and on 2000.
    f = sample_field(RandomWave(1.0), M=256, seed=(101, 0), gaussian_amplitudes=True)
    eval_grid(f, *_finder_axes(f.model, 12.0), [(1, 0), (0, 1)])
    pts = seeded_rng(3).uniform(-1.0, 13.0, size=(2000, 2))
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    bufs = {name: getattr(sampling._workspace, name) for name in ("x", "y", "work")}
    held = {name: buf.copy() for name, buf in bufs.items()}
    for n in (10, 2000):
        eval_many(f, pts[:n], alphas)
        for name, buf in bufs.items():
            assert getattr(sampling._workspace, name) is buf, (n, name)
            np.testing.assert_array_equal(buf, held[name])


_FAMILIES = [RandomWave(1.0), BargmannFock(1.0), ShiftedRandomWave(0.5, 1.0, 1.0),
             PowerLawTruncated(3.0), Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0))]
_ALL_DERIVS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
               (2, 2)]


def _reach_points(window: float, xaxis, yaxis):
    """Points of the finder's reach around its grid on [0, window]^2.

    Random points inside the grid, its nodes, the midpoints between nodes,
    points on its edges, and points past it up to the Newton bound 4 h
    beyond the window.
    """
    rng = seeded_rng(17)
    h = xaxis[1] * 8
    xs, ys = _axis_points(xaxis, yaxis)
    inside = rng.uniform(xs[0], xs[-1], size=(150, 2))
    nodes = np.column_stack([rng.choice(xs, 30), rng.choice(ys, 30)])
    ties = nodes + 0.5 * np.array([xaxis[1], yaxis[1]])
    edges = np.column_stack([rng.choice([xs[0], xs[-1]], 40), rng.uniform(ys[0], ys[-1], 40)])
    past = rng.uniform(-4.0 * h, window + 4.0 * h, size=(400, 2))
    past = past[~((past >= xs[0]) & (past <= xs[-1])).all(axis=1)][:100]
    corners = np.array([[-4.0 * h, -4.0 * h], [window + 4.0 * h, -4.0 * h],
                        [window + 4.0 * h, window + 4.0 * h]])
    return np.concatenate([inside, nodes, ties, edges, edges[:, ::-1], past, corners])


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("M, window", [(256, 20.0), (1024, 12.0)])
@pytest.mark.parametrize("model", _FAMILIES, ids=lambda m: m.family)
def test_eval_many_is_within_rounding_of_the_exact_sum(model, M, window, gaussian):
    # eval_many at the points the finder reaches, every multi-index up to
    # order 4, against the sum taken term by term in extended precision
    # from the same frequencies, phases and amplitudes: within 2 eps of
    # sum_j |w_j| (|x1 lam_j1| + |x2 lam_j2| + |phi_j| + 1), the rounding
    # that the argument and the trig value carry into each term.
    f = sample_field(model, M=M, seed=(31, M), gaussian_amplitudes=gaussian)
    pts = _reach_points(window, *_finder_axes(model, window))
    got = eval_many(f, pts, _ALL_DERIVS)
    ld = np.longdouble
    lam, x = f.frequencies.astype(ld), pts.astype(ld)
    arg = x @ lam.T + f.phases.astype(ld)
    cos, sin = np.cos(arg), np.sin(arg)
    size = np.abs(pts) @ np.abs(f.frequencies).T + np.abs(f.phases) + 1.0
    for col, (a1, a2) in enumerate(_ALL_DERIVS):
        n = a1 + a2
        w = f.amplitudes.astype(ld) * lam[:, 0] ** a1 * lam[:, 1] ** a2
        w = w * (1, -1, -1, 1)[n % 4]
        exact = (sin if n % 2 else cos) @ w + (f.shift if n == 0 else 0.0)
        err = np.abs(got[:, col] - exact).astype(float)
        bound = 2.0 * np.finfo(float).eps * (size @ np.abs(w).astype(float))
        assert np.all(err <= bound), ((a1, a2), (err / bound).max())


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


@pytest.mark.parametrize("std_error, nsamples, message", [
    (-1e-3, 10, "std_error must be nonnegative"),
    (math.nan, 10, "std_error must be nonnegative"),
    (0.1, 1, "nsamples must be at least 2"),
])
def test_moment_estimate_refuses_a_bad_se_or_sample_count(std_error, nsamples, message):
    with pytest.raises(ValueError, match=message):
        sampling.MomentEstimate(value=1.0, std_error=std_error, nsamples=nsamples)
