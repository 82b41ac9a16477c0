"""Empirical estimators: intensities, pair moments, controls, scaling fits."""

import math
import tracemalloc

import numpy as np
import pytest

from planarcrit import estimators
from planarcrit.estimators import (
    MomentEstimate,
    NonpositiveEstimateError,
    _ball_counts,
    _ball_grid,
    _build_sweep,
    _jackknife_mean,
    _reduce,
    default_window,
    fit_scaling,
    intensity,
    poisson_control_ratio,
    repulsion_ratio,
    second_factorial,
    sweep,
)
from planarcrit.models import BargmannFock, RandomWave, sigma_derivatives
from planarcrit.theory import lambda_c


def test_intensity_consistent_with_theory_small_budget():
    model = RandomWave(1.0)
    est = intensity(sweep(model, nreal=30, seed=5, window=((0.0, 12.0), (0.0, 12.0))))
    lam = lambda_c(sigma_derivatives(model))
    assert abs(est.value - lam) < 4.0 * est.std_error
    assert est.std_error < 0.15 * lam


@pytest.mark.parametrize("model, M, terms", [
    (RandomWave(1.0), 1024, 33),  # the ring rule on the 20 x 20 window's diagonal
    (RandomWave(1.0), 16, 16),  # M caps it
    (BargmannFock(1.0), 64, 64),  # no ring design: M iid frequencies
], ids=repr)
def test_sweep_draws_the_fewest_exact_ring_terms_up_to_M(monkeypatch, model, M, terms):
    drawn = []
    sample = estimators.sample_field

    def recording(*args, **kwargs):
        f = sample(*args, **kwargs)
        drawn.append(f.nterms)
        return f

    monkeypatch.setattr(estimators, "sample_field", recording)
    sweep(model, nreal=2, seed=1, window=((0.0, 20.0), (0.0, 20.0)), M=M)
    assert drawn == [terms, terms]


def test_intensity_by_kind_shares_realizations():
    model = RandomWave(1.0)
    sw = sweep(model, nreal=12, seed=3, window=((0.0, 10.0), (0.0, 10.0)))
    by_kind = {kind: intensity(sw, kind) for kind in ("c", "e", "s", "min", "max")}
    # exact partition, realization by realization, so the means partition too
    assert by_kind["e"].value + by_kind["s"].value == pytest.approx(
        by_kind["c"].value, rel=1e-12
    )
    assert by_kind["min"].value + by_kind["max"].value == pytest.approx(
        by_kind["e"].value, rel=1e-12
    )


def test_second_factorial_pair_partition():
    # with one set of realizations, Nc(Nc-1) = Ne(Ne-1) + Ns(Ns-1) + 2 NeNs
    # holds count by count, so it holds for the estimates exactly
    model = RandomWave(1.0)
    sw = sweep(model, nreal=10, seed=17, rho_list=[2.0], window=((0.0, 12.0), (0.0, 12.0)))
    cc, ee, ss, es = (second_factorial(sw, 2.0, pair) for pair in ("cc", "ee", "ss", "es"))
    assert cc.value > 0
    assert cc.value == pytest.approx(ee.value + ss.value + 2.0 * es.value, rel=1e-12)


def test_second_factorial_validates_radius():
    model = RandomWave(1.0)
    window = ((0.0, 8.0), (0.0, 8.0))
    with pytest.raises(ValueError):
        sweep(model, nreal=2, seed=0, rho_list=[10.0], window=window)
    # a radius the sweep did not count is refused, not silently recomputed
    sw = sweep(model, nreal=2, seed=0, rho_list=[1.0], window=window, M=64)
    with pytest.raises(KeyError):
        second_factorial(sw, 1.5)


def test_repulsion_ratio_positive_and_finite():
    model = RandomWave(1.0)
    sw = sweep(model, nreal=10, seed=9, rho_list=[2.5], window=((0.0, 16.0), (0.0, 16.0)))
    est = repulsion_ratio(sw, 2.5)
    assert est.value > 0
    assert math.isfinite(est.std_error)
    assert est.label.endswith("mean^2")


def test_ratio_over_no_counted_point_is_a_nonpositive_estimate():
    # A small window whose two realizations hold no critical point that
    # any ball counts: the ratio's denominator is 0, a numerical failure.
    window = ((0.0, 2.0), (0.0, 2.0))
    sw = sweep(RandomWave(1.0), nreal=2, seed=2, rho_list=[0.4], window=window, M=64)
    with pytest.raises(NonpositiveEstimateError, match="no points counted"):
        repulsion_ratio(sw, 0.4)
    with pytest.raises(NonpositiveEstimateError, match="no points counted"):
        poisson_control_ratio(0.0, window, rho=0.4, nreal=2, seed=1)


def test_poisson_control_near_one():
    est = poisson_control_ratio(
        intensity=1.0, window=((0.0, 20.0), (0.0, 20.0)), rho=0.5, nreal=150, seed=1
    )
    assert abs(est.value - 1.0) < 3.0 * est.std_error
    assert est.std_error < 0.2


@pytest.mark.parametrize("rho", [6.0, 11.0, -1.0])
def test_poisson_control_refuses_the_radii_the_sweep_refuses(rho):
    # One radius rule serves both.  On a 20 x 20 window rho = 6 leaves one
    # ball per realization, and rho = 11 none.
    window = ((0.0, 20.0), (0.0, 20.0))
    with pytest.raises(ValueError, match="window short side / 4") as control:
        poisson_control_ratio(0.1, window, rho=rho, nreal=5, seed=1)
    with pytest.raises(ValueError) as swept:
        sweep(RandomWave(1.0), nreal=2, seed=0, rho_list=[rho], window=window)
    assert str(control.value) == str(swept.value)


def test_fit_scaling_recovers_pure_power_law():
    rho = np.geomspace(0.01, 0.1, 6)
    ests = [
        MomentEstimate(value=3.0 * r**4, std_error=1e-9 * r**4, nsamples=10, rho=float(r))
        for r in rho
    ]
    fit = fit_scaling(ests)
    assert fit.exponent == pytest.approx(4.0, abs=1e-6)
    assert not fit.log_coefficient_detected
    assert fit.r_squared > 0.999999
    assert fit.fit_range == (0.01, 0.1)


def test_fit_scaling_detects_log_factor():
    rho = np.geomspace(0.003, 0.08, 8)
    ests = [
        MomentEstimate(
            value=0.5 * r**7 * abs(math.log(r)),
            std_error=1e-10 * r**7,
            nsamples=10,
            rho=float(r),
        )
        for r in rho
    ]
    fit = fit_scaling(ests, with_log=True)
    assert fit.exponent == pytest.approx(7.0, abs=0.05)
    assert fit.log_coefficient_detected
    # without the log regressor the exponent is biased away from 7
    plain = fit_scaling(ests, with_log=False)
    assert abs(plain.exponent - 7.0) > abs(fit.exponent - 7.0)


def test_fit_scaling_needs_enough_points():
    ests = [
        MomentEstimate(value=1.0, std_error=0.1, nsamples=5, rho=0.1),
        MomentEstimate(value=2.0, std_error=0.1, nsamples=5, rho=0.2),
    ]
    with pytest.raises(ValueError):
        fit_scaling(ests)


def _ref_ball_counts(locations, kind_cols, centers, rho):
    """Dense reference: every center against every point."""
    counts = np.zeros((len(centers), 3), dtype=np.int64)
    if len(locations) == 0:
        return counts
    d2 = (
        (centers[:, 0, None] - locations[None, :, 0]) ** 2
        + (centers[:, 1, None] - locations[None, :, 1]) ** 2
    )
    inside = d2 < rho * rho
    for col in range(3):
        counts[:, col] = (inside & (kind_cols == col)).sum(axis=1)
    return counts


def _hard_points(rng, window, grid, rho, n):
    """Uniform points in and just around the window, plus points on ball
    circles, on the grid lines between balls, at cell corners and in the
    margin."""
    (xmin, xmax), (ymin, ymax) = window
    xs, ys = grid
    cx = rng.choice(xs, n)
    cy = rng.choice(ys, n)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    quarter = 0.5 * np.pi * rng.integers(0, 4, n)
    sets = [
        np.column_stack([rng.uniform(xmin - rho, xmax + rho, n),
                         rng.uniform(ymin - rho, ymax + rho, n)]),
        np.column_stack([cx + rho * np.cos(angle), cy + rho * np.sin(angle)]),
        np.column_stack([cx + rho * np.cos(quarter), cy + rho * np.sin(quarter)]),
        np.column_stack([cx + rho, rng.uniform(ymin, ymax, n)]),
        np.column_stack([rng.uniform(xmin, xmax, n), cy - rho]),
        np.column_stack([cx + rho, cy + rho]),
        np.column_stack([cx, cy]),
        np.column_stack([rng.uniform(xmin, xmin + rho, n), rng.uniform(ymin, ymax, n)]),
        np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymax - rho, ymax, n)]),
    ]
    return np.concatenate(sets)


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1.0, 1e12])
@pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
def test_ball_grid_has_the_same_centers_at_every_scale(k, rho):
    # The window [0, 20 / k]^2 with balls of radius rho / k is the window
    # [0, 20]^2 with radius rho in the length unit 1 / k, so it holds as
    # many centers per axis, each ball inside the window up to rounding.
    # An absolute end slack lost the last row and column at k = 1e-3 and
    # added a center whose ball leaves the window at k = 1e12.  The count
    # depends only on the side, wherever the window lies: 5e4 sides from
    # the origin a slack on np.arange's stop value rounded away and lost
    # the last column (19 of 20 centers for [1e6, 1e6 + 20] at rho = 0.5).
    # The centers keep np.arange's bits.
    side = 20.0 / k
    want = [len(axis) for axis in _ball_grid(((0.0, 20.0), (0.0, 20.0)), rho)]
    assert want == [round(10.0 / rho)] * 2
    for x0 in (0.0, 1e6 / k):
        window = ((x0, x0 + side), (0.0, side))
        grid = _ball_grid(window, rho / k)
        near = _ball_grid(((0.0, window[0][1] - x0), (0.0, side)), rho / k)
        assert [len(axis) for axis in grid] == [len(axis) for axis in near], x0
        if x0 == 0.0 or k == 1.0:
            assert [len(axis) for axis in grid] == want, x0
        for (lo, hi), axis in zip(window, grid):
            assert axis[0] - rho / k >= lo and axis[-1] + rho / k <= hi + 1e-12 * (hi - lo)
            assert np.array_equal(axis, np.arange(axis[0], axis[-1] + rho / k, 2.0 * rho / k))


@pytest.mark.parametrize("rho", [0.5, 1.0, 0.3])
def test_ball_counts_match_the_dense_reference(rho):
    # the balls sit on a 2 rho grid, so each point is tested against its
    # <= 4 nearest centers only; the counts must be the dense ones
    rng = np.random.default_rng(int(rho * 1000))
    for _ in range(6):
        x0, y0 = rng.uniform(-30.0, 30.0, 2)
        lx, ly = rng.uniform(4.0 * rho + 0.1, 40.0 * rho, 2)
        window = ((x0, x0 + lx), (y0, y0 + ly))
        grid = _ball_grid(window, rho)
        centers = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 2)
        points = _hard_points(rng, window, grid, rho, 200)
        kinds = rng.integers(0, 3, len(points))
        got = _ball_counts(points, kinds, grid, rho)
        want = _ref_ball_counts(points, kinds, centers, rho)
        assert got.dtype == np.int64 and got.shape == (len(centers), 3)
        assert np.array_equal(got, want)
        assert want.sum() > 100
    empty = _ball_counts(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), grid, rho)
    assert np.array_equal(empty, np.zeros((len(centers), 3), dtype=np.int64))


def _ref_per_ball(counts, pair):
    """The per-ball reduction the sweep once kept: N_a (N_a - 1) for a
    same-tag pair, N_a N_b for a mixed one, from (nreal, ncenters, 3)
    counts, with each realization's mean over its balls."""
    cols = {"c": [0, 1, 2], "e": [0, 1], "s": [2]}
    na = counts[..., cols[pair[0]]].sum(axis=-1).astype(float)
    if pair[0] == pair[1]:
        return (na * (na - 1.0)).mean(axis=-1)
    return (na * counts[..., cols[pair[1]]].sum(axis=-1).astype(float)).mean(axis=-1)


def _ref_ratio(counts):
    """(value, SE) of the ratio reduced per ball, as repulsion_ratio once did."""
    num = _ref_per_ball(counts, ("c", "c"))
    den = counts.sum(axis=-1).mean(axis=-1)
    n = len(num)
    a, b = num.mean(), den.mean()
    cov = np.cov(np.stack([num, den]), ddof=1) / n
    grad = np.array([1.0 / b**2, -2.0 * a / b**3])
    return float(a / b**2), math.sqrt(max(float(grad @ cov @ grad), 0.0))


@pytest.mark.parametrize("nreal", [3, 7])
def test_ball_moments_give_the_per_ball_reduction_bit_for_bit(nreal):
    # Each realization keeps only its column sums and cross sums per
    # radius; every estimate read from them must be the bits the per-ball
    # counts gave, on hard points at three radii and with realizations
    # that hold no point.
    radii = (0.3, 0.5, 1.0)
    rng = np.random.default_rng(33 + nreal)
    x0, y0 = rng.uniform(-10.0, 10.0, 2)
    lx, ly = rng.uniform(4.5, 12.0, 2)
    window = ((x0, x0 + lx), (y0, y0 + ly))
    realizations = []
    for i in range(nreal):
        if i % 3 == 1:
            points = np.zeros((0, 2))
        else:
            points = np.concatenate([_hard_points(rng, window, _ball_grid(window, rho), rho, 30)
                                     for rho in radii])
        realizations.append((points, rng.integers(0, 3, len(points))))

    def realize(rho_list):
        for points, kinds in realizations:
            yield _reduce(points, kinds, window, rho_list)

    sw = _build_sweep(nreal, window, radii, realize)
    for rho in radii:
        counts = np.array([_ball_counts(points, kinds, _ball_grid(window, rho), rho)
                           for points, kinds in realizations])
        assert counts.sum() > 100
        for pair in (("c", "c"), ("e", "e"), ("s", "s"), ("e", "s")):
            est = second_factorial(sw, rho, pair)
            want = _jackknife_mean(_ref_per_ball(counts, pair))
            assert np.array_equal([est.value, est.std_error], want), (rho, pair)
        est = repulsion_ratio(sw, rho)
        assert np.array_equal([est.value, est.std_error], _ref_ratio(counts)), rho
    with pytest.raises(KeyError):
        second_factorial(sw, 0.4)
    with pytest.raises(KeyError):
        repulsion_ratio(sw, 0.4)


def test_poisson_control_memory_does_not_hold_every_ball():
    # A realization leaves its (3,) ball-count sums and (3, 3) cross sums,
    # not its 400 balls' counts, so 100 realizations peak under 256 KB and
    # 400 under 640 KB; keeping each ball's counts reads about 2.2 MB and
    # 8.8 MB.
    window = ((0.0, 20.0), (0.0, 20.0))
    poisson_control_ratio(0.0919, window, 0.5, 2, seed=(101, 5))
    for nreal, bound in ((100, 256 * 1024), (400, 640 * 1024)):
        tracemalloc.start()
        try:
            poisson_control_ratio(0.0919, window, 0.5, nreal, seed=(101, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (nreal, peak)


def test_default_window_scales_with_oscillation_length():
    w1 = default_window(RandomWave(1.0))
    w2 = default_window(RandomWave(2.0))
    side1 = w1[0][1] - w1[0][0]
    side2 = w2[0][1] - w2[0][0]
    assert side1 == pytest.approx(2.0 * side2, rel=1e-12)


def test_fit_scaling_with_a_zero_se_takes_the_unweighted_fit():
    # One exact input (SE 0) has no finite weight, so every row weighs the
    # same: the fit is the plain least-squares line through the log-log points.
    rho = np.geomspace(0.01, 0.1, 5)
    noise = np.array([0.1, -0.2, 0.05, 0.15, -0.1])
    values = 2.0 * rho**3 * np.exp(noise)
    ses = [0.0, 1e-3, 1e-9, 1.0, 1e-5]
    ests = [MomentEstimate(value=float(v), std_error=s, nsamples=10, rho=float(r))
            for r, v, s in zip(rho, values, ses)]
    slope, _ = np.polyfit(np.log(rho), np.log(values), 1)
    assert fit_scaling(ests).exponent == pytest.approx(slope, rel=1e-12)
