"""Conditional Monte-Carlo engine: every estimator against an independent route."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import planarcrit
from planarcrit import kacrice
from planarcrit.kacrice import (
    ConditionalGaussian,
    DegeneracyError,
    R_FLOOR_FRACTION,
    _pair_conditional,
    correlation_length,
    disc_pair_distance_density,
    gradient_pair_density,
    gradient_pair_density_asymptotic,
    one_point_intensity_mc,
    second_factorial_by_quadrature,
    small_ball_probability,
    two_point_correlation,
)
from planarcrit.models import (
    BargmannFock,
    Interpolation,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    derivative_covariance,
    sigma_derivatives,
)
from planarcrit.sampling import seeded_rng
from planarcrit.theory import k2_limit, lambda_c

RW1 = RandomWave(1.0)
D1 = sigma_derivatives(RW1)
HESSIAN = ((2, 0), (1, 1), (0, 2))


def test_correlation_length_random_wave_is_two_pi():
    assert correlation_length(RW1) == pytest.approx(2.0 * math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def test_conditioning_at_one_point_leaves_hessian_law_alone():
    # gradient and Hessian at the same point are independent (odd vs even
    # order), so the one-point law is the unconditional Hessian law: the
    # cross block is exactly zero for every family
    o = (0.0, 0.0)
    specs = [(o, (1, 0)), (o, (0, 1))] + [(o, a) for a in HESSIAN]
    models = [RW1, RandomWave(2.2), BargmannFock(1.0), BargmannFock(0.7),
              ShiftedRandomWave(0.8, 1.3, 1.5), PowerLawTruncated(2.0), PowerLawTruncated(10.0),
              Interpolation(0.35, RW1, PowerLawTruncated(2.0))]
    for model in models:
        cov = derivative_covariance(model, specs)
        assert np.all(cov[:2, 2:] == 0.0), model
    expected = np.array(
        [
            [12 * D1.mu0, 0.0, 4 * D1.mu0],
            [0.0, 4 * D1.mu0, 0.0],
            [4 * D1.mu0, 0.0, 12 * D1.mu0],
        ]
    )
    np.testing.assert_allclose(derivative_covariance(RW1, specs)[2:, 2:], expected, atol=1e-12)


def test_conditioning_agrees_with_regression_on_samples():
    # independent route: draw the unconditional joint law and estimate the
    # conditional covariance as the residual covariance of the least-squares
    # regression of targets on gradients (exact for Gaussians, no small-box
    # bias, unlike plain rejection near a measure-zero event)
    r = 0.5
    p1, p2 = (-r / 2.0, 0.0), (r / 2.0, 0.0)
    targets = [(p1, (2, 0)), (p1, (1, 1)), (p2, (0, 2))]
    # _pair_conditional's law mapped back to raw Hessians by
    # h = s +- (r/2) d: rows h(r/2, 0) then h(-r/2, 0), so p1 is its
    # second probe and p2 its first
    cond, _ = _pair_conditional(RW1, r)
    eye = np.eye(3)
    back = np.block([[eye, 0.5 * r * eye], [eye, -0.5 * r * eye]])
    law = (back @ cond @ back.T)[np.ix_([3, 4, 2], [3, 4, 2])]

    grads = [(p, a) for p in (p1, p2) for a in ((1, 0), (0, 1))]
    cov = derivative_covariance(RW1, grads + targets)
    # a double-precision Schur complement is exact enough at this r
    schur = cov[4:, 4:] - cov[:4, 4:].T @ np.linalg.solve(cov[:4, :4], cov[:4, 4:])
    np.testing.assert_allclose(law, schur, rtol=0.0, atol=1e-12)
    rng = seeded_rng(123)
    draws = rng.multivariate_normal(np.zeros(7), cov, size=400_000, method="cholesky")
    g, t = draws[:, :4], draws[:, 4:]
    beta, *_ = np.linalg.lstsq(g, t, rcond=None)
    resid = t - g @ beta
    sample_cov = np.cov(resid.T)
    np.testing.assert_allclose(sample_cov, law, rtol=0.05, atol=3e-5)
    # and the conditioning must have actually changed something
    uncond = cov[4:, 4:]
    assert abs(law[0, 0] - uncond[0, 0]) > 0.05 * uncond[0, 0]


def test_conditioning_rejects_coincident_points():
    with pytest.raises(ValueError, match="finite and positive"):
        _pair_conditional(RW1, 0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        gradient_pair_density(RW1, 0.0)


TRIANGLE_FAMILIES = [
    RW1,
    BargmannFock(1.0),
    ShiftedRandomWave(tau=0.8, s=1.3, k=1.5),
    PowerLawTruncated(2.0),
    Interpolation(0.35, RW1, PowerLawTruncated(2.0)),
]

# Parity blocks of the balanced pair law: for each Hessian row (s11,
# s12, s22, d11, d12, d22), the balanced gradient coordinate (avg d1,
# avg d2, diff d1 / r, diff d2 / r) of the same parity under x -> -x
# and y -> -y.
PARITY_BLOCK = np.array([2, 3, 2, 0, 1, 0])


@pytest.mark.parametrize("model", TRIANGLE_FAMILIES, ids=repr)
def test_pair_law_splits_into_four_parity_blocks(model):
    # symmetry, not rounding, makes the cross-parity entries vanish, so
    # they are exact zeros from the floor out to many correlation lengths
    cross_tg = PARITY_BLOCK[:, None] != np.arange(4)[None, :]
    cross_tt = PARITY_BLOCK[:, None] != PARITY_BLOCK[None, :]
    floor = R_FLOOR_FRACTION * correlation_length(model)
    for r in np.geomspace(floor * (1.0 + 1e-9), 50.0, 16):
        gg, tg, _ = kacrice._balanced_blocks(model, float(r))
        cond, _ = _pair_conditional(model, float(r))
        assert np.all(gg[~np.eye(4, dtype=bool)] == 0.0), r
        assert np.all(tg[cross_tg] == 0.0), r
        assert np.all(cond[cross_tt] == 0.0), r


def _mixing_matrix(nper, r):
    """(averages, differences / r) of two per-point blocks of length nper, in 80 bits."""
    eye = np.eye(nper, dtype=np.longdouble)
    return np.block([[0.5 * eye, 0.5 * eye], [eye / r, -eye / r]])


@pytest.mark.parametrize("model", TRIANGLE_FAMILIES, ids=repr)
def test_balanced_blocks_equal_the_mixing_matrix_products(model):
    # The blocks mix the two points' rows, then their columns, by
    # arithmetic; the reference forms a C a^T with the mixing matrix a.
    # They agree by value (an exact zero may differ in sign).
    floor = R_FLOOR_FRACTION * correlation_length(model)
    grad, hess = ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))
    for r in np.geomspace(floor * (1.0 + 1e-9), 50.0, 16):
        rld = np.longdouble(r)
        points = ((rld / 2.0, np.longdouble(0.0)), (-rld / 2.0, np.longdouble(0.0)))
        specs = [(p, alpha) for orders in (grad, hess) for p in points for alpha in orders]
        cov = derivative_covariance(model, specs)
        a, b = _mixing_matrix(2, rld), _mixing_matrix(3, rld)
        want = (a @ cov[:4, :4] @ a.T, b @ cov[4:, :4] @ a.T, b @ cov[4:, 4:] @ b.T)
        for got, ref in zip(kacrice._balanced_blocks(model, float(r)), want):
            assert got.dtype == np.longdouble and np.array_equal(got, ref), r


@pytest.mark.parametrize("model", [RW1, BargmannFock(1.0), PowerLawTruncated(2.0)], ids=repr)
def test_degenerate_gradient_pair_raises_naming_r(model):
    # far below the floor a balanced gradient variance rounds to zero or
    # below; _pair_conditional itself refuses it
    with pytest.raises(DegeneracyError, match=r"degenerate at r = 1e-11"):
        _pair_conditional(model, 1e-11)


@pytest.mark.parametrize("model", [*TRIANGLE_FAMILIES, PowerLawTruncated(100.0)], ids=repr)
def test_batched_pair_laws_are_the_per_distance_laws_bit_for_bit(model):
    # one batched assembly gives every distance the bytes of its own
    # call, from just above the floor to lags past the 80-bit series'
    # reach (|k^2 r^2 / 4| > 30 for some ring or wave number k at r = 40),
    # where the double hyp0f1 takes over
    floor = R_FLOOR_FRACTION * correlation_length(model)
    rs = np.geomspace(floor * (1.0 + 1e-9), 40.0, 41)
    conds, densities = _pair_conditional(model, rs)
    assert conds.shape == (len(rs), 6, 6) and densities.shape == (len(rs),)
    for r, cond, density in zip(rs, conds, densities):
        one_cond, one_density = _pair_conditional(model, float(r))
        assert cond.tobytes() == one_cond.tobytes(), r
        assert float(density).hex() == one_density.hex(), r


def test_pair_law_refuses_a_longdouble_without_80_bits(monkeypatch):
    # A platform whose longdouble has fewer than 63 mantissa bits gets an
    # error naming them, never a silently coarser law; more bits (a quad
    # longdouble) let the law through unchanged.
    law = _pair_conditional(RW1, 0.05)
    monkeypatch.setattr(kacrice, "_LONGDOUBLE_NMANT", 52)
    for route in (lambda: _pair_conditional(RW1, np.array([0.05, 0.5])),
                  lambda: gradient_pair_density(RW1, 0.05),
                  lambda: two_point_correlation(RW1, 0.05, nsamples=100, seed=0),
                  lambda: second_factorial_by_quadrature(RW1, 0.3, nsamples_per_node=100,
                                                         seed=0)):
        with pytest.raises(kacrice.PrecisionError, match="longdouble here has 52"):
            route()
    assert issubclass(kacrice.PrecisionError, ArithmeticError)
    assert not issubclass(kacrice.PrecisionError, DegeneracyError)
    assert one_point_intensity_mc(RW1, nsamples=100, seed=0).value > 0
    monkeypatch.setattr(kacrice, "_LONGDOUBLE_NMANT", 112)
    cond, phi = _pair_conditional(RW1, 0.05)
    assert cond.tobytes() == law[0].tobytes() and phi == law[1]


def test_batched_pair_law_names_the_first_degenerate_distance():
    with pytest.raises(DegeneracyError, match=r"degenerate at r = 1e-11: "):
        _pair_conditional(RW1, np.array([0.5, 1e-11, 0.3, 1e-12]))
    with pytest.raises(ValueError, match="finite and positive, got 0.0"):
        _pair_conditional(RW1, np.array([0.5, 0.0, 1e-11]))


def test_conditional_gaussian_draws_transform_standard_normals():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    law = ConditionalGaussian(cov)
    z = law.sample(seeded_rng(0), 2000)
    (fac,) = law._fac
    np.testing.assert_allclose(fac @ fac.T, cov, rtol=1e-14, atol=1e-14)
    # sample gives the standard normal rows of the stream, column-major,
    # and _rows maps them: row i is the i-th standard normal row, mapped
    normals = seeded_rng(0).standard_normal((2000, 2))
    np.testing.assert_array_equal(z, normals)
    assert z.T.flags.c_contiguous
    draws = law._rows(z, 0, np.empty((2, 2000))).T
    np.testing.assert_array_equal(draws, normals @ fac.T)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.15)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.15)


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_conditional_gaussian_rejects_indefinite_covariance(scale):
    # The eigenvalue check is relative to the law's top eigenvalue, so a
    # small law is as indefinite as a large one.
    law = ConditionalGaussian(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DegeneracyError):
        law.sample(seeded_rng(0), 4)


# ---------------------------------------------------------------------------
# One-point statistics
# ---------------------------------------------------------------------------


def _det_magnitude_by_trace_quadrature():
    # second, independent route to E|det H|: conditional on the trace t the
    # determinant is a shifted chi-square-like variable with closed-form
    # absolute mean; integrate that against the trace density N(0, 32 mu0)
    mu0 = D1.mu0
    s2 = 32.0 * mu0  # Var(trace)

    def inner(t):
        return 4.0 * mu0 * (-2.0 + 4.0 * math.exp(-(t**2) / (32.0 * mu0)) + t**2 / (16.0 * mu0))

    val, err = integrate.quad(
        lambda t: inner(t) * math.exp(-(t**2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2),
        -12.0 * math.sqrt(s2),
        12.0 * math.sqrt(s2),
    )
    assert err < 1e-9
    return val


def test_expected_det_magnitude_two_routes():
    target = 16.0 * D1.mu0 / math.sqrt(3.0)
    # route 1: trace-conditional quadrature
    assert _det_magnitude_by_trace_quadrature() == pytest.approx(target, rel=1e-10)
    # route 2: the MC engine; intensity = |det| mean / (4 pi |eta0|)
    est = one_point_intensity_mc(RW1, nsamples=200_000, seed=0)
    det_mean = est.value * 4.0 * math.pi * abs(D1.eta0)
    det_se = est.std_error * 4.0 * math.pi * abs(D1.eta0)
    assert abs(det_mean - target) < 4.0 * det_se


def test_one_point_intensity_matches_closed_form():
    est = one_point_intensity_mc(RW1, nsamples=200_000, seed=0)
    assert abs(est.value - lambda_c(D1)) < 4.0 * est.std_error
    assert est.std_error < 0.01 * est.value


def test_one_point_intensity_of_the_untruncated_power_law():
    # the one-point law needs the profile only at lag 0, where the
    # untruncated tail is closed form; lambda_c is finite though R_6 is not
    model = PowerLawTruncated(math.inf)
    est = one_point_intensity_mc(model, nsamples=200_000, seed=0)
    assert abs(est.value - lambda_c(sigma_derivatives(model))) < 4.0 * est.std_error


def test_one_point_kind_partition_is_exact():
    kw = dict(nsamples=50_000, seed=4)
    c = one_point_intensity_mc(RW1, kind="c", **kw)
    e = one_point_intensity_mc(RW1, kind="e", **kw)
    s = one_point_intensity_mc(RW1, kind="s", **kw)
    lo = one_point_intensity_mc(RW1, kind="min", **kw)
    hi = one_point_intensity_mc(RW1, kind="max", **kw)
    # same draws, indicator partition: identities hold draw by draw
    assert e.value + s.value == pytest.approx(c.value, rel=1e-12)
    assert lo.value + hi.value == pytest.approx(e.value, rel=1e-12)
    # antithetic pairs mirror the Hessian, swapping min and max exactly
    assert lo.value == pytest.approx(hi.value, rel=1e-12)


# ---------------------------------------------------------------------------
# Gradient-pair density
# ---------------------------------------------------------------------------


def test_gradient_pair_density_two_routes():
    # independent route: plain float64 4x4 gradient covariance determinant,
    # trustworthy at these separations
    for r in (0.5, 0.1):
        p1, p2 = (-r / 2.0, 0.0), (r / 2.0, 0.0)
        grads = [(p, a) for p in (p1, p2) for a in ((1, 0), (0, 1))]
        cov = derivative_covariance(RW1, grads)
        direct = 1.0 / ((2.0 * math.pi) ** 2 * math.sqrt(np.linalg.det(cov)))
        assert gradient_pair_density(RW1, r) == pytest.approx(direct, rel=1e-9)


def test_gradient_pair_density_reaches_small_distance_law():
    r = 0.01
    got = gradient_pair_density(RW1, r)
    ref = gradient_pair_density_asymptotic(D1, r)
    assert got == pytest.approx(ref, rel=1e-3)
    # the law diverges like r^-2: doubling r quarters the reference
    assert gradient_pair_density_asymptotic(D1, 2 * r) == pytest.approx(ref / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Two-point correlations
# ---------------------------------------------------------------------------


def test_two_point_type_partition_is_exact():
    kw = dict(nsamples=100_000, seed=7)
    r = 0.05
    cc = two_point_correlation(RW1, r, pair=("c", "c"), **kw)
    ee = two_point_correlation(RW1, r, pair=("e", "e"), **kw)
    ss = two_point_correlation(RW1, r, pair=("s", "s"), **kw)
    es = two_point_correlation(RW1, r, pair=("e", "s"), **kw)
    se = two_point_correlation(RW1, r, pair=("s", "e"), **kw)
    # same draws, so (c,c) splits into the four typed quadrants draw by draw
    assert ee.value + ss.value + es.value + se.value == pytest.approx(cc.value, rel=1e-10)
    # the two orderings agree in law but not draw by draw
    assert es.value != se.value
    assert abs(es.value - se.value) < 4.0 * math.hypot(es.std_error, se.std_error)


def test_two_point_approaches_limit_constant():
    a = k2_limit(D1)
    est = two_point_correlation(RW1, 0.01, pair=("c", "c"), nsamples=400_000, seed=3)
    assert abs(est.value - a) < max(4.0 * est.std_error, 0.02 * a)


def test_mixed_pair_is_half_of_all_pairs_at_small_distance():
    kw = dict(nsamples=400_000, seed=5)
    cc = two_point_correlation(RW1, 0.01, pair=("c", "c"), **kw)
    es = two_point_correlation(RW1, 0.01, pair=("e", "s"), **kw)
    assert es.value / cc.value == pytest.approx(0.5, abs=0.02)


def test_two_point_below_floor_raises():
    floor = R_FLOOR_FRACTION * correlation_length(RW1)
    with pytest.raises(DegeneracyError):
        two_point_correlation(RW1, 0.5 * floor, nsamples=100, seed=0)
    # a distance that is not a finite positive number is bad input, not
    # a degeneracy, and is rejected before the floor is consulted
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            two_point_correlation(RW1, r, nsamples=100, seed=0)
    # a pair is two tags, each c, e or s; min and max exist at one point only
    for pair in (("c", "ridge"), ("min", "max"), ("c", "min"), ("e",), ("c", "c", "e")):
        with pytest.raises(ValueError):
            two_point_correlation(RW1, 0.05, pair=pair, nsamples=100, seed=0)


def test_extended_precision_keeps_average_block_at_r4_scale():
    # conditional variances of the averaged entries aligned with the pair
    # axis collapse like r^4; a double-precision Schur complement bottoms
    # out near 1e-13 absolute and would fail this bound at r = 0.005.
    # The transverse curvature is not pinned by the gradients and keeps
    # an O(1) variance (-> 1/3 in the r -> 0 limit).
    for r in (0.005, 0.01):
        cov, _ = _pair_conditional(RW1, r)
        axis_diag = np.diag(cov)[:2]
        assert np.all(axis_diag > 0)
        assert np.all(axis_diag < 2e-4 * r**4)
        assert np.diag(cov)[2] == pytest.approx(1.0 / 3.0, abs=0.01)
    v1 = np.diag(_pair_conditional(RW1, 0.005)[0])[:2]
    v2 = np.diag(_pair_conditional(RW1, 0.01)[0])[:2]
    np.testing.assert_allclose(v2 / v1, 16.0, rtol=0.25)


def test_two_point_se_calibrated_over_seeds():
    # claimed standard errors should cover the seed-to-seed scatter
    vals, ses = [], []
    for seed in range(6):
        est = two_point_correlation(RW1, 0.02, pair=("c", "c"), nsamples=50_000, seed=seed)
        vals.append(est.value)
        ses.append(est.std_error)
    scatter = np.std(vals, ddof=1)
    assert scatter < 2.5 * np.mean(ses)


# ---------------------------------------------------------------------------
# Ball moments by quadrature
# ---------------------------------------------------------------------------


def test_disc_distance_density_integrates_to_one():
    rho = 0.7
    mass, err = integrate.quad(lambda u: disc_pair_distance_density(u, rho), 0.0, 2.0 * rho)
    assert err < 1e-7
    assert mass == pytest.approx(1.0, abs=1e-7)
    assert disc_pair_distance_density(2.0 * rho + 0.1, rho) == 0.0


def test_disc_distance_density_against_rejection_mc():
    # independent route: draw point pairs uniformly in the disc and compare
    # the empirical mean distance with the density's first moment
    rho = 1.0
    rng = seeded_rng(42)
    pts = rng.uniform(-rho, rho, size=(600_000, 2))
    inside = np.sum(pts**2, axis=1) <= rho**2
    pts = pts[inside]
    n = (len(pts) // 2) * 2
    dists = np.hypot(*(pts[0:n:2] - pts[1:n:2]).T)
    expected, _ = integrate.quad(
        lambda u: u * disc_pair_distance_density(u, rho), 0.0, 2.0 * rho
    )
    se = dists.std(ddof=1) / math.sqrt(len(dists))
    assert abs(dists.mean() - expected) < 4.0 * se
    # distribution shape, not just the mean
    grid = np.linspace(0.0, 2.0 * rho, 4001)
    cdf_grid = integrate.cumulative_trapezoid(
        disc_pair_distance_density(grid, rho), grid, initial=0.0
    )
    ks = stats.kstest(dists, lambda u: np.interp(u, grid, cdf_grid))
    assert ks.pvalue > 1e-4


def test_quadrature_ball_moment_matches_asymptote():
    rho = 0.2
    est = second_factorial_by_quadrature(RW1, rho, nsamples_per_node=20_000, seed=11)
    a = k2_limit(D1)
    asym = a * (math.pi * rho**2) ** 2
    assert est.value == pytest.approx(asym, rel=0.05)
    assert est.std_error < 0.02 * est.value


def test_quadrature_labels_its_normalized_pair():
    est = second_factorial_by_quadrature(
        RW1, 0.3, pair=("saddle", "extremum"), nsamples_per_node=200, seed=1
    )
    assert est.label == "(s,e)"


def test_quadrature_rejects_min_max_tags():
    # a pair function takes c, e or s at each position
    for pair in (("min", "min"), ("e", "maximum")):
        with pytest.raises(ValueError, match="c, e or s"):
            second_factorial_by_quadrature(RW1, 0.3, pair=pair, nsamples_per_node=200, seed=1)


def test_quadrature_thread_count_does_not_change_bytes():
    kw = dict(nsamples_per_node=2_000, seed=2)
    a = second_factorial_by_quadrature(RW1, 0.3, threads=1, **kw)
    b = second_factorial_by_quadrature(RW1, 0.3, threads=3, **kw)
    assert a.value == b.value
    assert a.std_error == b.std_error


# ---------------------------------------------------------------------------
# Scalar probability oracle
# ---------------------------------------------------------------------------


def test_small_ball_probability_against_quadrature():
    # P(|Z1 Z2| < r) = E P(|Z1| < r / |Z2|), integrated over Z2 from 0: a
    # lower limit above 0 drops about 0.8 times it, 1e-9 of the value at
    # r = 1e-4, so the relative tolerance needs it at 0.
    for r in (1e-4, 1e-3, 1e-2, 0.3, 2.0):
        quad, err = integrate.quad(
            lambda z: 2.0
            * math.erf(r / (abs(z) * math.sqrt(2.0)))
            * math.exp(-(z**2) / 2.0)
            / math.sqrt(2.0 * math.pi),
            0.0,
            30.0,
            epsabs=0.0,
            epsrel=1e-13,
        )
        assert err < 1e-12 * quad, r
        assert abs(small_ball_probability(r) - quad) < 1e-12 * quad, r


# ---------------------------------------------------------------------------
# Antithetic pairs evaluated once: exact equality with both members
# ---------------------------------------------------------------------------
#
# The reference below draws the interleaved (+x, -x) rows and evaluates
# the integrand on both members of every pair before averaging.  The
# engine evaluates each pair once from its "+" member; the estimates must
# agree bit for bit, not just in law.


def _ref_indicator(kind, det, h11):
    return {
        "c": np.ones_like(det, dtype=bool),
        "e": det > 0.0,
        "s": det < 0.0,
        "min": (det > 0.0) & (h11 > 0.0),
        "max": (det > 0.0) & (h11 < 0.0),
    }[kind]


def _ref_interleaved_draws(fac, rng, n):
    half = (n + 1) // 2
    draws = np.empty((2 * half, len(fac)))
    draws[0::2] = rng.standard_normal((half, len(fac))) @ fac.T
    draws[1::2] = -draws[0::2]
    return draws[:n]


def _ref_blocked(fac, npairs, seed, values, block=None):
    """(mean, SE) of both-member pair averages of values(draws), block by block.

    Blocks hold max(2, kacrice._BLOCK_DRAWS) pairs unless block is given,
    and a lone last pair joins the block before it.  Each block gives its
    sum and its squared deviations about its mean, summed two-pass; they
    are merged into running totals by the pairwise update of Chan, Golub
    & LeVeque, the deviations gaining delta^2 n_a n_b / (n_a + n_b).
    """
    block = max(2, block or kacrice._BLOCK_DRAWS)
    rng = seeded_rng(seed)
    count, tot, dev2 = 0, 0.0, 0.0
    while count < npairs:
        n = block if npairs - count - block > 1 else npairs - count
        vals = values(_ref_interleaved_draws(fac, rng, 2 * n))
        pairs = 0.5 * (vals[0::2] + vals[1::2])
        total = float(pairs.sum())
        dev = pairs - total / n
        merged = float((dev * dev).sum())
        if count:
            delta = total / n - tot / count
            merged += delta * delta * (count * n / (count + n))
        dev2 += merged
        tot += total
        count += n
    return tot / npairs, math.sqrt(dev2 / (npairs - 1)) / math.sqrt(npairs)


def _ref_one_point(model, n, seed, kind):
    o = np.zeros(2)
    (fac,) = ConditionalGaussian(derivative_covariance(model, [(o, a) for a in HESSIAN]))._fac

    def values(draws):
        h11, h12, h22 = draws.T
        det = h11 * h22 - h12**2
        return np.abs(det) * _ref_indicator(kind, det, h11)

    mean, se = _ref_blocked(fac, (n + 1) // 2, seed, values)
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))
    return phi * mean, phi * se


def _folded_factor(cond_cov, r):
    """The balanced law's factor F mapped to the two Hessians' rows
    F_avg +- (r/2) F_diff, so that draws are (h(r/2, 0), h(-r/2, 0))."""
    (fac,) = ConditionalGaussian(cond_cov)._fac
    diff = (r / 2.0) * fac[3:]
    return np.concatenate([fac[:3] + diff, fac[:3] - diff])


def _ref_two_point(model, r, pair, n, seed, block=None):
    cond_cov, phi = _pair_conditional(model, r)

    def values(draws):
        h1, h2 = draws[:, :3], draws[:, 3:]
        det1 = h1[:, 0] * h1[:, 2] - h1[:, 1] ** 2
        det2 = h2[:, 0] * h2[:, 2] - h2[:, 1] ** 2
        return (
            np.abs(det1 * det2)
            * _ref_indicator(pair[0], det1, h1[:, 0])
            * _ref_indicator(pair[1], det2, h2[:, 0])
        )

    mean, se = _ref_blocked(_folded_factor(cond_cov, r), (n + 1) // 2, seed, values, block)
    return phi * mean, phi * se


PAIRS = [("c", "c"), ("e", "e"), ("s", "s"), ("e", "s")]
# Every ordered tag pair: each is its own product of signed parts.
ALL_PAIRS = [(a, b) for a in "ces" for b in "ces"]


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: "-".join(p))
@pytest.mark.parametrize("nsamples", [20_000, 20_001])
# Typed pairs are rare at small r, so r = 4 gives the typed indicators
# weight.
@pytest.mark.parametrize("r", [0.005, 0.05, 4.0])
def test_two_point_equals_both_member_reference(pair, nsamples, r):
    est = two_point_correlation(RW1, r, pair=pair, nsamples=nsamples, seed=(7, 2))
    assert (est.value, est.std_error) == _ref_two_point(RW1, r, pair, nsamples, (7, 2))
    assert est.nsamples == nsamples


def test_two_point_equals_reference_across_blocks(monkeypatch):
    monkeypatch.setattr(kacrice, "_BLOCK_DRAWS", 1000)
    for pair, nsamples in ((("e", "s"), 4001), (("s", "s"), 4000)):
        est = two_point_correlation(RW1, 4.0, pair=pair, nsamples=nsamples, seed=2)
        assert est.value > 0
        assert (est.value, est.std_error) == _ref_two_point(RW1, 4.0, pair, nsamples, 2)
    for kind, nsamples in (("min", 4001), ("s", 4000)):
        est = one_point_intensity_mc(RW1, nsamples=nsamples, seed=2, kind=kind)
        assert (est.value, est.std_error) == _ref_one_point(RW1, nsamples, 2, kind)


@pytest.mark.parametrize("block", [1, 7, 10, 1000])
def test_each_block_size_gives_the_reference_at_that_block_size(monkeypatch, block):
    # Blocks are the unit of the reduction, so the block size fixes the
    # bits: every call, one law or a stack, is the reference reduced in
    # blocks of max(2, block) pairs, the last one often short or holding
    # a lone last pair.
    monkeypatch.setattr(kacrice, "_BLOCK_DRAWS", block)
    est = one_point_intensity_mc(RW1, nsamples=4001, seed=2, kind="min")
    assert (est.value, est.std_error) == _ref_one_point(RW1, 4001, 2, "min")
    rs = (0.05, 0.3, 4.0)
    for pair in ALL_PAIRS:
        est = two_point_correlation(RW1, 4.0, pair=pair, nsamples=4001, seed=2)
        assert (est.value, est.std_error) == _ref_two_point(RW1, 4.0, pair, 4001, 2)
        ests = two_point_correlation(RW1, np.array(rs), pair=pair, nsamples=4001, seed=2)
        for est, r in zip(ests, rs):
            assert (est.value, est.std_error) == _ref_two_point(RW1, r, pair, 4001, 2)


STACK_RS = (0.005, 0.02, 0.05, 0.3, 4.0)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: "-".join(p))
def test_stacked_rows_are_the_one_distance_calls_bit_for_bit(pair):
    # Each row of the stack reads the stream that a one-distance call
    # with the same seed reads, and reduces it alone, block by block.
    nsamples = 20_001
    ests = two_point_correlation(RW1, np.array(STACK_RS), pair=pair, nsamples=nsamples,
                                 seed=(7, 0))
    assert len(ests) == len(STACK_RS)
    for est, r in zip(ests, STACK_RS):
        assert est == two_point_correlation(RW1, r, pair=pair, nsamples=nsamples, seed=(7, 0))
        assert (est.value, est.std_error) == _ref_two_point(RW1, r, pair, nsamples, (7, 0))
        assert type(est.value) is float and type(est.rho) is float
    # A list of distances is an array.
    assert two_point_correlation(RW1, list(STACK_RS), pair=pair, nsamples=nsamples,
                                 seed=(7, 0)) == ests


@pytest.mark.parametrize("block, nsamples", [(100, 40_001), (None, 1_000_001)])
def test_stacked_rows_keep_the_one_distance_bits_over_many_blocks(monkeypatch, block,
                                                                   nsamples):
    # Over 201 blocks of 100 pairs, and over 123 blocks at the default
    # size (500 001 pairs, past 2^20 // 5), every row of a stack of five
    # reduces as its one-distance call does, to the same bits.
    if block is not None:
        monkeypatch.setattr(kacrice, "_BLOCK_DRAWS", block)
    ests = two_point_correlation(RW1, np.array(STACK_RS), pair="ss", nsamples=nsamples,
                                 seed=(7, 1))
    for est, r in zip(ests, STACK_RS):
        assert est.value > 0
        assert est == two_point_correlation(RW1, r, pair="ss", nsamples=nsamples, seed=(7, 1))


def test_one_distance_array_gives_the_scalar_bits():
    for r in (0.005, 0.3, 4.0):
        (est,) = two_point_correlation(RW1, np.array([r]), pair=("e", "e"), nsamples=4001,
                                       seed=3)
        assert est == two_point_correlation(RW1, r, pair=("e", "e"), nsamples=4001, seed=3)


@pytest.mark.parametrize("model", TRIANGLE_FAMILIES, ids=repr)
def test_folded_factor_draws_the_two_hessians(model):
    # A pair law keeps one factor G, folded once from the balanced one:
    # its rows draw h(r/2, 0) and h(-r/2, 0), so G G^T = T C T^T for the
    # balanced law C and T = [[I, r/2 I], [I, -r/2 I]].  Each law of a
    # stack folds to the bits of its own one-law call and of the rows
    # F_avg +- (r/2) F_diff.
    floor = R_FLOOR_FRACTION * correlation_length(model)
    rs = np.geomspace(floor * (1.0 + 1e-9), 4.0, 9)
    conds, _ = _pair_conditional(model, rs)
    stack = ConditionalGaussian(conds, half=rs / 2.0)._fac
    assert stack.shape == (len(rs), 6, 6)
    eye = np.eye(3)
    for fac, cond, r in zip(stack, conds, rs):
        t = np.block([[eye, 0.5 * r * eye], [eye, -0.5 * r * eye]])
        law = t @ cond @ t.T
        assert np.abs(fac @ fac.T - law).max() <= 1e-12 * np.diagonal(law).max(), r
        (one,) = ConditionalGaussian(cond, half=np.array([r / 2.0]))._fac
        assert fac.tobytes() == one.tobytes() == _folded_factor(cond, r).tobytes(), r


@pytest.mark.parametrize("model", TRIANGLE_FAMILIES, ids=repr)
def test_fold_agrees_with_the_balanced_arithmetic_on_the_same_draws(model):
    # The same normals mapped by the balanced factor, with the Hessians
    # rebuilt as avg +- (r/2) diff from the draws, give the engine's K2
    # and SE to rounding for every tag pair: the fold moves bits, not
    # the law.  The block-by-block reduction moves only the last bits of
    # the plain mean and SE.
    nsamples = 100_001
    ndraws = (nsamples + 1) // 2
    floor = R_FLOOR_FRACTION * correlation_length(model)
    rs = np.geomspace(floor * (1.0 + 1e-9), 4.0, 6)
    conds, phis = _pair_conditional(model, rs)
    z = seeded_rng(5).standard_normal((ndraws, 6))
    dets = []
    for fac, r in zip(ConditionalGaussian(conds)._fac, rs):
        avg, diff = np.split(z @ fac.T, 2, axis=1)
        hessians = avg + (r / 2.0) * diff, avg - (r / 2.0) * diff
        dets.append([h[:, 0] * h[:, 2] - h[:, 1] ** 2 for h in hessians])

    def typed(kind, det):
        return {"c": 1.0, "e": det > 0.0, "s": det < 0.0}[kind]

    for pair in ALL_PAIRS:
        ests = two_point_correlation(model, rs, pair=pair, nsamples=nsamples, seed=5)
        assert ests[-1].value > 0.0, pair
        for est, phi, (det1, det2) in zip(ests, phis, dets):
            values = np.abs(det1 * det2) * typed(pair[0], det1) * typed(pair[1], det2)
            expected = (phi * values.mean(), phi * values.std(ddof=1) / math.sqrt(ndraws))
            np.testing.assert_allclose((est.value, est.std_error), expected, rtol=1e-12,
                                       atol=0.0, err_msg=f"{pair} r = {est.rho}")


def test_one_law_is_a_stack_of_one(monkeypatch):
    # One law takes the stack's path: its factor is the stack of one, the
    # driver returns arrays of one, and its draws come in the same blocks
    # as a stack's.
    cov, _ = _pair_conditional(RW1, 0.3)
    one, stack = ConditionalGaussian(cov), ConditionalGaussian(cov[None])
    assert one._fac.shape == stack._fac.shape == (1, 6, 6)
    assert one._fac.tobytes() == stack._fac.tobytes()

    def integrand(i, rows, out):
        np.abs(np.multiply(rows[0], rows[3], out=rows[0]), out=out)

    (m1, e1), (m2, e2) = (kacrice._mc_mean(law, integrand, 5001, 3)
                          for law in (one, stack))
    assert m1.shape == e1.shape == (1,)
    assert (m1.tobytes(), e1.tobytes()) == (m2.tobytes(), e2.tobytes())
    blocks = []
    sample = ConditionalGaussian.sample

    def counted(self, rng, nsamples, *out):
        blocks.append(nsamples)
        return sample(self, rng, nsamples, *out)

    monkeypatch.setattr(ConditionalGaussian, "sample", counted)
    nsamples = 5 * kacrice._BLOCK_DRAWS + 1
    two_point_correlation(RW1, 0.3, nsamples=nsamples, seed=0)
    one_blocks = blocks[:]
    blocks.clear()
    two_point_correlation(RW1, np.array([0.05, 0.3, 4.0]), nsamples=nsamples, seed=0)
    assert blocks == one_blocks and len(blocks) == 3


def test_stacked_rows_are_correlated_and_each_keeps_its_law():
    # The rows share one normal stream: their pair averages move together
    # from seed to seed, yet each row's seed-to-seed scatter is covered by
    # its own SE, as the one-distance call's is.
    rs = np.array([0.3, 0.35])
    runs = np.array([[(e.value, e.std_error)
                      for e in two_point_correlation(RW1, rs, nsamples=4001, seed=s)]
                     for s in range(12)])
    values, ses = runs[..., 0], runs[..., 1]
    assert np.corrcoef(values.T)[0, 1] > 0.9
    assert np.all(values.std(axis=0, ddof=1) < 2.5 * ses.mean(axis=0))


def test_distance_arrays_must_be_one_dimensional_and_nonempty():
    for r in (np.array([]), np.array([[0.1, 0.2]])):
        with pytest.raises(ValueError, match="one distance or a 1-D array"):
            two_point_correlation(RW1, r, nsamples=100, seed=0)


def test_a_bad_distance_or_law_anywhere_in_a_stack_raises_before_any_draw(monkeypatch):
    calls = []
    sample = ConditionalGaussian.sample

    def counted(self, rng, nsamples, *out):
        calls.append(nsamples)
        return sample(self, rng, nsamples, *out)

    monkeypatch.setattr(ConditionalGaussian, "sample", counted)
    # The counter sees a stack's draws: one block of 50 pairs of common
    # normals, which every law of the stack then maps.
    two_point_correlation(RW1, np.array([0.05, 4.0]), nsamples=100, seed=0)
    assert calls == [50]
    calls.clear()
    floor = R_FLOOR_FRACTION * correlation_length(RW1)
    with pytest.raises(DegeneracyError, match="below the numerical-rank floor"):
        two_point_correlation(RW1, np.array([0.05, 0.3, 0.5 * floor]), nsamples=100, seed=0)
    with pytest.raises(ValueError, match="finite and positive, got inf"):
        two_point_correlation(RW1, np.array([0.05, math.inf, 0.3]), nsamples=100, seed=0)
    # The last law of the stack is indefinite.
    pair_conditional = kacrice._pair_conditional

    def spoilt(model, r):
        cond, phi = pair_conditional(model, r)
        cond[-1] = -cond[-1]
        return cond, phi

    monkeypatch.setattr(kacrice, "_pair_conditional", spoilt)
    with pytest.raises(DegeneracyError, match="conditional covariance has eigenvalue"):
        two_point_correlation(RW1, np.array([0.05, 0.3, 4.0]), nsamples=100, seed=0)
    assert calls == []


def test_monte_carlo_memory_stays_flat():
    # Two million pairs are drawn, integrated and reduced a block at a
    # time, into reused buffers.
    tracemalloc.start()
    try:
        two_point_correlation(RW1, 0.01, ("e", "e"), nsamples=4_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_stacked_monte_carlo_memory_stays_flat():
    # Five distances share one (5, block) buffer of pair averages and one
    # block of normals, so the peak is about the one-distance call's.
    tracemalloc.start()
    try:
        two_point_correlation(RW1, np.geomspace(0.005, 0.05, 5), ("e", "e"),
                              nsamples=4_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_driver_memory_does_not_grow_with_the_budget():
    # The driver holds one block's normals, rows and values and a few
    # running totals, whatever the budget: ten times the budget leaves
    # the traced peak of a 5-distance call under 1.5 MB and within 64 KB
    # of where it was.  A buffer of values that grows with the budget, or
    # a list of per-block statistics, passes one of the bounds.
    rs = np.geomspace(0.005, 0.05, 5)
    two_point_correlation(RW1, rs, ("e", "e"), nsamples=1001, seed=1)
    peaks = []
    for nsamples in (400_000, 4_000_000):
        tracemalloc.start()
        try:
            two_point_correlation(RW1, rs, ("e", "e"), nsamples=nsamples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5e6, peaks
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_a_stack_maps_one_laws_rows_at_a_time():
    # A block of common normals is mapped law by law into one reused
    # buffer, so a 5-distance call peaks no higher than a one-distance
    # call with as many pairs, plus what each of the four extra laws
    # keeps: its row of the buffer of values, its 6 x 6 conditional
    # covariance and factor, and under 128 B of bookkeeping (its density,
    # half distance and running totals).  Holding every law's draws of a
    # block at once lifts the peak past that.
    nsamples = 200_001
    npairs = (nsamples + 1) // 2
    rs = np.geomspace(0.005, 0.05, 5)
    peaks = []
    for r in (0.005, rs):
        two_point_correlation(RW1, r, ("e", "e"), nsamples=nsamples, seed=1)
        tracemalloc.start()
        try:
            two_point_correlation(RW1, r, ("e", "e"), nsamples=nsamples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (len(rs) - 1) * (npairs * 8 + 2 * 6 * 6 * 8 + 128), peaks


def test_pairs_that_fail_their_type_write_positive_zero(monkeypatch):
    # The integrands write +0.0, never -0.0, wherever a pair fails its
    # type: the failing position's signed part is +0.0, so the product
    # is; a -0.0 there would make a row with no typed pair report its mean
    # as -0.0.
    blocks = []
    mc_mean = kacrice._mc_mean

    def spied(law, integrand, ndraws, seed):
        def spy(i, rows, out):
            integrand(i, rows, out)
            blocks.append(out.copy())
        return mc_mean(law, spy, ndraws, seed)

    monkeypatch.setattr(kacrice, "_mc_mean", spied)
    rs = np.array([0.005, 0.3, 4.0])
    for pair in ALL_PAIRS:
        blocks.clear()
        ests = two_point_correlation(RW1, rs, pair=pair, nsamples=4001, seed=2)
        values = np.concatenate(blocks)
        assert not np.signbit(values).any(), pair
        assert (values == 0.0).any() == (pair != ("c", "c")), pair
        if pair == ("e", "e"):
            # No pair at r = 0.005 is a pair of extrema.
            assert (ests[0].value, ests[0].std_error) == (0.0, 0.0)
            assert not np.signbit([ests[0].value, ests[0].std_error]).any()
    for kind in ("c", "e", "s", "min", "max"):
        blocks.clear()
        one_point_intensity_mc(RW1, nsamples=4001, seed=2, kind=kind)
        values = np.concatenate(blocks)
        assert not np.signbit(values).any(), kind
        assert (values == 0.0).any() == (kind != "c"), kind


# Hessian rows (h11, h12, h22) whose determinants are +0.0, -0.0,
# +-1e-310 (subnormal), +2.0 and -2.0: random draws never hit these.
EDGE_ROWS = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-310, 0.0, 1.0],
                      [-1e-310, 0.0, 1.0], [2.0, 0.0, 1.0], [1.0, 2.0, 2.0]]).T


def test_signed_parts_at_exact_zeros():
    # Each position's part is +0.0 where it fails its type, also at
    # det = -0.0 and at a subnormal det, so the value is the indicator
    # reference |det| or |det1 det2| where every position holds and +0.0
    # elsewhere.  The rows are tiled past numpy's SIMD width.
    dets = EDGE_ROWS[0] * EDGE_ROWS[2] - EDGE_ROWS[1] ** 2
    assert np.signbit(dets).tolist() == [False, True, False, True, False, True]
    assert dets[2] == 1e-310 and dets[4] == 2.0 and dets[5] == -2.0
    integrand = kacrice._typed_product([(t,) for t in "ces"])
    for i, tag in enumerate("ces"):
        out = np.empty(6 * 11)
        integrand(i, np.tile(EDGE_ROWS, 11), out)
        want = np.tile(np.abs(dets) * _ref_indicator(tag, dets, EDGE_ROWS[0]), 11)
        assert np.array_equal(out, want) and not np.signbit(out).any(), tag
    first, second = (a.ravel() for a in np.meshgrid(range(6), range(6), indexing="ij"))
    rows = np.concatenate([EDGE_ROWS[:, first], EDGE_ROWS[:, second]])
    for pair in ALL_PAIRS:
        out = np.empty(36 * 3)
        kacrice._typed_product([pair])(0, np.tile(rows, 3), out)
        d1, d2 = dets[first], dets[second]
        want = (np.abs(d1 * d2) * _ref_indicator(pair[0], d1, EDGE_ROWS[0, first])
                * _ref_indicator(pair[1], d2, EDGE_ROWS[0, second]))
        assert np.array_equal(out, np.tile(want, 3)) and not np.signbit(out).any(), pair
    # An extremum with det 2.0 beside each row: a saddle only where det2
    # is -1e-310 or -2.0, and never at det2 = -0.0.
    out = np.empty(36)
    kacrice._typed_product([("e", "s")])(0, rows, out)
    assert out.reshape(6, 6)[4].tolist() == [0.0, 0.0, 0.0, 2.0 * 1e-310, 0.0, 4.0]


def test_monte_carlo_block_holds_two_draw_arrays():
    # One block of _BLOCK_DRAWS pairs.  Its peak holds two (n, 6) arrays,
    # the driver's workspace: the normals, and then one law's rows, in
    # one half, their column-major copy in the other; the buffer of
    # values adds 1/6 of one.  The integrand turns the rows into pair
    # averages in place, with small temporaries.  A separate buffer for
    # the rows, a copy of them in the integrand, or fresh rows from _rows
    # passes the bound (3.4 draw arrays).
    nsamples = 2 * kacrice._BLOCK_DRAWS
    draws_bytes = kacrice._BLOCK_DRAWS * 6 * 8
    two_point_correlation(RW1, 0.3, ("e", "e"), nsamples=nsamples, seed=1)
    tracemalloc.start()
    try:
        two_point_correlation(RW1, 0.3, ("e", "e"), nsamples=nsamples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * draws_bytes, peak / draws_bytes


def test_pair_spellings_give_identical_estimates():
    # A pair string is split like the CLI's, and the order is kept.
    kw = dict(nsamples=2001, seed=4)
    ref = two_point_correlation(RW1, 0.3, pair=("e", "s"), **kw)
    for pair in ("e,s", "extremum saddle", "es"):
        est = two_point_correlation(RW1, 0.3, pair=pair, **kw)
        assert (est.value, est.std_error, est.label) == (ref.value, ref.std_error, "(e,s)")
    assert two_point_correlation(RW1, 0.3, pair="s,e", **kw).value != ref.value
    with pytest.raises(ValueError, match="c, e or s"):
        two_point_correlation(RW1, 0.3, pair="e,min", **kw)


def test_pair_functions_share_the_pair_messages():
    # the Kac-Rice pair functions split and check a pair like theory.pair_tags
    for pair, message in (("e s s", "got 3"), ("minmax", "unsplit name"),
                          ("c,max", "'max' is not c, e or s")):
        with pytest.raises(ValueError, match=message):
            two_point_correlation(RW1, 0.3, pair=pair, nsamples=100, seed=0)
        with pytest.raises(ValueError, match=message):
            second_factorial_by_quadrature(RW1, 0.3, pair=pair, nsamples_per_node=200, seed=1)


def test_one_block_reduction_is_plain_mean_and_se(monkeypatch):
    # 30 001 draws in one block: the merge adds nothing to the block's own
    # sum and two-pass squared deviations.
    monkeypatch.setattr(kacrice, "_BLOCK_DRAWS", 1 << 15)
    law = ConditionalGaussian(np.eye(2))

    # An integrand writes one pair average per draw into out and may use
    # its rows as scratch.
    def integrand(i, rows, out):
        np.abs(np.multiply(rows[0], rows[1], out=rows[0]), out=out)

    draws = law.sample(seeded_rng(5), 30_001)
    values = np.abs(draws[:, 0] * draws[:, 1])
    expected = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values))))
    assert kacrice._mc_mean(law, integrand, 30_001, 5) == expected


@pytest.mark.parametrize("model", [RW1, BargmannFock(1.0)], ids=repr)
@pytest.mark.parametrize("kind", ["c", "e", "s", "min", "max"])
def test_one_point_equals_both_member_reference(model, kind):
    for nsamples in (7, 10**5, 10**5 + 1):
        est = one_point_intensity_mc(model, nsamples=nsamples, seed=3, kind=kind)
        assert (est.value, est.std_error) == _ref_one_point(model, nsamples, 3, kind)
        assert est.nsamples == nsamples


@pytest.mark.parametrize("model", [RW1, BargmannFock(1.0), PowerLawTruncated(2.0)], ids=repr)
def test_one_point_kinds_read_one_stream_with_their_own_bits(monkeypatch, model):
    # A sequence of kinds is a stack of the one Hessian law: its normals
    # are drawn once, and each estimate has the bits of its one-kind call.
    drawn = []
    sample = ConditionalGaussian.sample

    def counted(self, rng, n, *out):
        drawn.append(n)
        return sample(self, rng, n, *out)

    monkeypatch.setattr(ConditionalGaussian, "sample", counted)
    kinds = ("e", "s", "max")
    nsamples = 10**5 + 1
    ests = one_point_intensity_mc(model, nsamples=nsamples, seed=(3, 1), kind=kinds)
    assert sum(drawn) == (nsamples + 1) // 2
    assert [est.label for est in ests] == list(kinds)
    for est, kind in zip(ests, kinds):
        assert est == one_point_intensity_mc(model, nsamples=nsamples, seed=(3, 1), kind=kind)
    (one,) = one_point_intensity_mc(model, nsamples=101, seed=0, kind=["c"])
    assert one == one_point_intensity_mc(model, nsamples=101, seed=0)
    with pytest.raises(ValueError, match="non-empty sequence"):
        one_point_intensity_mc(model, nsamples=101, seed=0, kind=[])


@pytest.mark.parametrize("nsamples", [2, 3])
def test_one_pair_budgets_are_rejected(nsamples):
    # One draw leaves no standard error to report.  Every route buys
    # ceil(n / 2) draws, so 2 buys one and is rejected before any law is
    # built, and 3 buys two and runs.
    routes = (
        lambda: one_point_intensity_mc(RW1, nsamples=nsamples, seed=0),
        lambda: two_point_correlation(RW1, 0.05, nsamples=nsamples, seed=0),
        lambda: second_factorial_by_quadrature(RW1, 0.3, nsamples_per_node=nsamples, seed=0),
    )
    for route in routes:
        if nsamples == 2:
            with pytest.raises(ValueError, match="buys 1 draw"):
                route()
        else:
            assert route().std_error > 0


@pytest.mark.parametrize("nsamples", [4000, 4001])
def test_every_route_draws_half_the_budget_rounded_up(monkeypatch, nsamples):
    # One budget rule: one-point, two-point (one distance or a stack) and
    # each ball node draw ceil(n / 2) normal vectors.
    drawn = []
    sample = ConditionalGaussian.sample

    def counted(self, rng, n, *out):
        drawn.append(n)
        return sample(self, rng, n, *out)

    monkeypatch.setattr(ConditionalGaussian, "sample", counted)
    ndraws = (nsamples + 1) // 2
    one_point_intensity_mc(RW1, nsamples=nsamples, seed=0, kind="min")
    assert sum(drawn) == ndraws
    for r in (0.3, np.array([0.05, 0.3, 4.0])):
        drawn.clear()
        two_point_correlation(RW1, r, nsamples=nsamples, seed=0)
        assert sum(drawn) == ndraws
    per_node = []
    k2_node = kacrice._k2_node

    def node(args):
        drawn.clear()
        out = k2_node(args)
        per_node.append(sum(drawn))
        return out

    monkeypatch.setattr(kacrice, "_k2_node", node)
    second_factorial_by_quadrature(RW1, 0.3, nsamples_per_node=nsamples, seed=0)
    assert per_node == [ndraws] * (kacrice._OUTER_NODES + kacrice._INNER_NODES)


def test_std_error_does_not_depend_on_blas_threads():
    # The reduction is elementwise, so the bytes hold at any BLAS thread
    # count; OpenBLAS reads its thread count at load, hence a subprocess.
    argv = [sys.executable, "-m", "planarcrit.cli", "kacrice", "--model", "randomwave",
            "--k", "1", "--seed", "7", "--what", "two-point", "--r", "0.005", "0.02", "0.05",
            "--pair", "cc", "--nsamples", "200001"]
    src = str(Path(planarcrit.__file__).parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("(c,c)") == 3
