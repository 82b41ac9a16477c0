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


def test_batched_pair_law_names_the_first_degenerate_distance():
    with pytest.raises(DegeneracyError, match=r"degenerate at r = 1e-11: "):
        _pair_conditional(RW1, np.array([0.5, 1e-11, 0.3, 1e-12]))
    with pytest.raises(ValueError, match="finite and positive, got 0.0"):
        _pair_conditional(RW1, np.array([0.5, 0.0, 1e-11]))


def test_conditional_gaussian_draws_transform_standard_normals():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    law = ConditionalGaussian(cov)
    draws = law.sample(seeded_rng(0), 2000)
    fac = law._fac
    np.testing.assert_allclose(fac @ fac.T, cov, rtol=1e-14, atol=1e-14)
    # row i is the i-th standard normal row of the same stream, mapped
    expected = seeded_rng(0).standard_normal((2000, 2)) @ fac.T
    np.testing.assert_array_equal(draws, expected)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.15)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.15)


def test_conditional_gaussian_rejects_indefinite_covariance():
    law = ConditionalGaussian(np.array([[1.0, 2.0], [2.0, 1.0]]))
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


def _ref_interleaved_draws(law, rng, n):
    fac = law._fac
    half = (n + 1) // 2
    draws = np.empty((2 * half, len(law.covariance)))
    draws[0::2] = rng.standard_normal((half, len(law.covariance))) @ fac.T
    draws[1::2] = -draws[0::2]
    return draws[:n]


def _ref_chunked(law, npairs, seed, values):
    """(mean, SE) of both-member pair averages of values(draws), chunk by chunk.

    The mean is the running sum of chunk sums over npairs; the squared
    deviations are summed two-pass within each chunk, plus the
    between-chunk term.
    """
    rng = seeded_rng(seed)
    tot = 0.0
    chunks = []
    left = npairs
    while left > 0:
        n = min(left, kacrice._CHUNK_PAIRS)
        left -= n
        vals = values(_ref_interleaved_draws(law, rng, 2 * n))
        pairs = 0.5 * (vals[0::2] + vals[1::2])
        total = float(pairs.sum())
        dev = pairs - total / n
        tot += total
        chunks.append((n, total / n, float((dev * dev).sum())))
    mean = tot / npairs
    ss = 0.0
    for n, chunk_mean, dev2 in chunks:
        ss += dev2 + n * (chunk_mean - mean) ** 2
    return mean, math.sqrt(ss / (npairs - 1)) / math.sqrt(npairs)


def _ref_one_point(model, n, seed, kind):
    o = np.zeros(2)
    law = ConditionalGaussian(derivative_covariance(model, [(o, a) for a in HESSIAN]))

    def values(draws):
        h11, h12, h22 = draws.T
        det = h11 * h22 - h12**2
        return np.abs(det) * _ref_indicator(kind, det, h11)

    mean, se = _ref_chunked(law, n // 2, seed, values)
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))
    return phi * mean, phi * se


def _ref_two_point(model, r, pair, n, seed):
    cond_cov, phi = _pair_conditional(model, r)
    law = ConditionalGaussian(cond_cov)

    def values(draws):
        h1 = draws[:, :3] + (r / 2.0) * draws[:, 3:]
        h2 = draws[:, :3] - (r / 2.0) * draws[:, 3:]
        det1 = h1[:, 0] * h1[:, 2] - h1[:, 1] ** 2
        det2 = h2[:, 0] * h2[:, 2] - h2[:, 1] ** 2
        return (
            np.abs(det1 * det2)
            * _ref_indicator(pair[0], det1, h1[:, 0])
            * _ref_indicator(pair[1], det2, h2[:, 0])
        )

    mean, se = _ref_chunked(law, (n + 1) // 2, seed, values)
    return phi * mean, phi * se


PAIRS = [("c", "c"), ("e", "e"), ("s", "s"), ("e", "s")]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: "-".join(p))
@pytest.mark.parametrize("nsamples", [20_000, 20_001])
# Typed pairs are rare at small r, so r = 4 gives the typed indicators
# weight.
@pytest.mark.parametrize("r", [0.005, 0.05, 4.0])
def test_two_point_equals_both_member_reference(pair, nsamples, r):
    est = two_point_correlation(RW1, r, pair=pair, nsamples=nsamples, seed=(7, 2))
    assert (est.value, est.std_error) == _ref_two_point(RW1, r, pair, nsamples, (7, 2))
    assert est.nsamples == nsamples


def test_two_point_equals_reference_across_chunks(monkeypatch):
    monkeypatch.setattr(kacrice, "_CHUNK_PAIRS", 1000)
    for pair, nsamples in ((("e", "s"), 4001), (("s", "s"), 4000)):
        est = two_point_correlation(RW1, 4.0, pair=pair, nsamples=nsamples, seed=2)
        assert est.value > 0
        assert (est.value, est.std_error) == _ref_two_point(RW1, 4.0, pair, nsamples, 2)
    for kind, nsamples in (("min", 4001), ("s", 4000)):
        est = one_point_intensity_mc(RW1, nsamples=nsamples, seed=2, kind=kind)
        assert (est.value, est.std_error) == _ref_one_point(RW1, nsamples, 2, kind)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_size_changes_no_bits(monkeypatch, block):
    # Blocks are drawn and integrated one after the other; only chunks
    # shape the reduction, so any block size gives the reference bits.
    monkeypatch.setattr(kacrice, "_CHUNK_PAIRS", 1000)
    monkeypatch.setattr(kacrice, "_BLOCK_PAIRS", block)
    est = two_point_correlation(RW1, 4.0, pair=("e", "s"), nsamples=4001, seed=2)
    assert (est.value, est.std_error) == _ref_two_point(RW1, 4.0, ("e", "s"), 4001, 2)
    est = one_point_intensity_mc(RW1, nsamples=4001, seed=2, kind="min")
    assert (est.value, est.std_error) == _ref_one_point(RW1, 4001, 2, "min")


def test_monte_carlo_memory_stays_flat():
    # Two chunks of 2^20 pairs share one 8 MB buffer of pair averages,
    # which the reduction squares in place; the draws are held only a
    # block at a time.  A fresh buffer per chunk, or a separate array of
    # deviations, lifts the peak past the bound.
    tracemalloc.start()
    try:
        two_point_correlation(RW1, 0.01, ("e", "e"), nsamples=4_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_monte_carlo_block_makes_no_transpose_copy():
    # One block of 2^13 pairs.  The draws come out of F z^T as a view
    # whose transpose holds one contiguous row per component, and the
    # integrand reads those rows in place, so the peak stays below that
    # with one more (n, 6) array of draws: a transpose copy in the
    # integrand or in the sampler reads 4.4 draw arrays.
    nsamples = 2 * kacrice._BLOCK_PAIRS
    draws_bytes = kacrice._BLOCK_PAIRS * 6 * 8
    two_point_correlation(RW1, 0.3, ("e", "e"), nsamples=nsamples, seed=1)
    tracemalloc.start()
    try:
        two_point_correlation(RW1, 0.3, ("e", "e"), nsamples=nsamples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * draws_bytes, peak / draws_bytes


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


def test_one_chunk_reduction_is_plain_mean_and_se():
    law = ConditionalGaussian(np.eye(2))

    def integrand(draws):
        return np.abs(draws[:, 0] * draws[:, 1])

    values = integrand(law.sample(seeded_rng(5), 30_001))
    expected = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values))))
    assert kacrice._antithetic_mean(law, integrand, 30_001, 5) == expected


@pytest.mark.parametrize("model", [RW1, BargmannFock(1.0)], ids=repr)
@pytest.mark.parametrize("kind", ["c", "e", "s", "min", "max"])
def test_one_point_equals_both_member_reference(model, kind):
    for nsamples in (7, 10**5, 10**5 + 1):
        est = one_point_intensity_mc(model, nsamples=nsamples, seed=3, kind=kind)
        assert (est.value, est.std_error) == _ref_one_point(model, nsamples, 3, kind)
        assert est.nsamples == nsamples


@pytest.mark.parametrize("nsamples", [2, 3])
def test_one_pair_budgets_are_rejected(nsamples):
    # One antithetic pair leaves no standard error to report: floor(n / 2)
    # pairs for one-point, ceil(n / 2) for two-point.
    with pytest.raises(ValueError, match="two antithetic pairs"):
        one_point_intensity_mc(RW1, nsamples=nsamples, seed=0)
    assert math.isfinite(one_point_intensity_mc(RW1, nsamples=4, seed=0).std_error)
    if nsamples == 2:
        with pytest.raises(ValueError, match="two antithetic pairs"):
            two_point_correlation(RW1, 0.05, nsamples=nsamples, seed=0)
    else:
        assert two_point_correlation(RW1, 0.05, nsamples=nsamples, seed=0).std_error > 0


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
