"""Conditional Monte-Carlo engine: every estimator against an independent route."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from planarcrit import kacrice
from planarcrit.kacrice import (
    ConditionalGaussian,
    DegeneracyError,
    R_FLOOR_FRACTION,
    _Y0,
    _condition,
    _pair_conditional,
    condition_on_zero_gradients,
    correlation_length,
    disc_pair_distance_density,
    expansion_moment_mc,
    gated_magnitude_mc,
    gradient_pair_density,
    gradient_pair_density_asymptotic,
    one_point_intensity_mc,
    second_factorial_by_quadrature,
    small_ball_probability_mc,
    two_point_correlation,
)
from planarcrit.models import (
    BargmannFock,
    RandomWave,
    ShiftedRandomWave,
    derivative_covariance,
    is_shifted_random_wave,
    sigma_derivatives,
)
from planarcrit.sampling import seeded_rng
from planarcrit.theory import k2_limit, lambda_c

RW1 = RandomWave(1.0)
D1 = sigma_derivatives(RW1)


def test_correlation_length_random_wave_is_two_pi():
    assert correlation_length(RW1) == pytest.approx(2.0 * math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def test_conditioning_at_one_point_leaves_hessian_law_alone():
    # gradient and Hessian at the same point are independent (odd vs even
    # order), so conditioning must return the unconditional Hessian law
    o = (0.0, 0.0)
    law = condition_on_zero_gradients(RW1, [o], [(o, (2, 0)), (o, (1, 1)), (o, (0, 2))])
    np.testing.assert_allclose(law.mean, 0.0, atol=1e-14)
    expected = np.array(
        [
            [12 * D1.mu0, 0.0, 4 * D1.mu0],
            [0.0, 4 * D1.mu0, 0.0],
            [4 * D1.mu0, 0.0, 12 * D1.mu0],
        ]
    )
    np.testing.assert_allclose(law.covariance, expected, atol=1e-12)


def test_conditioning_agrees_with_regression_on_samples():
    # independent route: draw the unconditional joint law and estimate the
    # conditional covariance as the residual covariance of the least-squares
    # regression of targets on gradients (exact for Gaussians, no small-box
    # bias, unlike plain rejection near a measure-zero event)
    r = 0.5
    p1, p2 = (-r / 2.0, 0.0), (r / 2.0, 0.0)
    targets = [(p1, (2, 0)), (p1, (1, 1)), (p2, (0, 2))]
    law = condition_on_zero_gradients(RW1, [p1, p2], targets)

    grads = [(p, a) for p in (p1, p2) for a in ((1, 0), (0, 1))]
    cov = derivative_covariance(RW1, grads + targets)
    rng = seeded_rng(123)
    draws = rng.multivariate_normal(np.zeros(7), cov, size=400_000, method="cholesky")
    g, t = draws[:, :4], draws[:, 4:]
    beta, *_ = np.linalg.lstsq(g, t, rcond=None)
    resid = t - g @ beta
    sample_cov = np.cov(resid.T)
    np.testing.assert_allclose(sample_cov, law.covariance, rtol=0.05, atol=3e-5)
    # and the conditioning must have actually changed something
    uncond = cov[4:, 4:]
    assert abs(law.covariance[0, 0] - uncond[0, 0]) > 0.05 * uncond[0, 0]


def test_conditioning_rejects_coincident_points():
    o = (0.0, 0.0)
    with pytest.raises(DegeneracyError):
        condition_on_zero_gradients(RW1, [o, o], [(o, (2, 0))])


def test_conditional_gaussian_draws_transform_standard_normals():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    law = ConditionalGaussian(mean=mean, covariance=cov, labels=("a", "b"))
    draws = law.sample(seeded_rng(0), 2000)
    fac = law._factor()
    np.testing.assert_allclose(fac @ fac.T, cov, rtol=1e-14, atol=1e-14)
    # row i is the i-th standard normal row of the same stream, mapped
    expected = seeded_rng(0).standard_normal((2000, 2)) @ fac.T + mean
    np.testing.assert_array_equal(draws, expected)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.15)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.15)


def test_conditional_gaussian_rejects_indefinite_covariance():
    law = ConditionalGaussian(
        mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]), labels=("a", "b")
    )
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
    with pytest.raises(ValueError):
        two_point_correlation(RW1, 0.05, pair=("c", "ridge"), nsamples=100, seed=0)


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


def test_quadrature_thread_count_does_not_change_bytes():
    kw = dict(nsamples_per_node=2_000, seed=2)
    a = second_factorial_by_quadrature(RW1, 0.3, threads=1, **kw)
    b = second_factorial_by_quadrature(RW1, 0.3, threads=3, **kw)
    assert a.value == b.value
    assert a.std_error == b.std_error


# ---------------------------------------------------------------------------
# Local expansion moments
# ---------------------------------------------------------------------------


def test_expansion_normalizer_two_routes():
    # closed form: the product of the two conditional variances factors as
    # 2^8 mu0 (3 mu0^2 - 5 nu0 eta0) / eta0, both signs negative, so the
    # value is positive; 1/96 for this model
    mu0, eta0, nu0 = D1.mu0, D1.eta0, D1.nu0
    closed = 2**8 * mu0 * (3.0 * mu0**2 - 5.0 * nu0 * eta0) / eta0
    assert closed == pytest.approx(1.0 / 96.0, rel=1e-13)
    assert 3.0 * mu0**2 - 5.0 * nu0 * eta0 < 0  # forced by variance positivity
    est = expansion_moment_mc(RW1, r=0.0, nsamples=300_000, seed=1)
    assert abs(est.value - closed) < 4.0 * est.std_error


def test_expansion_moment_scales_cubically():
    radii = np.array([0.1, 0.2, 0.4])
    vals = [
        expansion_moment_mc(RW1, r=float(r), variant="extrema", nsamples=400_000, seed=8).value
        for r in radii
    ]
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.4)


def test_expansion_saddle_variant_dominates_extrema():
    # the saddle gate needs B0 < 0, which the -d112^2 term in B0 makes the
    # typical sign; close saddle pairs are correspondingly more likely than
    # close extrema pairs (the same asymmetry that puts the extra log factor
    # on the (s,s) ball moment)
    kw = dict(nsamples=400_000, seed=9)
    ext = expansion_moment_mc(RW1, r=0.3, variant="extrema", **kw)
    sad = expansion_moment_mc(RW1, r=0.3, variant="saddle", **kw)
    assert 0 < ext.value < sad.value
    with pytest.raises(ValueError):
        expansion_moment_mc(RW1, r=0.1, variant="monkey")


# ---------------------------------------------------------------------------
# Scalar probability oracles
# ---------------------------------------------------------------------------


def test_small_ball_probability_against_quadrature():
    r = 0.01
    est = small_ball_probability_mc(dim=2, r=r, nsamples=10**6, seed=6)
    exact, err = integrate.quad(
        lambda z: 2.0
        * math.erf(r / (abs(z) * math.sqrt(2.0)))
        * math.exp(-(z**2) / 2.0)
        / math.sqrt(2.0 * math.pi),
        1e-12,
        30.0,
    )
    assert err < 1e-9
    assert abs(est.value - exact) < 4.0 * est.std_error


def test_small_ball_coupling_validation():
    with pytest.raises(ValueError):
        small_ball_probability_mc(dim=3, coupling=np.eye(2), r=0.01, nsamples=100, seed=0)


def test_gated_magnitude_linear_in_gate_width():
    lo = gated_magnitude_mc(0.01, nsamples=400_000, seed=3)
    hi = gated_magnitude_mc(0.02, nsamples=400_000, seed=3)
    assert 0 < lo.value < hi.value
    # E[|Z2| 1{|Z1| <= r Z2}] ~ c r for small r
    assert hi.value / lo.value == pytest.approx(2.0, abs=0.2)


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
    fac = law._factor()
    half = (n + 1) // 2
    draws = np.empty((2 * half, len(law.mean)))
    draws[0::2] = rng.standard_normal((half, len(law.mean))) @ fac.T
    draws[1::2] = -draws[0::2]
    return draws[:n] + law.mean


def _ref_pair_mean_se(values):
    n = len(values) // 2 * 2
    pairs = 0.5 * (values[0:n:2] + values[1:n:2])
    return float(pairs.mean()), float(pairs.std(ddof=1) / math.sqrt(len(pairs)))


def _ref_one_point(model, n, seed, kind):
    o = np.zeros(2)
    law = condition_on_zero_gradients(model, [o], [(o, (2, 0)), (o, (1, 1)), (o, (0, 2))])
    h11, h12, h22 = _ref_interleaved_draws(law, seeded_rng(seed), n).T
    det = h11 * h22 - h12**2
    mean, se = _ref_pair_mean_se(np.abs(det) * _ref_indicator(kind, det, h11))
    phi = 1.0 / (4.0 * math.pi * abs(sigma_derivatives(model).eta0))
    return phi * mean, phi * se


def _ref_two_point(model, r, pair, n, seed):
    cond_cov, logdet = _pair_conditional(model, r)
    law = ConditionalGaussian(mean=np.zeros(6), covariance=cond_cov, labels=tuple("abcdef"))
    phi = float(math.exp(-0.5 * logdet) / (2.0 * math.pi * r) ** 2)
    rng = seeded_rng(seed)
    left = (n + 1) // 2
    tot = tot2 = 0.0
    ntot = 0
    while left > 0:
        npairs = min(left, kacrice._CHUNK_PAIRS)
        left -= npairs
        draws = _ref_interleaved_draws(law, rng, 2 * npairs)
        h1 = draws[:, :3] + (r / 2.0) * draws[:, 3:]
        h2 = draws[:, :3] - (r / 2.0) * draws[:, 3:]
        det1 = h1[:, 0] * h1[:, 2] - h1[:, 1] ** 2
        det2 = h2[:, 0] * h2[:, 2] - h2[:, 1] ** 2
        vals = (
            np.abs(det1 * det2)
            * _ref_indicator(pair[0], det1, h1[:, 0])
            * _ref_indicator(pair[1], det2, h2[:, 0])
        )
        pairs = 0.5 * (vals[0::2] + vals[1::2])
        tot += float(pairs.sum())
        tot2 += float(pairs @ pairs)
        ntot += npairs
    mean = tot / ntot
    var = max(tot2 / ntot - mean * mean, 0.0) * ntot / max(ntot - 1, 1)
    return phi * mean, phi * math.sqrt(var / ntot)


def _ref_expansion(model, r, variant, n, seed):
    degenerate, _ = is_shifted_random_wave(model)
    o = np.zeros(2)
    names = [(0, 2), (3, 0), (2, 1), (4, 0)]
    if not degenerate:
        names.insert(2, (1, 2))
    law = _condition(model, _Y0, [(o, alpha) for alpha in names])
    draws = _ref_interleaved_draws(law, seeded_rng(seed), n)
    if degenerate:
        d22, d111, d112, d1111 = draws.T
        d122 = -d111
    else:
        d22, d111, d122, d112, d1111 = draws.T
    a1 = d22 * d111
    b0 = d122 * d111 - d112**2 + d22 * d1111 / 3.0
    if r == 0.0:
        vals = a1**2
    else:
        gate = np.abs(a1) < r * b0 if variant == "extrema" else np.abs(a1) <= -r * b0
        vals = np.abs(a1**2 - r * r * b0**2) * gate
    return _ref_pair_mean_se(vals)


PAIRS = [("c", "c"), ("e", "e"), ("s", "s"), ("min", "min"), ("max", "max"),
         ("e", "s"), ("min", "max")]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: "-".join(p))
@pytest.mark.parametrize("nsamples", [20_000, 20_001])
# Typed pairs are rare at small r (min-max never shows up in these
# budgets), so r = 4 makes the min/max mirror carry weight.
@pytest.mark.parametrize("r", [0.005, 0.05, 4.0])
def test_two_point_equals_both_member_reference(pair, nsamples, r):
    est = two_point_correlation(RW1, r, pair=pair, nsamples=nsamples, seed=(7, 2))
    assert (est.value, est.std_error) == _ref_two_point(RW1, r, pair, nsamples, (7, 2))
    assert est.nsamples == nsamples


def test_two_point_equals_reference_across_chunks(monkeypatch):
    monkeypatch.setattr(kacrice, "_CHUNK_PAIRS", 1000)
    for pair, nsamples in ((("min", "e"), 4001), (("s", "s"), 4000)):
        est = two_point_correlation(RW1, 4.0, pair=pair, nsamples=nsamples, seed=2)
        assert est.value > 0
        assert (est.value, est.std_error) == _ref_two_point(RW1, 4.0, pair, nsamples, 2)


@pytest.mark.parametrize("model", [RW1, BargmannFock(1.0)], ids=repr)
@pytest.mark.parametrize("kind", ["c", "e", "s", "min", "max"])
def test_one_point_equals_both_member_reference(model, kind):
    for nsamples in (7, 10**5, 10**5 + 1):
        est = one_point_intensity_mc(model, nsamples=nsamples, seed=3, kind=kind)
        assert (est.value, est.std_error) == _ref_one_point(model, nsamples, 3, kind)
        assert est.nsamples == nsamples


@pytest.mark.parametrize("model", [RW1, ShiftedRandomWave(0.5, 1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("variant", ["extrema", "saddle"])
@pytest.mark.parametrize("r", [0.0, 0.3])
def test_expansion_equals_both_member_reference(model, variant, r):
    for nsamples in (40_000, 40_001):
        est = expansion_moment_mc(model, r=r, variant=variant, nsamples=nsamples, seed=9)
        assert (est.value, est.std_error) == _ref_expansion(model, r, variant, nsamples, 9)
