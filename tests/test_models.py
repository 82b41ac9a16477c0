"""Covariance models: exact profile derivatives, spectral moments, covariances."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from planarcrit.models import (
    BargmannFock,
    CovarianceModel,
    Interpolation,
    MomentDivergenceError,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    SigmaDerivatives,
    derivative_covariance,
    effective_wavenumber,
    exact_ring_terms,
    model_from_config,
    model_to_config,
    sigma_derivatives,
    spectral_moment,
)
from planarcrit.estimators import default_window
from planarcrit.finder import default_grid_step
from planarcrit.models import _bessel_profile_derivative, _log_rings

ALL_MODELS = [
    RandomWave(1.0),
    RandomWave(2.2),
    BargmannFock(1.0),
    BargmannFock(0.7),
    ShiftedRandomWave(tau=0.8, s=1.3, k=1.5),
    PowerLawTruncated(2.0),
    Interpolation(0.35, RandomWave(1.0), PowerLawTruncated(2.0)),
]


def _ids(models):
    return [repr(m) for m in models]


def _longdouble_points(specs):
    """The same specs with each point a longdouble array."""
    return [(np.array(p, dtype=np.longdouble), a) for p, a in specs]


# ---------------------------------------------------------------------------
# Profile derivatives at the origin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1.0, 2.2])
def test_random_wave_derivatives_at_origin(k):
    # sigma(x) = sum_m (-k^2 x / 4)^m / (m!)^2, so sigma^(j)(0) = (-k^2/4)^j / j!
    d = sigma_derivatives(RandomWave(k))
    assert d.eta0 == pytest.approx(-(k**2) / 4.0, rel=1e-14)
    assert d.mu0 == pytest.approx(k**4 / 32.0, rel=1e-14)
    assert d.nu0 == pytest.approx(-(k**6) / 384.0, rel=1e-14)
    assert d.upsilon == pytest.approx(k**8 / 6144.0, rel=1e-14)


@pytest.mark.parametrize("k", [1.0, 0.7])
def test_bargmann_fock_derivatives_at_origin(k):
    d = sigma_derivatives(BargmannFock(k))
    assert (d.eta0, d.mu0, d.nu0, d.upsilon) == pytest.approx((-k, k**2, -(k**3), k**4), rel=1e-14)


def test_shifted_random_wave_scales_the_wave_part():
    base = sigma_derivatives(RandomWave(1.5))
    d = sigma_derivatives(ShiftedRandomWave(tau=0.8, s=1.3, k=1.5))
    s2 = 1.3**2
    assert d.eta0 == pytest.approx(s2 * base.eta0, rel=1e-14)
    assert d.mu0 == pytest.approx(s2 * base.mu0, rel=1e-14)
    assert d.nu0 == pytest.approx(s2 * base.nu0, rel=1e-14)
    # the atom only lifts the variance
    m = ShiftedRandomWave(tau=0.8, s=1.3, k=1.5)
    assert m.sigma_derivative(0, 0.0) == pytest.approx(0.8**2 + 1.3**2 * 1.0, rel=1e-14)


def test_power_law_truncated_t2_exact_fractions():
    # For t = 2 the radial moments are rational: R2 = 140/93, R4 = 80/31,
    # R6 = 160/31, R8 = 1120/93, giving these profile derivatives exactly.
    d = sigma_derivatives(PowerLawTruncated(2.0))
    assert d.eta0 == pytest.approx(-35.0 / 93.0, abs=1e-12)
    assert d.mu0 == pytest.approx(5.0 / 62.0, abs=1e-12)
    assert d.nu0 == pytest.approx(-5.0 / 372.0, abs=1e-12)
    assert d.upsilon == pytest.approx(35.0 / 17856.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_power_law_truncated_radial_moment_closed_form(n):
    t = 3.0
    norm = 1.0 - t**-5
    if n == 5:
        expected = 5.0 * math.log(t) / norm
    else:
        expected = 5.0 * (t ** (n - 5) - 1.0) / ((n - 5) * norm)
    assert PowerLawTruncated(t).radial_moment(n) == pytest.approx(expected, rel=1e-12)


def _series_reference(j, x, k):
    """The 80-bit 0F1 series one scalar at a time, as a loop."""
    z = -np.longdouble(k) * np.longdouble(k) * np.longdouble(x) / 4
    term = np.longdouble(1.0)
    total = term
    m = 0
    while True:
        m += 1
        term = term * z / (np.longdouble(m) * np.longdouble(j + m))
        total += term
        if abs(term) <= np.longdouble(1e-25) * abs(total) and m > 4:
            break
    pref = (-np.longdouble(k) * np.longdouble(k) / 4) ** j
    for i in range(2, j + 1):
        pref /= np.longdouble(i)
    return pref * total


@pytest.mark.parametrize("k", [1.0, 2.2])
def test_extended_series_equals_scalar_loop(k):
    # each lag stops at its own last term, so up to |k^2 x / 4| = 30 the
    # array sum is the loop's
    xs = np.concatenate([[0.0], np.geomspace(1e-9, 119.0 / k**2, 60)]).astype(np.longdouble)
    for j in range(5):
        values = RandomWave(k).sigma_derivative(j, xs)
        assert values.dtype == np.longdouble
        assert list(values) == [_series_reference(j, x, k) for x in xs]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
def test_power_law_ring_rule_reproduces_radial_moments(t, dtype):
    radii, weights = _log_rings(t, np.dtype(dtype))
    assert radii.dtype == weights.dtype == dtype
    model = PowerLawTruncated(t)
    for n in range(9):
        assert float((weights * radii**n).sum()) == pytest.approx(model.radial_moment(n), rel=1e-13)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 5.0, 10.0])
def test_power_law_profile_matches_adaptive_quadrature(t):
    model = PowerLawTruncated(t)
    norm = 1.0 - t**-5
    for j in range(5):
        scale = abs(float(model.sigma_derivative(j, 0.0)))
        for x in (0.0, 0.01, 0.1, 1.0, 4.0):
            ref, _ = integrate.quad(
                lambda l: _bessel_profile_derivative(j, np.float64(x), l) * 5.0 * l**-6 / norm,
                1.0, t, epsrel=1e-13, epsabs=1e-14 * scale, limit=200,
            )
            for lag in (np.float64(x), np.longdouble(x)):
                value = model.sigma_derivative(j, lag)
                assert value.dtype == lag.dtype
                assert abs(float(value) - ref) <= 1e-12 * scale


def test_interpolation_mixes_radial_moments_linearly():
    left, right = RandomWave(1.0), PowerLawTruncated(2.0)
    mix = Interpolation(0.35, left, right)
    for n in range(9):
        expected = 0.35 * left.radial_moment(n) + 0.65 * right.radial_moment(n)
        assert mix.radial_moment(n) == pytest.approx(expected, rel=1e-12)


def test_sigma_derivative_matches_bessel_profile_away_from_origin():
    k = 1.3
    m = RandomWave(k)
    x = np.array([0.2, 1.0, 7.5])
    assert m.sigma_derivative(0, x) == pytest.approx(special.j0(k * np.sqrt(x)), rel=1e-12)
    # d/dx J0(k sqrt(x)) = -k J1(k sqrt(x)) / (2 sqrt(x))
    expected = -k * special.j1(k * np.sqrt(x)) / (2.0 * np.sqrt(x))
    assert m.sigma_derivative(1, x) == pytest.approx(expected, rel=1e-12)


def test_divergent_sixth_moment_reported_as_sentinel():
    m = PowerLawTruncated(math.inf)
    d = sigma_derivatives(m)
    assert d.nu0 == -math.inf
    assert math.isfinite(d.mu0)
    with pytest.raises(MomentDivergenceError):
        spectral_moment(m, 6, 0)
    # low-order moments stay available
    assert math.isfinite(spectral_moment(m, 2, 2))


def test_untruncated_power_law_profile_is_closed_form_at_lag_zero():
    # sigma^(j)(0) = (-1)^j R_2j / (4^j j!) exactly, in the dtype of the
    # lag; the values are those the adaptive quadrature of the tail gave
    m = PowerLawTruncated(math.inf)
    for j, value in enumerate((1.0, -0.4166666666666667, 0.15625)):
        closed = (-1) ** j * m.radial_moment(2 * j) / (4**j * math.factorial(j))
        assert m.sigma_derivative(j, 0.0) == closed == value
        lags = np.zeros(3, dtype=np.longdouble)
        got = m.sigma_derivative(j, lags)
        assert got.dtype == np.longdouble and list(got) == [closed] * 3
    with pytest.raises(MomentDivergenceError, match="R_6 is infinite"):
        m.sigma_derivative(3, 0.0)
    # no ring rule exists for the tail, so no other lag is evaluated
    for j, lag in ((0, 1e-6), (1, np.array([0.0, 0.3])), (2, np.longdouble(4.0))):
        with pytest.raises(MomentDivergenceError, match="only at lag 0"):
            m.sigma_derivative(j, lag)


def test_sigma_derivatives_sign_invariants_enforced():
    with pytest.raises(ValueError):
        SigmaDerivatives(eta0=0.1, mu0=1.0, nu0=-1.0, upsilon=1.0)
    with pytest.raises(ValueError):
        SigmaDerivatives(eta0=-1.0, mu0=1.0, nu0=0.0, upsilon=1.0)


# ---------------------------------------------------------------------------
# Plane spectral moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_plane_moments_match_profile_derivatives(model):
    d = sigma_derivatives(model)
    assert spectral_moment(model, 2, 0) == pytest.approx(-2.0 * d.eta0, rel=1e-10)
    assert spectral_moment(model, 2, 2) == pytest.approx(4.0 * d.mu0, rel=1e-10)
    assert spectral_moment(model, 4, 0) == pytest.approx(12.0 * d.mu0, rel=1e-10)
    assert spectral_moment(model, 6, 0) == pytest.approx(-120.0 * d.nu0, rel=1e-10)


def test_plane_moments_vanish_for_odd_exponents():
    m = RandomWave(1.0)
    assert spectral_moment(m, 1, 0) == 0.0
    assert spectral_moment(m, 3, 2) == 0.0
    assert spectral_moment(m, 2, 5) == 0.0


@given(
    a=st.sampled_from([0, 2, 4]),
    b=st.sampled_from([0, 2, 4]),
    k=st.floats(min_value=0.5, max_value=3.0),
)
def test_plane_moments_symmetric_and_cauchy_schwarz(a, b, k):
    m = RandomWave(k)
    mab = spectral_moment(m, a, b)
    assert mab == spectral_moment(m, b, a)
    # int l1^a l2^b dF <= sqrt(int l1^2a dF * int l2^2b dF)
    bound = math.sqrt(spectral_moment(m, 2 * a, 0) * spectral_moment(m, 0, 2 * b))
    assert mab <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Derivative covariances
# ---------------------------------------------------------------------------


def test_value_covariance_is_the_profile():
    pts = [(0.0, 0.0), (0.6, -0.3)]
    r2 = 0.6**2 + 0.3**2
    for model, profile in [
        (RandomWave(1.4), special.j0(1.4 * math.sqrt(r2))),
        (BargmannFock(0.9), math.exp(-0.9 * r2)),
    ]:
        cov = derivative_covariance(model, [(pts[0], (0, 0)), (pts[1], (0, 0))])
        assert cov[0, 0] == pytest.approx(model.sigma_derivative(0, 0.0), rel=1e-14)
        assert cov[0, 1] == pytest.approx(profile, rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_same_point_derivative_variances(model):
    d = sigma_derivatives(model)
    o = (0.0, 0.0)
    specs = [(o, (1, 0)), (o, (2, 0)), (o, (1, 1)), (o, (3, 0)), (o, (0, 0))]
    cov = derivative_covariance(model, specs)
    assert cov[0, 0] == pytest.approx(-2.0 * d.eta0, rel=1e-10)
    assert cov[1, 1] == pytest.approx(12.0 * d.mu0, rel=1e-10)
    assert cov[2, 2] == pytest.approx(4.0 * d.mu0, rel=1e-10)
    assert cov[3, 3] == pytest.approx(-120.0 * d.nu0, rel=1e-10)
    # value against its own second derivative: E[psi d11 psi] = 2 eta0
    assert cov[4, 1] == pytest.approx(2.0 * d.eta0, rel=1e-10)
    # odd total order against even vanishes at the same point
    assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    dx=st.floats(min_value=-3.0, max_value=3.0),
    dy=st.floats(min_value=-3.0, max_value=3.0),
    cx=st.floats(min_value=-5.0, max_value=5.0),
    cy=st.floats(min_value=-5.0, max_value=5.0),
)
def test_derivative_covariance_translation_invariant(dx, dy, cx, cy):
    model = BargmannFock(1.0)
    specs = [((0.0, 0.0), (1, 0)), ((dx, dy), (0, 1)), ((dx, dy), (2, 0))]
    shifted = [((p[0] + cx, p[1] + cy), a) for p, a in specs]
    np.testing.assert_allclose(
        derivative_covariance(model, specs),
        derivative_covariance(model, shifted),
        rtol=1e-12,
        atol=1e-14,
    )


@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    dx=st.floats(min_value=0.1, max_value=3.0),
)
def test_value_covariance_isotropic(angle, dx):
    # rotating the separation leaves the value-value covariance unchanged
    model = RandomWave(1.0)
    p = (dx, 0.0)
    q = (dx * math.cos(angle), dx * math.sin(angle))
    cov_p = derivative_covariance(model, [((0.0, 0.0), (0, 0)), (p, (0, 0))])
    cov_q = derivative_covariance(model, [((0.0, 0.0), (0, 0)), (q, (0, 0))])
    assert cov_p[0, 1] == pytest.approx(cov_q[0, 1], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_derivative_covariance_symmetric_psd(model):
    pts = [(0.0, 0.0), (0.35, 0.2)]
    specs = [(p, a) for p in pts for a in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]
    cov = derivative_covariance(model, specs)
    np.testing.assert_allclose(cov, cov.T, rtol=0, atol=1e-12)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_extended_precision_assembly_agrees_with_double(model):
    # at moderate separation both dtypes are exact to near machine precision
    pts = [(-0.15, 0.0), (0.15, 0.0)]
    specs = [(p, a) for p in pts for a in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    plain = derivative_covariance(model, specs)
    ext = derivative_covariance(model, _longdouble_points(specs))
    assert plain.dtype == np.float64 and ext.dtype == np.longdouble
    scale = np.abs(plain).max()
    assert np.abs(ext.astype(float) - plain).max() <= 1e-13 * scale


@pytest.mark.parametrize("r", [20.0, 60.0, 150.0])
@pytest.mark.parametrize("model", [RandomWave(1.0), PowerLawTruncated(2.0)], ids=repr)
def test_extended_assembly_stays_accurate_at_large_separation(model, r):
    # the 80-bit series hands over to the double profile before its own
    # cancellation error shows
    pts = [(r / 2.0, 0.0), (-r / 2.0, 0.0)]
    specs = [(p, a) for p in pts for a in ((1, 0), (0, 1))]
    specs += [(p, a) for p in pts for a in ((2, 0), (1, 1), (0, 2))]
    plain = derivative_covariance(model, specs)
    ext = derivative_covariance(model, _longdouble_points(specs))
    assert np.abs(ext.astype(float) - plain).max() <= 1e-13 * np.abs(plain).max()


def test_extended_assembly_keeps_lags_one_double_apart():
    # 1 and 1 + 3e-17 round to the same double but not the same 80-bit
    # number; each lag gets its own profile value
    model = RandomWave(1.0)
    one = np.longdouble(1.0)
    near = one + np.longdouble(3e-17)
    specs = _longdouble_points([((0.0, 0.0), (0, 0)), ((one, 0.0), (0, 0)), ((near, 0.0), (0, 0))])
    cov = derivative_covariance(model, specs)
    gap = model.sigma_derivative(0, one * one) - model.sigma_derivative(0, near * near)
    assert gap != 0.0
    assert cov[0, 1] - cov[0, 2] == gap


def _same_bits(a, b) -> bool:
    """Equal values and equal signs of zero: the same encoding, padding aside."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64], ids=["longdouble", "double"])
@pytest.mark.parametrize("model", [*ALL_MODELS, PowerLawTruncated(100.0)], ids=repr)
def test_batched_covariance_is_the_per_point_covariance_bit_for_bit(model, dtype):
    # points with a batch axis broadcast against single points; each
    # batch element gets the bytes of its own call, lag 0 included
    rng = np.random.default_rng(3)
    batch = rng.uniform(-8.0, 8.0, (23, 2)).astype(dtype)
    batch[5] = 0.0
    single = np.array([0.4, -0.3], dtype=dtype)
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1), (0, 4)]

    def specs(p):
        return [(p, a) for a in alphas[:4]] + [(single, a) for a in alphas[2:]]

    cov = derivative_covariance(model, specs(batch))
    assert cov.shape == (len(batch), 10, 10) and cov.dtype == dtype
    for p, got in zip(batch, cov):
        assert _same_bits(got, derivative_covariance(model, specs(p)))


@pytest.mark.parametrize(
    "model",
    [PowerLawTruncated(2.0), PowerLawTruncated(100.0),
     Interpolation(0.35, RandomWave(1.0), PowerLawTruncated(2.0))],
    ids=repr,
)
def test_ring_sums_of_a_batch_are_the_per_lag_sums(model):
    # each lag's 64 ring terms must be reduced in the order of a lone
    # lag's 1-D sum, whatever the shape of the lag array; another order
    # moves the last bits of the 80-bit profile
    lags = np.geomspace(1e-6, 60.0, 48).astype(np.longdouble) ** 2
    for shape in [(48,), (6, 8)]:
        x = lags.reshape(shape)
        for j in range(5):
            got = model.sigma_derivative(j, x)
            want = np.array([model.sigma_derivative(j, xi) for xi in lags], dtype=np.longdouble)
            assert _same_bits(got, want.reshape(shape)), (shape, j)


def test_derivative_covariance_rejects_order_above_four():
    with pytest.raises(ValueError):
        derivative_covariance(RandomWave(1.0), [((0.0, 0.0), (3, 2))])


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_config_round_trip(model):
    cfg = model_to_config(model)
    assert all(isinstance(k, str) and isinstance(v, (str, float)) for k, v in cfg.items())
    assert model_from_config(cfg) == model
    # string values, as a config file would supply them, parse the same way
    assert model_from_config({k: str(v) for k, v in cfg.items()}) == model


def test_config_nested_interpolation_uses_dotted_keys():
    mix = Interpolation(0.25, BargmannFock(2.0), RandomWave(1.0))
    cfg = model_to_config(mix)
    assert cfg["left.family"] == "bargmannfock"
    assert cfg["right.family"] == "randomwave"
    assert model_from_config(cfg) == mix


def test_config_unknown_family_rejected():
    with pytest.raises(ValueError):
        model_from_config({"family": "whitenoise"})


SCHEMA_MODELS = [
    *ALL_MODELS,
    PowerLawTruncated(math.inf),
    Interpolation(0.6, Interpolation(0.25, BargmannFock(2.0), RandomWave(1.0)),
                  ShiftedRandomWave(tau=0.5, s=1.0, k=2.0)),
]


def _field_keys(model, prefix=""):
    """family plus every dataclass field name, a nested model's behind its field and a dot."""
    keys = [prefix + "family"]
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)
        if isinstance(value, CovarianceModel):
            keys += _field_keys(value, f"{prefix}{field.name}.")
        else:
            keys.append(prefix + field.name)
    return keys


@pytest.mark.parametrize("model", SCHEMA_MODELS, ids=_ids(SCHEMA_MODELS))
def test_config_keys_are_the_dataclass_fields(model):
    cfg = model_to_config(model)
    assert sorted(cfg) == sorted(_field_keys(model))
    assert model_from_config(cfg) == model
    assert model_from_config({k: str(v) for k, v in cfg.items()}) == model


_MIX = {"family": "interpolation", "s": "0.5", "left.family": "randomwave", "left.k": "1",
        "right.family": "bargmannfock", "right.k": "1"}


@pytest.mark.parametrize("config, key", [
    pytest.param({**_MIX, "k": "7"}, "'k'", id="k-on-interpolation"),
    pytest.param({"family": "randomwave", "k": "1", "left.k": "3"}, "'left.k'",
                 id="left.k-on-randomwave"),
    pytest.param({"family": "randomwave"}, "'k'", id="missing-k"),
    pytest.param({"family": "bargmannfock", "k": "1", "t": "5"}, "'t'", id="t-on-bargmannfock"),
    pytest.param({k: v for k, v in _MIX.items() if k != "left.family"}, "'left.family'",
                 id="missing-left.family"),
    pytest.param({**_MIX, "left.t": "2"}, "'left.t'", id="left.t-on-randomwave-left"),
    pytest.param({**_MIX, "right.family": "whitenoise"}, "right.family",
                 id="unknown-right.family"),
])
def test_config_refusals_name_the_full_dotted_key(config, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        model_from_config(config)


@pytest.mark.parametrize("config, key", [
    pytest.param({"family": "randomwave", "k": "abc"}, "'k'", id="k"),
    pytest.param({**_MIX, "right.k": "x"}, "'right.k'", id="right.k"),
    pytest.param({"family": "bargmannfock", "k": None}, "'k'", id="none"),
])
def test_config_values_that_are_not_numbers_name_their_key(config, key):
    with pytest.raises(ValueError, match=re.escape(f"model key {key} is not a number")):
        model_from_config(config)


def test_model_validation():
    with pytest.raises(ValueError):
        RandomWave(-1.0)
    with pytest.raises(ValueError):
        PowerLawTruncated(1.0)
    with pytest.raises(ValueError):
        Interpolation(1.5, RandomWave(1.0), RandomWave(2.0))
    # scale parameters must be finite; only the power law's cutoff may be inf
    for make in (
        lambda: RandomWave(math.inf),
        lambda: BargmannFock(math.inf),
        lambda: ShiftedRandomWave(tau=math.inf, s=1.0, k=1.0),
        lambda: ShiftedRandomWave(tau=math.nan, s=1.0, k=1.0),
        lambda: ShiftedRandomWave(tau=1.0, s=math.inf, k=1.0),
        lambda: ShiftedRandomWave(tau=1.0, s=1.0, k=math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    assert PowerLawTruncated(math.inf).t == math.inf


@pytest.mark.parametrize("a, b, message", [(-2, 2, "exponents must be nonnegative"),
                                           (6, 4, "moment order 10 exceeds")])
def test_spectral_moment_refuses_exponents_outside_its_range(a, b, message):
    with pytest.raises(ValueError, match=message):
        spectral_moment(RandomWave(1.0), a, b)


# ---------------------------------------------------------------------------
# The ring rule
# ---------------------------------------------------------------------------


def _alias_bound(x, n):
    """2 (x / 2)^2n / (2n)!, the bound on the ring design's leading alias 2 |J_2n(x)|
    (inf where it overflows a double)."""
    log_bound = math.log(2.0) + 2 * n * math.log(x / 2.0) - math.lgamma(2 * n + 1)
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


@pytest.mark.parametrize("x, n", [
    (20.0 * math.sqrt(2.0), 33),  # a 20 x 20 window at k = 1
    (10.0 * math.sqrt(2.0), 22),
    (40.0 * math.sqrt(2.0), 54),  # the default window 40 / k_eff
    (1.5 * 20.0 * math.sqrt(2.0), 44),  # ShiftedRandomWave(0.8, 1.3, 1.5) on side 20
])
def test_ring_rule_gives_the_fewest_terms_within_its_bound(x, n):
    assert exact_ring_terms(x) == n
    assert _alias_bound(x, n) <= 1e-16 < _alias_bound(x, n - 1)
    # The bound holds the alias itself: 2 |J_2n(x)| within it.
    assert 2.0 * abs(special.jv(2 * n, x)) <= _alias_bound(x, n)


def test_ring_rule_is_the_smallest_n_at_every_argument():
    # The rule bisects; a scan from n = 1 is its definition.
    for x in [0.0, 1e-9, *np.geomspace(1e-3, 2000.0, 400)]:
        n = 1
        while x > 0 and _alias_bound(x, n) > 1e-16:
            n += 1
        assert exact_ring_terms(x) == n, x
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite nonnegative"):
            exact_ring_terms(bad)


@pytest.mark.parametrize("model", ALL_MODELS, ids=_ids(ALL_MODELS))
def test_only_the_circle_families_have_a_ring_design(model):
    rule = model.ring_terms(20.0 * math.sqrt(2.0))
    if isinstance(model, (RandomWave, ShiftedRandomWave)):
        assert rule == exact_ring_terms(model.k * 20.0 * math.sqrt(2.0))
        freqs = model.sample_ring(np.random.default_rng(3), rule)
        np.testing.assert_allclose(np.hypot(*freqs.T), model.k, rtol=1e-15)
    else:
        assert rule is None


_FIVE_FAMILIES = [RandomWave(1.0), BargmannFock(1.0), ShiftedRandomWave(tau=0.8, s=1.3, k=1.5),
                  PowerLawTruncated(3.0), Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0))]


@pytest.mark.parametrize("model", _FIVE_FAMILIES, ids=_ids(_FIVE_FAMILIES))
def test_effective_wavenumber_sizes_the_grid_step_and_the_window(model):
    # k_eff^2 = R_2 / R_0, and the finder's default step and the sweep's
    # default window are 2 pi / k_eff / 8 and 40 / k_eff.
    k_eff = effective_wavenumber(model)
    assert k_eff**2 == pytest.approx(model.radial_moment(2) / model.radial_moment(0), rel=1e-15)
    assert default_grid_step(model) == 2.0 * math.pi / k_eff / 8.0
    assert default_window(model) == ((0.0, 40.0 / k_eff), (0.0, 40.0 / k_eff))


def test_effective_wavenumber_of_a_shifted_random_wave_is_below_k():
    # The atom adds variance and no gradient: k s / sqrt(tau^2 + s^2).
    k_eff = effective_wavenumber(ShiftedRandomWave(tau=0.8, s=1.3, k=1.5))
    assert k_eff == pytest.approx(1.5 * 1.3 / math.hypot(0.8, 1.3), rel=1e-15)
    assert round(k_eff, 4) == 1.2775
