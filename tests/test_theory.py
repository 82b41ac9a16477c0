"""Closed-form intensity, repulsion factor, and small-ball asymptotics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcrit.models import (
    BargmannFock,
    Interpolation,
    MomentDivergenceError,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    SigmaDerivatives,
    sigma_derivatives,
)
from planarcrit.theory import (
    KINDS,
    MIN_REPULSION_FACTOR,
    TYPE_FRACTIONS,
    ball_area_squared,
    grw_minimality_gap,
    k2_limit,
    lambda_c,
    normalize_kind,
    normalize_pair,
    pair_tags,
    repulsion_factor,
    scaling_order,
    second_factorial_asymptotic,
    theory_report,
)


@pytest.mark.parametrize("k", [1.0, 2.0, 0.7])
def test_random_wave_intensity_closed_form(k):
    d = sigma_derivatives(RandomWave(k))
    assert abs(lambda_c(d) - k**2 / (2.0 * math.sqrt(3.0) * math.pi)) < 1e-12


@pytest.mark.parametrize("k", [1.0, 2.0, 0.7])
def test_random_wave_repulsion_is_the_minimum(k):
    d = sigma_derivatives(RandomWave(k))
    assert abs(repulsion_factor(d) - 1.0 / (8.0 * math.sqrt(3.0))) < 1e-12
    assert abs(repulsion_factor(d) - MIN_REPULSION_FACTOR) < 1e-15


@pytest.mark.parametrize("k", [1.0, 3.0])
def test_bargmann_fock_repulsion_closed_form(k):
    d = sigma_derivatives(BargmannFock(k))
    assert abs(repulsion_factor(d) - math.sqrt(3.0) / 4.0) < 1e-12


def test_random_wave_k2_limit_frozen_value():
    # for k = 1 the limit constant is 1 / (96 sqrt(3) pi^2)
    d = sigma_derivatives(RandomWave(1.0))
    assert k2_limit(d) == pytest.approx(1.0 / (96.0 * math.sqrt(3.0) * math.pi**2), rel=1e-13)
    assert k2_limit(d) == pytest.approx(0.0006093522151095331, rel=1e-12)


@given(
    eta=st.floats(min_value=-5.0, max_value=-0.05),
    mu=st.floats(min_value=0.05, max_value=5.0),
    nu=st.floats(min_value=-5.0, max_value=-0.05),
)
@settings(max_examples=100)
def test_k2_limit_factors_into_repulsion_times_intensity_squared(eta, mu, nu):
    d = SigmaDerivatives(eta0=eta, mu0=mu, nu0=nu, upsilon=1.0)
    lhs = k2_limit(d)
    rhs = repulsion_factor(d) * lambda_c(d) ** 2
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_repulsion_factor_scale_invariant():
    # lambda_c scales like k^2 under dilation; R_c does not move at all
    for k in (0.5, 1.0, 4.0):
        d = sigma_derivatives(RandomWave(k))
        assert repulsion_factor(d) == pytest.approx(
            repulsion_factor(sigma_derivatives(RandomWave(1.0))), rel=1e-12
        )
    # amplitude scaling (pure wave, no atom) leaves it unchanged too
    d_scaled = sigma_derivatives(ShiftedRandomWave(tau=1e-12, s=2.0, k=1.0))
    assert repulsion_factor(d_scaled) == pytest.approx(MIN_REPULSION_FACTOR, rel=1e-9)


def test_divergent_models_get_infinite_repulsion():
    d = sigma_derivatives(PowerLawTruncated(math.inf))
    assert repulsion_factor(d) == math.inf
    assert k2_limit(d) == math.inf
    assert math.isfinite(lambda_c(d))


def test_power_law_family_sweeps_past_one():
    values = [repulsion_factor(sigma_derivatives(PowerLawTruncated(t))) for t in (2, 5, 10, 100)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


def test_minimality_gap_zero_exactly_for_shifted_waves():
    assert abs(grw_minimality_gap(RandomWave(2.0))) < 1e-13
    assert abs(grw_minimality_gap(ShiftedRandomWave(tau=1.0, s=0.5, k=3.0))) < 1e-13
    assert grw_minimality_gap(PowerLawTruncated(2.0)) > 1e-3


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4),
    radii=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=4),
)
def test_minimality_gap_nonnegative_for_finite_circle_mixtures(weights, radii):
    # any finite mixture of circle measures is an admissible spectral measure
    n = min(len(weights), len(radii))
    model = RandomWave(radii[0])
    for w, k in zip(weights[1:n], radii[1:n]):
        s = w / (w + 1.0)
        model = Interpolation(s, RandomWave(k), model)
    assert grw_minimality_gap(model) >= -1e-12


def test_second_factorial_asymptotic_constants():
    d = sigma_derivatives(RandomWave(1.0))
    rho = 0.1
    area2 = (math.pi * rho**2) ** 2
    cc = second_factorial_asymptotic(d, rho, pair=("c", "c"))
    es = second_factorial_asymptotic(d, rho, pair=("e", "s"))
    assert cc == pytest.approx(k2_limit(d) * area2, rel=1e-13)
    assert es == pytest.approx(0.5 * cc, rel=1e-13)
    assert cc == pytest.approx(6.014065304058598e-07, rel=1e-12)
    with pytest.raises(ValueError):
        second_factorial_asymptotic(d, rho, pair=("e", "e"))


@pytest.mark.parametrize("rho", [1e100, 1e160])
def test_ball_moments_name_a_radius_whose_area_overflows(rho):
    # (pi rho^2)^2 past the largest double: ball_area_squared owns the
    # rule, and the asymptote and the report both name the radius.
    message = f"ball radius rho = {rho} is too large: (pi rho^2)^2 overflows"
    d = sigma_derivatives(RandomWave(1.0))
    for call in (lambda: ball_area_squared(rho), lambda: second_factorial_asymptotic(d, rho),
                 lambda: theory_report(RandomWave(1.0), rho)):
        with pytest.raises(OverflowError) as err:
            call()
        assert str(err.value) == message
    assert ball_area_squared(0.1) == (math.pi * 0.1**2) ** 2


def test_scaling_orders():
    assert scaling_order(("c", "c")).exponent == 4
    assert scaling_order(("e", "s")).exponent == 4
    ee = scaling_order(("e", "e"))
    ss = scaling_order(("s", "s"))
    assert (ee.exponent, ee.log_factor) == (7, False)
    assert (ss.exponent, ss.log_factor) == (7, True)


def test_kind_and_pair_normalization():
    assert normalize_kind("saddle") == "s"
    assert normalize_kind("MIN") == "min"
    assert normalize_pair("es") == ("e", "s")
    assert normalize_pair(("s", "e")) == ("e", "s")  # canonical order
    with pytest.raises(ValueError):
        normalize_kind("ridge")
    with pytest.raises(ValueError):
        normalize_pair(("c", "e"))


def test_normalize_pair_splits_spelled_out_names():
    assert normalize_pair("saddle,extremum") == ("e", "s")
    assert normalize_pair("saddle extremum") == ("e", "s")
    assert normalize_pair("e,s") == ("e", "s")
    with pytest.raises(ValueError, match=r"pair tags must be in \{c, e, s\}"):
        normalize_pair("min,max")


@pytest.mark.parametrize(
    "pair, message",
    [
        ("e s s", r"a pair is two tags, got 3 in 'e s s'"),
        (("e",), r"a pair is two tags, got 1 in \('e',\)"),
        ("ees", r"a pair is two tags, got 3 in 'ees'"),
        ("min,max", r"pair tags must be in \{c, e, s\}: 'min' is not c, e or s"),
        (("e", "ridge"), r"'ridge' is not c, e or s"),
        ("minmax", r"'minmax' reads as one unsplit name; .* comma or space"),
        ("extremumsaddle", r"unsplit name"),
    ],
)
def test_pair_messages_name_the_cause(pair, message):
    with pytest.raises(ValueError, match=message):
        normalize_pair(pair)
    with pytest.raises(ValueError, match=message):
        pair_tags(pair)


def test_theory_report_is_consistent():
    model = RandomWave(1.0)
    rep = theory_report(model, rho=0.25)
    d = sigma_derivatives(model)
    area = math.pi * 0.25**2
    assert rep["lambda_c"] == pytest.approx(lambda_c(d), rel=1e-15)
    for kind, frac in TYPE_FRACTIONS.items():
        count = rep[f"expected_count_{kind}"]
        assert count == pytest.approx(frac * rep["lambda_c"] * area, rel=1e-14)
    assert rep["repulsion_factor"] == repulsion_factor(d)
    assert list(rep) == [
        "rho", "lambda_c", "repulsion_factor", "k2_limit_a", "second_factorial_cc",
        *(f"expected_count_{kind}" for kind in KINDS),
    ]


def test_minimality_gap_of_the_untruncated_power_law_diverges():
    with pytest.raises(MomentDivergenceError, match="the gap is unbounded"):
        grw_minimality_gap(PowerLawTruncated(math.inf))


def test_scaling_orders_read_as_powers_of_rho():
    assert str(scaling_order("ss")) == "rho^7 * |log rho|"
    assert str(scaling_order("ee")) == "rho^7"
