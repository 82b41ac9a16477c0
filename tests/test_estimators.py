"""Empirical estimators: intensities, pair moments, controls, scaling fits."""

import math

import numpy as np
import pytest

from planarcrit.estimators import (
    MomentEstimate,
    default_window,
    fit_scaling,
    intensity,
    poisson_control_ratio,
    repulsion_ratio,
    second_factorial,
    sweep,
)
from planarcrit.models import RandomWave, sigma_derivatives
from planarcrit.theory import lambda_c


def test_intensity_consistent_with_theory_small_budget():
    model = RandomWave(1.0)
    est = intensity(sweep(model, nreal=30, seed=5, window=((0.0, 12.0), (0.0, 12.0))))
    lam = lambda_c(sigma_derivatives(model))
    assert abs(est.value - lam) < 4.0 * est.std_error
    assert est.std_error < 0.15 * lam


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


def test_poisson_control_near_one():
    est = poisson_control_ratio(
        intensity=1.0, window=((0.0, 20.0), (0.0, 20.0)), rho=0.5, nreal=150, seed=1
    )
    assert abs(est.value - 1.0) < 3.0 * est.std_error
    assert est.std_error < 0.2


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


def test_default_window_scales_with_oscillation_length():
    w1 = default_window(RandomWave(1.0))
    w2 = default_window(RandomWave(2.0))
    side1 = w1[0][1] - w1[0][0]
    side2 = w2[0][1] - w2[0][0]
    assert side1 == pytest.approx(2.0 * side2, rel=1e-12)
