"""Spectral field sampler: exact derivatives, PDE identity, reproducibility."""

import math

import numpy as np
import pytest

from planarcrit.models import RandomWave, ShiftedRandomWave, sigma_derivatives
from planarcrit.sampling import (
    empirical_derivative_variances,
    eval_derivative,
    eval_gradient,
    eval_hessian,
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


def test_eval_derivative_matches_finite_differences():
    f = sample_field(RandomWave(1.3), M=64, seed=5)
    x = np.array([0.37, -1.21])
    h = 1e-6
    for alpha, stencil in [
        ((1, 0), np.array([1.0, 0.0])),
        ((0, 1), np.array([0.0, 1.0])),
    ]:
        fd = (eval_derivative(f, x + h * stencil) - eval_derivative(f, x - h * stencil)) / (2 * h)
        assert eval_derivative(f, x, alpha) == pytest.approx(fd, abs=1e-8)
    # second derivatives against gradient differences
    grad_hi = eval_gradient(f, x + h * np.array([1.0, 0.0]))
    grad_lo = eval_gradient(f, x - h * np.array([1.0, 0.0]))
    hess = eval_hessian(f, x)
    assert hess[0, 0] == pytest.approx((grad_hi[0] - grad_lo[0]) / (2 * h), abs=1e-7)
    assert hess[0, 1] == pytest.approx((grad_hi[1] - grad_lo[1]) / (2 * h), abs=1e-7)
    assert hess[0, 1] == hess[1, 0]


def test_eval_many_agrees_with_eval_derivative():
    f = sample_field(RandomWave(1.0), M=64, seed=9)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [0.3, 0.4]])
    alphas = [(0, 0), (1, 0), (2, 1), (0, 4)]
    packed = eval_many(f, pts, alphas)
    for j, alpha in enumerate(alphas):
        np.testing.assert_allclose(packed[:, j], eval_derivative(f, pts, alpha), rtol=1e-13)


def test_gradient_and_hessian_accept_stacked_points():
    f = sample_field(RandomWave(1.0), M=64, seed=9)
    pts = seeded_rng(2).uniform(-3.0, 3.0, size=(3, 4, 2))
    grads = eval_gradient(f, pts)
    hessians = eval_hessian(f, pts)
    assert grads.shape == (3, 4, 2) and hessians.shape == (3, 4, 2, 2)
    flat = pts.reshape(-1, 2)
    np.testing.assert_array_equal(grads.reshape(-1, 2), eval_gradient(f, flat))
    np.testing.assert_array_equal(hessians.reshape(-1, 2, 2), eval_hessian(f, flat))
    # one point at a time goes through a matrix-vector product, which may
    # round the last bit differently
    tol = dict(rtol=1e-13, atol=1e-13)
    for i in range(3):
        for j in range(4):
            np.testing.assert_allclose(grads[i, j], eval_gradient(f, pts[i, j]), **tol)
            np.testing.assert_allclose(hessians[i, j], eval_hessian(f, pts[i, j]), **tol)


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
        vals[i] = eval_derivative(f, pts)
    var = vals.var(axis=0, ddof=1)
    se = sigma0 * math.sqrt(2.0 / (nreal - 1))
    assert np.all(np.abs(var - sigma0) < 4.0 * se)


def test_empirical_derivative_variances_match_model():
    model = RandomWave(1.0)
    d = sigma_derivatives(model)
    got = empirical_derivative_variances(model, M=128, nsamples=1500, seed=2)
    targets = {
        (1, 0): -2.0 * d.eta0,
        (2, 0): 12.0 * d.mu0,
        (1, 1): 4.0 * d.mu0,
        (3, 0): -120.0 * d.nu0,
    }
    for alpha, expected in targets.items():
        var, se = got[alpha]
        assert abs(var - expected) < 4.0 * se, alpha


def test_sample_field_validation():
    with pytest.raises(ValueError):
        sample_field(RandomWave(1.0), M=0, seed=1)
