"""Acceptance gate: twelve end-to-end checks at fixed seeds and budgets.

Each test covers one numbered criterion and prints a single pass/fail
line (visible under pytest -s; the same text lands in the assertion
message on failure).  Budgets are sized so the whole file runs in a few
minutes on one core.
"""

import math

import numpy as np

from planarcrit import (
    BargmannFock,
    Interpolation,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    SigmaDerivatives,
    cli,
    fit_scaling,
    gradient_pair_density,
    gradient_pair_density_asymptotic,
    grw_minimality_gap,
    intensity,
    k2_limit,
    lambda_c,
    one_point_intensity_mc,
    poisson_control_ratio,
    repulsion_factor,
    second_factorial,
    second_factorial_by_quadrature,
    sigma_derivatives,
    small_ball_probability,
    spectral_moment,
    sweep,
    two_point_correlation,
)

WINDOW20 = ((0.0, 20.0), (0.0, 20.0))


def check(num, name, ok, detail):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_radial_atoms(rng, natoms=3):
    """Radii and normalized weights of a random finite radial measure."""
    radii = rng.uniform(0.1, 3.0, natoms)
    weights = rng.uniform(0.1, 1.0, natoms)
    return radii, weights / weights.sum()


def random_profile_derivatives(rng, natoms=3) -> SigmaDerivatives:
    """Derivatives of a random finite radial spectral measure.

    A discrete measure with a few atoms is always admissible, and its
    even radial moments give the profile derivatives directly.
    """
    radii, weights = random_radial_atoms(rng, natoms)
    moment = lambda n: float(weights @ radii**n)
    return SigmaDerivatives(
        eta0=-moment(2) / 4.0,
        mu0=moment(4) / 32.0,
        nu0=-moment(6) / 384.0,
        upsilon=moment(8) / 6144.0,
    )


def random_measure_model(rng, natoms=3):
    """Random finite radial measure as nested mixtures of circle atoms.

    Interpolation mixes radial moments linearly, so folding the atoms
    pairwise with cumulative weights realizes an arbitrary discrete
    measure as a model object.
    """
    radii, weights = random_radial_atoms(rng, natoms)
    model = RandomWave(float(radii[0]))
    total = float(weights[0])
    for k_i, w_i in zip(radii[1:], weights[1:]):
        w_i = float(w_i)
        model = Interpolation(total / (total + w_i), model, RandomWave(float(k_i)))
        total += w_i
    return model


def test_01_closed_form_exactness():
    worst = 0.0
    for k in (1.0, 2.0, 0.7):
        d = sigma_derivatives(RandomWave(k))
        worst = max(worst, abs(lambda_c(d) - k**2 / (2.0 * math.sqrt(3.0) * math.pi)))
        worst = max(worst, abs(repulsion_factor(d) - 1.0 / (8.0 * math.sqrt(3.0))))
    d = sigma_derivatives(BargmannFock(1.0))
    worst = max(worst, abs(repulsion_factor(d) - math.sqrt(3.0) / 4.0))
    check(1, "closed-form intensity and repulsion factor", worst < 1e-12,
          f"worst abs error {worst:.2e}")


def test_02_limit_coefficient_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        d = random_profile_derivatives(rng)
        a = k2_limit(d)
        worst = max(worst, abs(a - repulsion_factor(d) * lambda_c(d) ** 2) / abs(a))
    check(2, "k2_limit = repulsion_factor * lambda_c^2", worst < 1e-12,
          f"worst rel error {worst:.2e} over 100 random measures")


def test_03_spectral_moment_consistency():
    models = [
        RandomWave(1.0),
        BargmannFock(1.0),
        ShiftedRandomWave(tau=0.8, s=1.3, k=1.5),
        PowerLawTruncated(2.0),
        Interpolation(0.35, RandomWave(1.0), PowerLawTruncated(2.0)),
    ]
    worst = 0.0
    for m in models:
        d = sigma_derivatives(m)
        for (a, b), target in [
            ((2, 0), -2.0 * d.eta0),
            ((2, 2), 4.0 * d.mu0),
            ((4, 0), 12.0 * d.mu0),
            ((6, 0), -120.0 * d.nu0),
        ]:
            rel = abs(spectral_moment(m, a, b) - target) / abs(target)
            worst = max(worst, rel)
    check(3, "spectral moments match profile derivatives", worst < 1e-10,
          f"worst rel error {worst:.2e} over 5 families")


def test_04_one_point_determinant_moment():
    m = RandomWave(1.0)
    d = sigma_derivatives(m)
    grad_density = 1.0 / (4.0 * math.pi * abs(d.eta0))
    target_all = 16.0 * d.mu0 / math.sqrt(3.0)
    target_half = 8.0 * d.mu0 / math.sqrt(3.0)
    errs = {}
    for i, (kind, target, tol) in enumerate([("c", target_all, 0.01),
                                             ("e", target_half, 0.02),
                                             ("s", target_half, 0.02)]):
        est = one_point_intensity_mc(m, nsamples=10**6, seed=(4, i), kind=kind)
        det_moment = est.value / grad_density
        errs[kind] = abs(det_moment - target) / target
        assert errs[kind] < tol, (kind, det_moment, target)
    check(4, "conditional |det Hessian| moment", True,
          "rel errors " + ", ".join(f"{k}={v:.4f}" for k, v in errs.items()))


def test_05_two_point_small_distance_limit():
    m = RandomWave(1.0)
    d = sigma_derivatives(m)
    a = k2_limit(d)
    est = two_point_correlation(m, 0.01, pair=("c", "c"), nsamples=4 * 10**6, seed=21)
    rel = abs(est.value - a) / a
    dens = gradient_pair_density(m, 0.01)
    asym = gradient_pair_density_asymptotic(d, 0.01)
    rel_dens = abs(dens - asym) / asym
    check(5, "K2 approaches the limit coefficient", rel < 0.05 and rel_dens < 0.01,
          f"K2 rel {rel:.4f} (tol 0.05), gradient density rel {rel_dens:.5f} (tol 0.01)")


def test_06_typed_scaling_exponents():
    m = RandomWave(1.0)
    radii = np.geomspace(0.005, 0.05, 5)

    ee = [two_point_correlation(m, r, pair=("e", "e"), nsamples=2 * 10**7, seed=(11, i))
          for i, r in enumerate(radii)]
    slope = fit_scaling(ee).exponent
    ok_ee = abs(slope - 3.0) < 0.3

    ss = [two_point_correlation(m, r, pair=("s", "s"), nsamples=8 * 10**6, seed=(12, i))
          for i, r in enumerate(radii)]
    y = np.array([e.value for e in ss]) / radii**3
    x = np.abs(np.log(radii))
    b, a0 = np.polyfit(x, y, 1)
    resid = y - (a0 + b * x)
    r2 = 1.0 - float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))
    ok_ss = b > 0 and r2 > 0.9

    ball = [second_factorial_by_quadrature(m, rho, pair=("e", "e"),
                                           nsamples_per_node=10**5, seed=(7, i))
            for i, rho in enumerate(np.geomspace(0.05, 0.2, 4))]
    exponent = fit_scaling(ball).exponent
    ok_ball = abs(exponent - 7.0) < 0.5

    check(6, "typed small-distance exponents", ok_ee and ok_ss and ok_ball,
          f"ee slope {slope:.3f} (3 +- 0.3), ss log-slope {b:.3e} R2 {r2:.3f}, "
          f"ball ee exponent {exponent:.3f} (7 +- 0.5)")


def test_07_empirical_intensity_and_type_fractions():
    m = RandomWave(1.0)
    sw = sweep(m, nreal=200, seed=5, window=WINDOW20)
    out = {kind: intensity(sw, kind) for kind in ("c", "e", "s", "min", "max")}
    lam = lambda_c(sigma_derivatives(m))
    rel = abs(out["c"].value - lam) / lam
    fracs = {k: out[k].value / out["c"].value for k in ("e", "s", "min", "max")}
    targets = {"e": 0.5, "s": 0.5, "min": 0.25, "max": 0.25}
    worst = max(abs(fracs[k] - targets[k]) for k in targets)
    check(7, "simulated intensity and type fractions", rel < 0.03 and worst < 0.02,
          f"intensity rel {rel:.4f} (tol 0.03), worst fraction error {worst:.4f} (tol 0.02)")


def test_08_empirical_vs_quadrature_ball_moment():
    m = RandomWave(1.0)
    emp = second_factorial(sweep(m, nreal=200, seed=8, rho_list=[0.5], window=WINDOW20), 0.5)
    quad = second_factorial_by_quadrature(m, 0.5, pair=("c", "c"),
                                          nsamples_per_node=10**5, seed=13)
    se = math.hypot(emp.std_error, quad.std_error)
    z = abs(emp.value - quad.value) / se
    check(8, "empirical ball moment matches quadrature", z < 3.0,
          f"emp {emp.value:.4e}, quad {quad.value:.4e}, z = {z:.2f} (tol 3)")


def test_09_attractive_regime_and_minimality():
    values = [repulsion_factor(sigma_derivatives(PowerLawTruncated(t)))
              for t in (2.0, 5.0, 10.0, 100.0)]
    ok_incr = all(b > a for a, b in zip(values, values[1:])) and values[-1] > 1.0
    rng = np.random.default_rng(99)
    worst = min(grw_minimality_gap(random_measure_model(rng, natoms=int(rng.integers(1, 6))))
                for _ in range(1000))
    check(9, "attractiveness attained and monochromatic minimality",
          ok_incr and worst >= -1e-12,
          f"repulsion factors {[round(v, 4) for v in values]}, min gap {worst:.2e}")


def test_10_small_ball_band():
    ratios = []
    for r in (1e-4, 1e-3, 1e-2):
        ratios.append(small_ball_probability(r) / (r * math.log(1.0 / r)))
    band = max(ratios) / min(ratios)
    check(10, "product small-ball probability stays in one band", band < 2.0,
          f"ratios {[round(x, 4) for x in ratios]}, max/min {band:.3f} (tol 2)")


def test_11_poisson_null_control():
    est = poisson_control_ratio(0.1, WINDOW20, rho=1.0, nreal=200, seed=11)
    z = abs(est.value - 1.0) / est.std_error
    check(11, "Poisson control ratio is one", z < 3.0,
          f"ratio {est.value:.4f} +- {est.std_error:.4f}, z = {z:.2f} (tol 3)")


def test_12_kacrice_route_sees_the_attractive_regime():
    failed = []
    # At t = 100 the ball radius follows the spectrum's inner scale, far
    # below the correlation length.
    for t in (5.0, 10.0, 100.0):
        for name, ref, est, _, tol in cli._report_checks(PowerLawTruncated(t), 12, "small", 1):
            if not abs(est - ref) <= tol:
                failed.append(f"t = {t:g} {name}: {est:.4g} vs {ref:.4g} (tol {tol:.3g})")
    check(12, "small-budget report passes for attractive power laws", not failed,
          "; ".join(failed) or "every row of t = 5, 10 and 100 within tolerance")
