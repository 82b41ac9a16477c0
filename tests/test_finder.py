"""Critical-point finder: exact lattice oracle, classification, dedup."""

import math

import numpy as np
import pytest

from planarcrit import finder
from planarcrit.finder import (
    CriticalKind,
    DegenerateHessianError,
    _dedup,
    classify,
    default_grid_step,
    find_critical_points,
)
from planarcrit.models import (
    BargmannFock,
    Interpolation,
    PowerLawTruncated,
    RandomWave,
    ShiftedRandomWave,
    sigma_derivatives,
)
from planarcrit.sampling import (
    FieldRealization,
    eval_gradient,
    eval_grid,
    eval_many,
    sample_field,
)


def _cosine_lattice_field():
    # psi(x, y) = cos(x) + cos(y): gradient zero exactly on the pi-lattice,
    # with kinds readable off the diagonal Hessian diag(-cos x, -cos y).
    return FieldRealization(
        frequencies=np.array([[1.0, 0.0], [0.0, 1.0]]),
        phases=np.zeros(2),
        amplitudes=np.ones(2),
        shift=0.0,
    )


def test_cosine_lattice_points_and_kinds():
    f = _cosine_lattice_field()
    window = ((-0.5, math.pi + 0.5), (-0.5, math.pi + 0.5))
    points = find_critical_points(f, window, grid_step=0.4)
    assert len(points) == 4
    expected = {
        (0, 0): CriticalKind.MAXIMUM,
        (0, 1): CriticalKind.SADDLE,
        (1, 0): CriticalKind.SADDLE,
        (1, 1): CriticalKind.MINIMUM,
    }
    for pt in points:
        key = (round(pt.location[0] / math.pi), round(pt.location[1] / math.pi))
        assert key in expected
        assert pt.kind is expected.pop(key)
        assert abs(pt.location[0] - key[0] * math.pi) < 1e-9
        assert abs(pt.location[1] - key[1] * math.pi) < 1e-9
        assert pt.gradient_residual < 1e-10
    assert not expected


def test_window_edges_respected():
    f = _cosine_lattice_field()
    # only the saddle at (pi, 0) and maximum at (0, 0) fall inside
    points = find_critical_points(f, ((-1.0, 4.0), (-1.0, 1.0)), grid_step=0.4)
    locs = sorted(round(p.location[0], 6) for p in points)
    assert locs == [0.0, round(math.pi, 6)]
    for p in points:
        assert -1.0 <= p.location[0] <= 4.0 and -1.0 <= p.location[1] <= 1.0


def test_no_duplicate_roots():
    field = sample_field(RandomWave(1.0), M=256, seed=4)
    points = find_critical_points(field, ((0.0, 10.0), (0.0, 10.0)), grid_step=0.6)
    locs = np.array([p.location for p in points])
    assert len(locs) >= 5  # lambda_c * area is about 9 here
    d2 = np.sum((locs[:, None, :] - locs[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    # no two roots closer than the dedup radius, grid_step / 100
    assert math.sqrt(d2.min()) > 0.6 / 100


def test_dedup_keeps_every_point_of_a_shared_cell():
    # The first two points share hash cell (0, 0) but are 1.39 apart, so
    # both are kept; the third is 0.02 from the first and must merge into it.
    pts = np.array([[0.01, 0.01], [0.99, 0.99], [-0.01, 0.01]])
    keep = _dedup(pts, np.array([0.0, 1.0, 2.0]), radius=1.0)
    np.testing.assert_array_equal(keep, [0, 1])


def test_type_counts_partition():
    field = sample_field(RandomWave(1.0), M=256, seed=12)
    points = find_critical_points(field, ((0.0, 12.0), (0.0, 12.0)))
    kinds = [p.kind for p in points]
    n_min = kinds.count(CriticalKind.MINIMUM)
    n_max = kinds.count(CriticalKind.MAXIMUM)
    n_sad = kinds.count(CriticalKind.SADDLE)
    assert n_min + n_max + n_sad == len(points)


def test_hessian_attributes_consistent():
    field = sample_field(RandomWave(1.0), M=128, seed=6)
    points = find_critical_points(field, ((0.0, 8.0), (0.0, 8.0)))
    for p in points:
        lo, hi = p.hessian_eigenvalues
        assert lo <= hi
        assert p.hessian_det == pytest.approx(lo * hi, rel=1e-8)
        if p.kind is CriticalKind.SADDLE:
            assert p.hessian_det < 0
        else:
            assert p.hessian_det > 0
            assert (hi < 0) == (p.kind is CriticalKind.MAXIMUM)


def test_classify_kinds_and_degeneracy():
    assert classify(np.diag([2.0, 3.0])) is CriticalKind.MINIMUM
    assert classify(np.diag([-2.0, -3.0])) is CriticalKind.MAXIMUM
    assert classify(np.diag([2.0, -3.0])) is CriticalKind.SADDLE
    with pytest.raises(DegenerateHessianError):
        classify(np.diag([1.0, 0.0]))


def test_default_grid_step_tracks_oscillation_length():
    # higher wave number means finer oscillation, so a smaller seeding grid
    assert default_grid_step(RandomWave(2.0)) == pytest.approx(
        default_grid_step(RandomWave(1.0)) / 2.0, rel=1e-12
    )


def test_search_config_validation():
    for step in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            find_critical_points(_cosine_lattice_field(), ((0.0, 1.0), (0.0, 1.0)), grid_step=step)
    # a field with no model attached needs an explicit grid step
    with pytest.raises(ValueError):
        find_critical_points(_cosine_lattice_field(), ((0.0, 1.0), (0.0, 1.0)))


def test_determinism():
    field = sample_field(RandomWave(1.0), M=128, seed=3)
    window = ((0.0, 6.0), (0.0, 6.0))
    a = find_critical_points(field, window)
    b = find_critical_points(field, window)
    assert [p.location for p in a] == [p.location for p in b]
    assert [p.kind for p in a] == [p.kind for p in b]


def _counters(field, window):
    diag = {}
    points = find_critical_points(field, window, diagnostics=diag)
    return points, diag


def test_counters_partition_the_seeds(monkeypatch):
    # a field of the benchmark's sweep whose window has a runaway trajectory
    field = sample_field(RandomWave(1.0), M=256, seed=(101, 6), gaussian_amplitudes=True)
    window = ((0.0, 12.0), (0.0, 12.0))
    points, diag = _counters(field, window)
    assert diag["nseeds"] == diag["nconverged"] + diag["nmerged"] + diag["ndropped"]
    assert diag["ndropped"] == diag["nrunaway"] + diag["nstalled"]
    assert diag["nreturned"] == len(points)
    assert diag["nmerged"] > 0 and diag["nrunaway"] > 0
    # every seed takes at least one Newton step unless it starts converged
    assert diag["newton_iters"] >= diag["nseeds"]
    # a short iteration budget leaves trajectories stalled, not lost
    monkeypatch.setattr(finder, "_MAX_ITERS", 2)
    _, short = _counters(field, window)
    assert short["nstalled"] > 0
    assert short["nseeds"] == short["nconverged"] + short["nmerged"] + short["ndropped"]
    assert short["ndropped"] == short["nrunaway"] + short["nstalled"]


def test_newton_evaluates_each_visited_point_once(monkeypatch):
    # One eval_many call per step gives the gradient and the Hessian at the
    # points the step lands on: the seeds and every landing point inside
    # the search bound are evaluated, each once, and nothing else is.
    field = sample_field(RandomWave(1.0), M=256, seed=(101, 6), gaussian_amplitudes=True)
    newton, runs = finder._newton, []

    def recording(*args):
        runs.append(args)
        return newton(*args)

    monkeypatch.setattr(finder, "_newton", recording)
    find_critical_points(field, ((0.0, 12.0), (0.0, 12.0)))
    f, seeds, bound, radius = runs[0]
    evaluated, gradient_calls = [], []

    def many(f, x, alphas):
        assert alphas == finder._DERIVS
        evaluated.append(np.array(x))
        return eval_many(f, x, alphas)

    monkeypatch.setattr(finder, "eval_many", many)
    monkeypatch.setattr(finder, "eval_gradient", lambda *args: gradient_calls.append(args))
    _, _, _, (_, nrunaway, _, newton_iters) = newton(f, seeds, bound, radius)
    assert not gradient_calls
    visited = np.concatenate(evaluated)
    assert len(visited) == len(seeds) + newton_iters - nrunaway
    assert len(np.unique(visited, axis=0)) == len(visited)
    assert nrunaway > 0 and newton_iters > len(seeds)


def test_newton_makes_no_empty_evaluation(monkeypatch):
    # When every active trajectory leaves the search bound in one step, the
    # loop ends there instead of evaluating zero points.  Over the 40
    # realizations of the benchmark's simulate sweep (seed 101) this
    # happens once.  A window without a candidate cell evaluates no seed.
    sizes = []

    def many(f, x, alphas):
        sizes.append(len(x))
        return eval_many(f, x, alphas)

    monkeypatch.setattr(finder, "eval_many", many)
    model = RandomWave(1.0)
    for i in range(40):
        field = sample_field(model, M=256, seed=(101, i), gaussian_amplitudes=True)
        find_critical_points(field, ((0.0, 20.0), (0.0, 20.0)))
    assert len(sizes) > 400 and min(sizes) > 0
    diag = {}
    assert find_critical_points(field, ((0.0, 0.2), (0.0, 0.2)), diagnostics=diag) == []
    assert diag["nseeds"] == 0 and min(sizes) > 0


def test_a_finder_call_evaluates_no_point_twice(monkeypatch):
    # Newton's values at its end points feed the fold-partner prediction,
    # the polishing step, classification and the index defect: no point
    # gets _DERIVS twice, none is asked for its Hessian alone, the third
    # derivatives are asked only at deduplicated converged roots, and
    # gradient-only rows lie on the index defect's ring.  A window with
    # merged and runaway trajectories, and one whose saddle is found only
    # from its fold partner (twice the default step).
    calls, axes, gradient_calls = [], [], []

    def many(f, x, alphas):
        vals = eval_many(f, x, alphas)
        calls.append((np.array(x), list(alphas), vals))
        return vals

    def grid(f, xaxis, yaxis, alphas):
        axes.append((xaxis, yaxis))
        return eval_grid(f, xaxis, yaxis, alphas)

    monkeypatch.setattr(finder, "eval_many", many)
    monkeypatch.setattr(finder, "eval_grid", grid)
    monkeypatch.setattr(finder, "eval_gradient",
                        lambda f, x: gradient_calls.append(x) or eval_gradient(f, x))
    fold = sample_field(BargmannFock(1.0), M=1024, seed=(202, 39))
    cases = [(sample_field(RandomWave(1.0), M=256, seed=(101, 6), gaussian_amplitudes=True), 1),
             (fold, 2)]
    for field, coarsen in cases:
        calls.clear()
        step = coarsen * default_grid_step(field.model)
        find_critical_points(field, ((0.0, 12.0), (0.0, 12.0)), step, diagnostics={})
        assert all(alphas in (finder._DERIVS, finder._THIRD, finder._DERIVS[:2])
                   for _, alphas, _ in calls)
        assert not any(alphas == finder._HESSIAN for _, alphas, _ in calls)
        rows = np.concatenate([x for x, alphas, _ in calls if alphas == finder._DERIVS])
        assert len(np.unique(rows, axis=0)) == len(rows)
        gnorm = {tuple(p): math.hypot(*v[:2]) for x, alphas, vals in calls
                 if alphas == finder._DERIVS for p, v in zip(x.tolist(), vals)}
        (third,) = [x for x, alphas, _ in calls if alphas == finder._THIRD]
        assert all(gnorm[tuple(p)] <= finder._NEWTON_TOL for p in third.tolist())
        gaps = np.hypot(*(third[:, None, :] - third[None, :, :]).transpose(2, 0, 1))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= step / 100
        xs, ys = _axis_points(*axes[-1])
        for x, alphas, _ in calls:
            if alphas == finder._DERIVS[:2]:
                assert np.all(np.isin(x[:, 0], xs[[0, -1]]) | np.isin(x[:, 1], ys[[0, -1]]))
    assert not gradient_calls


def _reference_roots(f, window):
    """The finder before the separable seed grid, gradient reuse and collapse.

    Gradient of every seed, then per iteration a full gradient-and-Hessian
    evaluation of every active point, line search, one _dedup at the end
    and a fresh Hessian evaluation at its own roots; returns
    [(x, y, kind)].  The model's default grid step, the finder's Newton
    tolerance, the earlier iteration cap of 50 (its own literal, so a
    lower cap in the finder cannot weaken the reference), the
    dedup radius h / 100 and the degeneracy floor 1e-12 * 12 mu0.
    """
    (xmin, xmax), (ymin, ymax) = window
    h = default_grid_step(f.model)
    dedup_radius = h / 100.0
    det_floor = 1e-12 * max(12.0 * sigma_derivatives(f.model).mu0, 1e-300)
    margin = 2.0 * h
    xs = np.arange(xmin - margin, xmax + margin + h, h)
    ys = np.arange(ymin - margin, ymax + margin + h, h)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    bound = np.array([xmin - 2 * margin, ymin - 2 * margin, xmax + 2 * margin, ymax + 2 * margin])
    derivs = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    gnorm = np.linalg.norm(eval_gradient(f, pts), axis=1)
    active = np.arange(len(pts))
    for _ in range(50):
        active = active[gnorm[active] > finder._NEWTON_TOL]
        if active.size == 0:
            break
        p = pts[active]
        g1, g2, h11, h12, h22 = eval_many(f, p, derivs).T
        det = h11 * h22 - h12**2
        ok = np.abs(det) > 1e-300
        step = np.zeros_like(p)
        step[ok, 0] = (h22[ok] * g1[ok] - h12[ok] * g2[ok]) / det[ok]
        step[ok, 1] = (-h12[ok] * g1[ok] + h11[ok] * g2[ok]) / det[ok]
        damp = np.ones(len(p))
        trial = p - step
        tnorm = np.linalg.norm(eval_gradient(f, trial), axis=1)
        for _ in range(6):
            worse = (tnorm >= np.hypot(g1, g2)) & ok & (damp > 1.0 / 64.0)
            if not worse.any():
                break
            damp[worse] *= 0.5
            trial[worse] = p[worse] - damp[worse, None] * step[worse]
            tnorm[worse] = np.linalg.norm(eval_gradient(f, trial[worse]), axis=1)
        out = (~ok | (trial[:, 0] < bound[0]) | (trial[:, 1] < bound[1])
               | (trial[:, 0] > bound[2]) | (trial[:, 1] > bound[3]))
        pts[active] = trial
        gnorm[active] = tnorm
        gnorm[active[out]] = np.inf
        active = active[~out]
    sel = (gnorm <= finder._NEWTON_TOL) & (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax) \
        & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
    roots = pts[sel][_dedup(pts[sel], gnorm[sel], dedup_radius)]
    hess = eval_many(f, roots, [(2, 0), (1, 1), (0, 2)])
    kinds = [classify([[h11, h12], [h12, h22]], det_floor) for h11, h12, h22 in hess]
    return [(x, y, kind) for (x, y), kind in zip(roots.tolist(), kinds)]


_FAMILIES = [
    RandomWave(1.0),
    BargmannFock(1.0),
    ShiftedRandomWave(0.5, 1.0, 1.0),
    PowerLawTruncated(3.0),
    Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0)),
]


@pytest.mark.parametrize("model", _FAMILIES, ids=lambda m: m.family)
def test_root_sets_match_the_reference_loop(model):
    # Two realizations per family, one per amplitude convention and size.
    # Both finders must return the same roots: equal kinds, locations
    # within 1e-9, nothing missing or extra.
    window = ((0.0, 12.0), (0.0, 12.0))
    for i, (M, gaussian) in enumerate(((256, True), (1024, False))):
        field = sample_field(model, M=M, seed=(7, i), gaussian_amplitudes=gaussian)
        ref = _reference_roots(field, window)
        new = find_critical_points(field, window)
        assert len(new) == len(ref) > 0
        for x, y, kind in ref:
            dist, j = min((math.hypot(x - p.location[0], y - p.location[1]), j)
                          for j, p in enumerate(new))
            assert dist < 1e-9, (i, x, y, dist)
            assert new[j].kind is kind
        # the polishing step leaves every residual at rounding level
        assert max(p.gradient_residual for p in new) < 1e-12


def _has_root(points, location, kind, tol):
    return any(math.hypot(p.location[0] - location[0], p.location[1] - location[1]) < tol
               and p.kind is kind for p in points)


def test_maximum_that_no_dense_seed_reached_is_found():
    # The dense-seed finder reached this maximum, 0.42 from a saddle, from a
    # single seed after a long wander, and lost it when its seed grid moved
    # by one ulp; a sign-change cell holds it.
    model = Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0))
    field = sample_field(model, M=1024, seed=(7, 3), gaussian_amplitudes=True)
    window = ((0.0, 12.0), (0.0, 12.0))
    points = find_critical_points(field, window)
    assert _has_root(points, (5.374958828, 5.289034675), CriticalKind.MAXIMUM, 1e-6)
    for x, y, kind in _reference_roots(field, window):
        assert _has_root(points, (x, y), kind, 1e-9), (x, y, kind)


def test_min_saddle_pair_inside_a_quarter_step_is_split():
    # A minimum and a saddle 0.14 grid steps apart: cells of h / 4 put both
    # in one cell here, whose single seed reaches neither; cells of h / 8
    # separate them.
    field = sample_field(BargmannFock(1.0), M=256, seed=(101, 6), gaussian_amplitudes=True)
    points = find_critical_points(field, ((0.0, 20.0), (0.0, 20.0)))
    saddle = (10.966997439344157, 18.08250926777428)
    minimum = (10.911906764528924, 18.079693266313793)
    assert math.hypot(saddle[0] - minimum[0], saddle[1] - minimum[1]) < default_grid_step(
        field.model) / 4
    assert _has_root(points, saddle, CriticalKind.SADDLE, 1e-9)
    assert _has_root(points, minimum, CriticalKind.MINIMUM, 1e-9)


def test_fold_partner_in_the_same_cell_is_found():
    # A saddle 0.018 from a minimum, both in one h / 8 cell, whose seed
    # reaches the minimum; the saddle is the minimum's predicted partner
    # across the fold between them.  At twice the default step: at the
    # default step a trajectory from a seed 2.8 away lands on the saddle
    # too, so there the test would pass without the partner.
    field = sample_field(BargmannFock(1.0), M=1024, seed=(202, 39))
    step = 2.0 * default_grid_step(field.model)
    points = find_critical_points(field, ((0.0, 12.0), (0.0, 12.0)), step)
    assert _has_root(points, (10.511260013850139, 7.656567436866597), CriticalKind.SADDLE, 1e-9)
    assert _has_root(points, (10.529311431892037, 7.653214788349994), CriticalKind.MINIMUM, 1e-9)


# Realizations of the iteration-cap and sign-test checks: (7, 0) and (7, 1)
# at both amplitude conventions, M = 256 and 1024, window 12 x 12.
_CAP_CASES = [(i, M, gaussian) for i, M in ((0, 256), (1, 1024)) for gaussian in (True, False)]
_CAP_WINDOW = ((0.0, 12.0), (0.0, 12.0))


def _cap_fields(model):
    return [sample_field(model, M=M, seed=(7, i), gaussian_amplitudes=gaussian)
            for i, M, gaussian in _CAP_CASES]


@pytest.mark.parametrize("coarsen", [1, 2], ids=["default-step", "double-step"])
@pytest.mark.parametrize("model", _FAMILIES, ids=lambda m: m.family)
def test_iteration_cap_loses_no_root(model, coarsen, monkeypatch):
    # The finder stops a trajectory after _MAX_ITERS = 12 Newton steps; the
    # roots are those of a run that allows 50: same count, same kinds,
    # locations within 1e-12.  Also at twice the default grid step, where
    # the seeds start farther from the roots.
    step = coarsen * default_grid_step(model)
    for field in _cap_fields(model):
        capped = find_critical_points(field, _CAP_WINDOW, step)
        with monkeypatch.context() as m:
            m.setattr(finder, "_MAX_ITERS", 50)
            full = find_critical_points(field, _CAP_WINDOW, step)
        assert len(capped) == len(full) > 0
        for p in full:
            assert _has_root(capped, p.location, p.kind, 1e-12), (field.seed, p.location)


def _axis_points(*axes):
    """The coordinates of each (start, step, count) axis of eval_grid."""
    return [start + step * np.arange(count) for start, step, count in axes]


def _complex_eval_grid(f, xs, ys, alphas):
    """eval_grid before its real form: Re[i^n (E1 * (w e^{i phi})) E2^T]."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    e1 = np.exp(1j * np.outer(xs, f.frequencies[:, 0]))
    e2t = np.exp(1j * np.outer(f.frequencies[:, 1], ys))
    rotor = np.exp(1j * f.phases)
    out = np.empty((xs.size, ys.size, len(alphas)))
    for col, (a1, a2) in enumerate(alphas):
        weights = f.amplitudes * f.frequencies[:, 0] ** a1 * f.frequencies[:, 1] ** a2
        order = a1 + a2
        z = (e1 * (weights * rotor)) @ e2t
        val = (z.real, -z.imag, -z.real, z.imag)[order % 4]
        out[:, :, col] = val + f.shift if order == 0 else val
    return out


@pytest.mark.parametrize("model", [RandomWave(1.0), ShiftedRandomWave(0.5, 1.0, 1.0)],
                         ids=lambda m: m.family)
@pytest.mark.parametrize("gaussian", [False, True])
def test_real_eval_grid_agrees_with_the_complex_form(model, gaussian):
    f = sample_field(model, M=512, seed=5, gaussian_amplitudes=gaussian)
    xaxis, yaxis = (-1.5, 0.3, 45), (-2.0, 0.27, 41)
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3), (4, 0), (1, 3),
              (2, 2)]
    new = eval_grid(f, xaxis, yaxis, alphas)
    old = _complex_eval_grid(f, *_axis_points(xaxis, yaxis), alphas)
    err = np.abs(new - old).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * np.abs(old).max(axis=(0, 1))), err


@pytest.mark.parametrize("model", _FAMILIES, ids=lambda m: m.family)
def test_real_eval_grid_keeps_the_candidate_cells(model, monkeypatch):
    # The sign test of find_critical_points picks the same cells from the
    # real and the complex form of its gradient grid.
    seen = []

    def recording(f, xaxis, yaxis, alphas):
        seen.append((xaxis, yaxis, eval_grid(f, xaxis, yaxis, alphas)))
        return seen[-1][2]

    monkeypatch.setattr(finder, "eval_grid", recording)
    for field in _cap_fields(model):
        find_critical_points(field, _CAP_WINDOW)
        xaxis, yaxis, grad = seen.pop()
        new = finder._candidate_cells(grad)
        old = finder._candidate_cells(
            _complex_eval_grid(field, *_axis_points(xaxis, yaxis), [(1, 0), (0, 1)]))
        assert len(new[0]) > 0
        np.testing.assert_array_equal(new, old)


def test_candidate_cells_are_those_whose_corners_span_zero():
    # The sign masks select the cells whose corner values of each gradient
    # component reach <= 0 and >= 0, the min/max form kept here as the
    # reference; the grid has exact zeros, and cells that are zero only.
    rng = np.random.default_rng(4)
    grad = rng.integers(-2, 3, size=(40, 33, 2)) * rng.uniform(0.5, 1.5, size=(40, 33, 2))
    grad[5:9, 7:12] = 0.0
    corners = (grad[:-1, :-1], grad[1:, :-1], grad[:-1, 1:], grad[1:, 1:])
    low, high = np.minimum.reduce(corners), np.maximum.reduce(corners)
    expected = np.nonzero(((low <= 0.0) & (high >= 0.0)).all(axis=-1))
    assert 0 < len(expected[0]) < 39 * 32
    np.testing.assert_array_equal(finder._candidate_cells(grad), expected)


def test_index_defect_is_zero_on_the_cosine_lattice():
    diag = {}
    find_critical_points(_cosine_lattice_field(), ((-0.5, math.pi + 0.5), (-0.5, math.pi + 0.5)),
                         grid_step=0.4, diagnostics=diag)
    assert diag["index_defect"] == 0


@pytest.mark.parametrize("model", _FAMILIES, ids=lambda m: m.family)
def test_index_defect_is_zero_on_complete_root_sets(model):
    for field in _cap_fields(model):
        diag = {}
        find_critical_points(field, _CAP_WINDOW, diagnostics=diag)
        assert diag["index_defect"] == 0, field.seed


def test_index_defect_counts_a_root_left_out():
    # Around the cosine lattice's four roots the gradient winds 0 times:
    # two extrema (+1 each) and two saddles (-1 each).  Leaving a saddle
    # out of the count gives -1, leaving an extremum out gives +1.
    f = _cosine_lattice_field()
    xaxis, yaxis = (-0.5, (math.pi + 1.0) / 40, 41), (-0.5, (math.pi + 1.0) / 36, 37)
    xs, ys = _axis_points(xaxis, yaxis)
    grad = eval_grid(f, xaxis, yaxis, [(1, 0), (0, 1)])
    roots = np.array([[0.0, 0.0], [0.0, math.pi], [math.pi, 0.0], [math.pi, math.pi]])
    vals = eval_many(f, roots, finder._DERIVS)
    assert finder._index_defect(f, xs, ys, grad, roots, vals, 1e-3) == 0
    assert finder._index_defect(f, xs, ys, grad, roots[[0, 2, 3]], vals[[0, 2, 3]], 1e-3) == -1
    assert finder._index_defect(f, xs, ys, grad, roots[1:], vals[1:], 1e-3) == 1


def test_index_defect_flags_a_missed_saddle(monkeypatch):
    # Without the fold-partner seeds, the saddle next to a minimum in one
    # cell (test_fold_partner_in_the_same_cell_is_found) is missed, and the
    # defect says so.  At twice the default step, the one at which that
    # saddle needs its partner seed.
    field = sample_field(BargmannFock(1.0), M=1024, seed=(202, 39))
    window = ((0.0, 12.0), (0.0, 12.0))
    step = 2.0 * default_grid_step(field.model)
    diag = {}
    find_critical_points(field, window, step, diagnostics=diag)
    assert diag["index_defect"] == 0
    monkeypatch.setattr(finder, "_fold_partners", lambda f, roots, hess, reach: roots[:0])
    points = find_critical_points(field, window, step, diagnostics=diag)
    assert not _has_root(points, (10.511260013850139, 7.656567436866597), CriticalKind.SADDLE,
                         1e-9)
    assert diag["index_defect"] == -1


def test_index_defect_refines_wide_ring_steps(monkeypatch):
    # On this window a few gradient angle steps along the sign-test ring
    # exceed pi / 2; summed unrefined they give a winding number off by
    # one, refined they match the root set.
    model = Interpolation(0.5, RandomWave(1.0), BargmannFock(1.0))
    field = sample_field(model, M=256, seed=(7, 34))
    diag = {}
    find_critical_points(field, _CAP_WINDOW, diagnostics=diag)
    assert diag["index_defect"] == 0
    monkeypatch.setattr(finder, "_RING_DEPTH", 0)
    find_critical_points(field, _CAP_WINDOW, diagnostics=diag)
    assert diag["index_defect"] != 0
