"""Critical-point finder: exact lattice oracle, classification, dedup."""

import math

import numpy as np
import pytest

from planarcrit.finder import (
    CriticalKind,
    DegenerateHessianError,
    SearchConfig,
    _dedup,
    classify,
    count_in_ball,
    default_grid_step,
    find_critical_points,
)
from planarcrit.models import RandomWave
from planarcrit.sampling import FieldRealization, sample_field


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
    points = find_critical_points(f, window, cfg=SearchConfig(grid_step=0.4))
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
    points = find_critical_points(f, ((-1.0, 4.0), (-1.0, 1.0)), cfg=SearchConfig(grid_step=0.4))
    locs = sorted(round(p.location[0], 6) for p in points)
    assert locs == [0.0, round(math.pi, 6)]
    for p in points:
        assert -1.0 <= p.location[0] <= 4.0 and -1.0 <= p.location[1] <= 1.0


def test_no_duplicate_roots():
    field = sample_field(RandomWave(1.0), M=256, seed=4)
    cfg = SearchConfig(grid_step=0.6)
    points = find_critical_points(field, ((0.0, 10.0), (0.0, 10.0)), cfg=cfg)
    locs = np.array([p.location for p in points])
    assert len(locs) >= 5  # lambda_c * area is about 9 here
    d2 = np.sum((locs[:, None, :] - locs[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert math.sqrt(d2.min()) > cfg.dedup_radius if cfg.dedup_radius else True


def test_dedup_keeps_every_point_of_a_shared_cell():
    # The first two points share hash cell (0, 0) but are 1.39 apart, so
    # both are kept; the third is 0.02 from the first and must merge into it.
    pts = np.array([[0.01, 0.01], [0.99, 0.99], [-0.01, 0.01]])
    merged, resid = _dedup(pts, np.array([0.0, 1.0, 2.0]), radius=1.0)
    np.testing.assert_array_equal(merged, pts[:2])
    np.testing.assert_array_equal(resid, [0.0, 1.0])


def test_type_counts_partition():
    field = sample_field(RandomWave(1.0), M=256, seed=12)
    points = find_critical_points(field, ((0.0, 12.0), (0.0, 12.0)))
    kinds = [p.kind for p in points]
    n_min = kinds.count(CriticalKind.MINIMUM)
    n_max = kinds.count(CriticalKind.MAXIMUM)
    n_sad = kinds.count(CriticalKind.SADDLE)
    assert n_min + n_max + n_sad == len(points)
    # counts by tag agree with the partition
    center = (6.0, 6.0)
    assert count_in_ball(points, center, 5.0, kind="c") == count_in_ball(
        points, center, 5.0, kind="e"
    ) + count_in_ball(points, center, 5.0, kind="s")
    assert count_in_ball(points, center, 5.0, kind="e") == count_in_ball(
        points, center, 5.0, kind="min"
    ) + count_in_ball(points, center, 5.0, kind="max")


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
    with pytest.raises(ValueError):
        find_critical_points(
            _cosine_lattice_field(), ((0.0, 1.0), (0.0, 1.0)), cfg=SearchConfig(grid_step=-1.0)
        )
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
