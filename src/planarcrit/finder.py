"""Locate and classify critical points of a sampled field.

Zeros of the gradient are found by Newton iteration on the exact
analytic gradient and Hessian of the plane-wave superposition, started
only where the gradient says a zero may be, then deduplicated spatially
and classified by Hessian eigenvalue signs.

Seeds.  The gradient is evaluated on a tensor grid of step h / 8 (h the
grid step, _SUBDIVISION = 8) covering the window plus one cell, where the
field separates into one small real matmul per derivative and the cos
and sin tables of each axis come from angle addition
(sampling.grid_tables).  The call builds those tables once, evaluates
the grid from them and passes them with every point it evaluates
afterwards.  The sign test reads only signs, so the grid is one
single-precision matmul per derivative (sampling.sign_grid), which
returns with it a rounding bound per derivative: each node lies within
the bound of the exact sum that eval_grid's double matmul rounds.  The
tables serve the points too: eval_many writes each point as its nearest
grid node times exp(i lam . d), so only the small offset angle lam . d
goes through cos and sin (a point past the grid anchors at an edge node).
A cell is a candidate unless, for either gradient component, all four
corners lie beyond the bound on the same side: all four > bound or all
four < -bound.  A node inside the bound counts as either sign, so every
cell whose exact corner values span 0 is a candidate, and the candidate
cells are a certified superset of those of exact arithmetic.  Newton
starts at the centres of the candidate cells.  The sign test cannot see
two roots inside one cell: there one seed reaches at most one of them.
Such a pair lies across a fold (det H = 0) and its roots are nearly
degenerate, so each root found predicts its partner from the quadratic
model of the gradient along the soft Hessian eigenvector, and a partner
predicted within two cells is run from as a seed too.  Whether the root set is complete is
not certified: it rests on the root-set corpus against the earlier
dense-seed finder (CHANGES.md, tools/finder_corpus.py) and on the
closed-form intensity.  Roots outside the window are dropped; the grid
reaches one cell past it, so a root on the boundary is kept.

Index defect.  The finder can report a Poincare-Hopf check of its own
root set.  The winding number of grad psi
around the outer ring of the sign-test grid equals #extrema - #saddles
inside it (an extremum has index +1, a saddle -1).  The winding number
sums the gradient's angle steps along the ring; a step wider than pi / 2
is refined with eval_many until every step is narrower (or _RING_DEPTH
refinements have run).  From it the finder subtracts #extrema - #saddles
over the rows of its root table (below) inside the ring, counted before
the window filter, and reports the difference as index_defect.  So the
defect certifies the very set the returned roots are taken from.  A
nonzero defect means a root was missed or a spurious one kept; a zero
defect cannot see a missed extremum-saddle pair.  The check reuses the
sign-test grid and the table's Hessians, which Newton evaluated; it
evaluates only the ring refinement, deduplicates nothing, and changes
no root.  The grid's values on the ring are within sign_grid's bound
(about 3e-5 sum_j |w_j| at M = 256) of the exact ones, so an angle there
is off by at most about bound / |grad psi| radians, far inside the
pi / 2 refinement rule wherever |grad psi| exceeds a few times the bound.
It runs only when diagnostics are asked for: `find --format json` asks,
and so does perfbench's layer trace, which passes a diagnostics dict to
every finder call; `estimate` and CSV `find` do not.  It costs about 5 %
of a finder call: 5.4 %, the median share of _index_defect over 15
rounds of 40 windows (RandomWave(1), M = 256, 20 x 20 window, one CPU).

Iteration cap.  A trajectory gets at most _MAX_ITERS = 12 Newton steps.
The loop is vectorized, so each iteration costs one eval_many call
however few trajectories are active, and one stalled trajectory keeps
the loop running to the cap.  Stalled trajectories sit near local
minima of |grad psi| that are not roots.  Over the 40 realizations of
the benchmark's simulate sweep (seed 101) with the cap raised to 50,
2 of 1545 converging trajectories needed more than 12 steps, and both
end outside the window, so the sweep's 1479 roots are those of the cap
of 12; the 10 trajectories still unconverged after 50 steps end at
|grad psi| between 2e-4 and 1.1.  On the root-set corpus
(tools/finder_corpus.py) the roots are those of the earlier cap of 50.
Both checks ran at the default grid step.  A coarser step starts
Newton farther from the roots; test_iteration_cap_loses_no_root also
compares the caps at twice the default step.

The one tuning knob is the grid step h (`find --grid-step`, an eighth of
the oscillation length by default).  A step above the default can lose
roots: at twice the default step the root-set corpus loses 5 of its
32 801 roots, two extremum-saddle pairs 0.05 and 0.01 apart, which the
index defect cannot see, and one saddle, which it flags (-1).  Fixed
are the subdivision _SUBDIVISION, the Newton tolerance _NEWTON_TOL, the
iteration cap _MAX_ITERS, the dedup radius h / 100 and the degeneracy
floor 1e-12 * 12 mu0.  Each is a size in the model's units: the grid
step and the dedup radius in the oscillation length 2 pi / k_eff, the
tolerance in the gradient's unit sqrt(R_2) = sqrt(-4 eta0) and the floor
in the Hessian's, 12 mu0.  So a field rescaled by a power of two,
RandomWave(2^m) against RandomWave(1), gives the same roots scaled, bit
for bit.  The two underflow guards stay absolute: the floor's scale is
max(12 mu0, 1e-300) and a Newton step needs |det H| > 1e-300; they bind
only below k of about 1e-75.

The Newton steps are plain, with no line search, and every point the
search visits is evaluated once: the seeds together, then the points
each step lands on, by one eval_many call per step that gives the
gradient and the Hessian the next step uses.  Trajectories merge by one
rule, before a step's landing points are evaluated: a landing point
whose cell of side dedup_radius is already claimed would end on that
cell's root, so its trajectory is counted as merged and the point is
not evaluated.  A cell is claimed by a converged end point, or by a
landing point of the same step whose trajectory had the lower residual
before the step (ties go to the lower seed index).  So no eval_many call
holds two points of one cell, and a trajectory that lands on a converged
root bit for bit does not evaluate it again.  With one trajectory per
root the kept residual is no longer the best of many duplicates, so
each root gets one final Newton step, kept where it lowers the
residual.  The converged end points are deduplicated once, into the
root table: each kept point with the _DERIVS values Newton holds
there.  Converged fold partners are merged into it with one more
deduplication, and nothing after that deduplicates again.  The table
serves everything after Newton: the fold-partner prediction reads its
Hessians and evaluates only the third derivatives, the window filter
selects its rows, the final step starts from them, and the index defect
counts their Hessian signs.  One call at the points the final step
moves to gives both their residual and the Hessian that classifies
them; a root the step leaves in place (a step below the last bit of its
coordinates) or does not improve keeps Newton's values.  So no point is
evaluated twice, and every evaluation after the grid, Newton's, the
fold partners', the final step's and the index defect's ring
refinement, reads the grid's axis tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    CovarianceModel,
    _require_finite_positive,
    effective_wavenumber,
    sigma_derivatives,
)
# Not called here: perfbench/tracing.py wraps finder.eval_gradient (test_layout pins it).
from .sampling import (  # noqa: F401
    FieldRealization, GridTables, eval_gradient, eval_many, grid_tables, sign_grid)

__all__ = [
    "CriticalKind",
    "CriticalPoint",
    "DegenerateHessianError",
    "default_grid_step",
    "find_critical_points",
    "classify",
]

_HESSIAN = [(2, 0), (1, 1), (0, 2)]
_DERIVS = [(1, 0), (0, 1), *_HESSIAN]
_THIRD = [(3, 0), (2, 1), (1, 2), (0, 3)]

# A root is converged once |grad psi| / sqrt(R_2) <= _NEWTON_TOL, a bound
# relative to the gradient's unit; a trajectory gets at most _MAX_ITERS
# Newton steps (module docstring: why 12).
_NEWTON_TOL = 1e-10
_MAX_ITERS = 12
# The sign-test grid has step grid_step / _SUBDIVISION.
_SUBDIVISION = 8
# The index defect's ring: a segment whose gradient angle step exceeds
# pi / 2 is split into _RING_SPLIT, at most _RING_DEPTH times over.
_RING_SPLIT = 4
_RING_DEPTH = 8


class DegenerateHessianError(ArithmeticError):
    """Hessian determinant within the degeneracy threshold; no classification."""


class CriticalKind(str, enum.Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    SADDLE = "saddle"

    def __str__(self) -> str:  # so CSV output reads naturally
        return self.value


@dataclass(frozen=True)
class CriticalPoint:
    """A located, classified zero of the gradient."""

    location: tuple[float, float]
    kind: CriticalKind
    hessian_det: float
    hessian_eigenvalues: tuple[float, float]
    gradient_residual: float


def default_grid_step(model: CovarianceModel) -> float:
    """An eighth of the model's oscillation length: 2 pi / k_eff / 8.

    k_eff = sqrt(-4 eta0 / sigma0) (models.effective_wavenumber) is k for
    wave-type models, so the sign-test cells are 64 per oscillation.
    """
    return 2.0 * math.pi / effective_wavenumber(model) / 8.0


def classify(hessian, threshold: float = 0.0) -> CriticalKind:
    """Kind of a critical point from its 2x2 symmetric Hessian.

    Raises DegenerateHessianError when |det H| <= threshold: degeneracy
    is a measure-zero event and is always surfaced, never guessed.
    """
    (h11, h12), (h21, h22) = np.asarray(hessian, dtype=float).tolist()
    return _kind(h11, h12, h21, h22, threshold)


def _kind(h11: float, h12: float, h21: float, h22: float, threshold: float) -> CriticalKind:
    """classify's rule on the Hessian entries as Python floats."""
    det = h11 * h22 - h12 * h21
    if abs(det) <= threshold:
        raise DegenerateHessianError(f"|det H| = {abs(det)} <= threshold {threshold}")
    if det < 0.0:
        return CriticalKind.SADDLE
    return CriticalKind.MINIMUM if h11 > 0.0 else CriticalKind.MAXIMUM


def find_critical_points(
    f: FieldRealization,
    window,
    grid_step: float | None = None,
    diagnostics: dict | None = None,
) -> list[CriticalPoint]:
    """All critical points of the field inside a rectangular window.

    Parameters
    ----------
    f : FieldRealization
    window : ((xmin, xmax), (ymin, ymax))
    grid_step : float, optional
        Grid step h; the sign test runs on cells of h / _SUBDIVISION.
        Defaults to default_grid_step(f.model), and must be given when
        the field has no model.  A step above the default can lose
        roots (module docstring).
    diagnostics : dict, optional
        If given, filled with counters: nseeds (candidate cells plus
        predicted fold partners), which is split into
        nconverged, nmerged (a step landed in a claimed dedup cell; see
        the module docstring) and
        ndropped = nrunaway (left the search bound or met a singular
        Hessian) + nstalled (unconverged after _MAX_ITERS); newton_iters
        (Newton steps summed over trajectories); nreturned; index_defect
        (winding number of grad psi around the sign-test grid minus
        #extrema - #saddles found inside it; see the module docstring).

    Returns
    -------
    list of CriticalPoint
        Deduplicated, each with |grad psi| <= 1e-10 sqrt(R_2) (_NEWTON_TOL
        in the gradient's unit; 1e-10 for a field without a model), inside
        the window.  Non-converged Newton trajectories are dropped (counted
        in diagnostics), not errors.
    """
    (xmin, xmax), (ymin, ymax) = window
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"empty window {window}")
    if grid_step is None:
        if f.model is None:
            raise ValueError("grid_step must be given when the field has no model")
        grid_step = default_grid_step(f.model)
    _require_finite_positive("grid_step", grid_step)
    h = grid_step
    dedup_radius = h / 100.0
    scale = 1.0 if f.model is None else max(12.0 * sigma_derivatives(f.model).mu0, 1e-300)
    det_floor = 1e-12 * scale

    # Candidate cells of the h / _SUBDIVISION grid: each gradient component
    # changes sign over the four corners or vanishes at one, that is, its
    # corner values span 0.  Newton starts at their centres.
    cell = h / _SUBDIVISION
    nx = math.ceil((xmax - xmin) / cell) + 3
    ny = math.ceil((ymax - ymin) / cell) + 3
    xs = xmin - cell + cell * np.arange(nx)
    ys = ymin - cell + cell * np.arange(ny)
    axes = (xmin - cell, cell, nx), (ymin - cell, cell, ny)
    # One set of axis tables serves the grid and every point evaluated below.
    tables = grid_tables(f, *axes)
    grid, rounding = sign_grid(tables, _DERIVS[:2])
    ci, cj = _candidate_cells(grid, rounding)
    pts = np.column_stack([xs[ci] + 0.5 * cell, ys[cj] + 0.5 * cell])

    margin = 4.0 * h
    bound = np.array([xmin - margin, ymin - margin, xmax + margin, ymax + margin])
    pts, gnorm, vals, counts = _newton(f, pts, bound, dedup_radius, tables)
    table = _root_table(pts, gnorm, vals, dedup_radius)
    # Two roots in one cell share a seed; also run from the partner that
    # each root predicts across a nearby fold, and merge the partners that
    # converge into the table.
    partners = _fold_partners(f, table[0], table[2][:, 2:], 2.0 * cell, tables)
    *ends, more_counts = _newton(f, partners, bound, dedup_radius, tables)
    done = ends[1] <= _NEWTON_TOL
    if done.any():
        table = _root_table(*map(np.concatenate, zip(table, ends)), dedup_radius)
    nseeds = len(gnorm) + len(partners)
    nconverged = int((gnorm <= _NEWTON_TOL).sum() + done.sum())
    nmerged, nrunaway, nstalled, newton_iters = (counts + more_counts).tolist()
    pts, _, vals = table

    inside = _inside(pts, window)
    merged_pts, merged_resid, hess = _polish(f, pts[inside], vals[inside], tables)

    points = []
    # Python floats: numpy scalars cost more per operation and round alike.
    for (x, y), (h11, h12, h22), res in zip(merged_pts.tolist(), hess.tolist(),
                                            merged_resid.tolist()):
        mean = 0.5 * (h11 + h22)
        spread = math.hypot(0.5 * (h11 - h22), h12)
        points.append(
            CriticalPoint(
                location=(x, y),
                kind=_kind(h11, h12, h12, h22, det_floor),
                hessian_det=h11 * h22 - h12**2,
                hessian_eigenvalues=(mean - spread, mean + spread),
                gradient_residual=res,
            )
        )
    if diagnostics is not None:
        diagnostics.update(
            nseeds=nseeds,
            nconverged=nconverged,
            nmerged=nmerged,
            nrunaway=nrunaway,
            nstalled=nstalled,
            ndropped=nrunaway + nstalled,
            newton_iters=newton_iters,
            nreturned=len(points),
            index_defect=_index_defect(f, xs, ys, grid, pts, vals, tables),
        )
    return points


def _newton(f: FieldRealization, pts: np.ndarray, bound: np.ndarray, radius: float,
            tables: GridTables):
    """Newton on the gradient from each of `pts`, vectorized over the active set.

    Every point is evaluated once: the seeds together, then each step's
    landing points inside `bound`, whose gradient and Hessian the next
    step uses.  A landing point whose dedup cell (side `radius`) is
    claimed, by a converged end point or by a landing point of the same
    step whose trajectory had a lower residual before the step (ties go
    to the lower index), would end on that cell's root; its trajectory is
    merged there and the point is not evaluated (_claimed).
    Gradient norms are measured in the unit sqrt(R_2) = sqrt(-4 eta0) of
    f.model (1.0 for a field without a model), so _NEWTON_TOL bounds them
    relative to the field's scale.
    Returns the end points, those norms (inf for a runaway), their
    _DERIVS rows (a runaway's or a merged trajectory's are those of its
    last evaluated point) and the counters [nmerged, nrunaway, nstalled,
    newton_iters].
    """
    pts = pts.copy()
    if len(pts) == 0:  # no candidate cell or no fold partner: nothing to evaluate
        return pts, np.zeros(0), np.zeros((0, len(_DERIVS))), np.zeros(4, dtype=int)
    unit = 1.0 if f.model is None else math.sqrt(-4.0 * sigma_derivatives(f.model).eta0)
    vals = eval_many(f, pts, _DERIVS, tables)
    gnorm = _grad_norm(vals) / unit
    active = np.arange(len(pts))
    nmerged = nrunaway = newton_iters = 0
    done: set = set()  # the dedup cells of the converged end points
    for _ in range(_MAX_ITERS):
        done.update(_cells(pts[active[gnorm[active] <= _NEWTON_TOL]], radius))
        active = active[gnorm[active] > _NEWTON_TOL]
        if active.size == 0:
            break
        newton_iters += active.size
        step, ok = _newton_step(*vals[active].T)
        trial = pts[active] - step
        pts[active] = trial
        # Singular-Hessian seeds and runaways are dropped on the spot.
        out = ~ok | (trial < bound[:2]).any(axis=1) | (trial > bound[2:]).any(axis=1)
        gnorm[active[out]] = np.inf
        nrunaway += int(out.sum())
        active, trial = active[~out], trial[~out]
        # A landing point in a claimed cell would end on that cell's root.
        merged = _claimed(trial, gnorm[active], done, radius)
        nmerged += int(merged.sum())
        active, trial = active[~merged], trial[~merged]
        if active.size == 0:  # every trajectory left or merged: nothing to evaluate
            break
        vals[active] = eval_many(f, trial, _DERIVS, tables)
        gnorm[active] = _grad_norm(vals[active]) / unit
    nstalled = int((gnorm[active] > _NEWTON_TOL).sum())
    return pts, gnorm, vals, np.array([nmerged, nrunaway, nstalled, newton_iters])


def _candidate_cells(grad: np.ndarray, bound):
    """Indices (i, j) of the grid cells whose corner values of each gradient
    component may span 0; cell (i, j) has corners [i, i + 1] x [j, j + 1].

    `bound` (a float, or an array of one per component) is how far each
    value may lie from the exact one.  A cell is ruled out when, for
    either component, all four corners are > bound or all four are
    < -bound; a corner inside the bound counts as either sign.  With
    bound 0 these are the cells whose corners span 0 exactly.
    """
    ruled_out = np.zeros((grad.shape[0] - 1, grad.shape[1] - 1), dtype=bool)
    for side in (grad > bound, grad < -bound):
        side = side[:-1] & side[1:]
        side = side[:, :-1] & side[:, 1:]
        ruled_out |= side[..., 0] | side[..., 1]
    return np.divmod(np.flatnonzero(~ruled_out), ruled_out.shape[1])


def _index_defect(f: FieldRealization, xs, ys, grad, pts, vals,
                  tables: GridTables) -> int:
    """Winding number of grad psi around the grid xs x ys minus the index sum inside.

    `grad` is the gradient on the grid (eval_grid order); `pts` and `vals`
    are the root table (_root_table), whose rows inside the grid are
    counted as they stand, +1 per extremum and -1 per saddle by the sign
    of det H read from `vals`.
    """
    inside = _inside(pts, ((xs[0], xs[-1]), (ys[0], ys[-1])))
    h11, h12, h22 = vals[inside, 2:].T
    index = int(np.sign(h11 * h22 - h12**2).sum())
    return _winding_number(f, xs, ys, grad, tables) - index


def _inside(pts: np.ndarray, box) -> np.ndarray:
    """Mask of the points inside the closed box ((xmin, xmax), (ymin, ymax))."""
    low, high = np.transpose(box)
    return ((pts >= low) & (pts <= high)).all(axis=1)


def _root_table(pts: np.ndarray, gnorm: np.ndarray, vals: np.ndarray, radius: float):
    """The root table: the converged points among `pts`, deduplicated at `radius`.

    `gnorm` and `vals` are the points' gradient norms and _DERIVS rows as
    _newton returns them.  Returns the kept points, norms and rows, in the
    order of `pts`.  The finder builds the table once from Newton's end
    points, and once more over the table and the fold-partner end points
    when some of those converge; the window filter, _polish and the index
    defect then read it as it stands.
    """
    done = np.flatnonzero(gnorm <= _NEWTON_TOL)
    keep = done[_dedup(pts[done], gnorm[done], radius)]
    return pts[keep], gnorm[keep], vals[keep]


def _winding_number(f: FieldRealization, xs, ys, grad,
                    tables: GridTables) -> int:
    """Turns of grad psi along the boundary of the grid xs x ys, counterclockwise.

    Starts from the grid's own boundary values (sign_grid's, within its
    rounding bound of the double ones); each segment whose angle
    step exceeds pi / 2 gets _RING_SPLIT - 1 points more from eval_many,
    until no step does or _RING_DEPTH rounds have run.
    """
    nx, ny = len(xs), len(ys)
    i = np.concatenate([np.arange(nx), np.full(ny - 1, nx - 1), np.arange(nx - 2, -1, -1),
                        np.zeros(ny - 1, dtype=int)])
    j = np.concatenate([np.zeros(nx, dtype=int), np.arange(1, ny), np.full(nx - 1, ny - 1),
                        np.arange(ny - 2, -1, -1)])
    ring = np.column_stack([xs[i], ys[j]])  # closed: the last point is the first
    g = grad[i, j]
    frac = np.arange(1, _RING_SPLIT)[:, None] / _RING_SPLIT
    for depth in range(_RING_DEPTH + 1):
        turn = np.diff(np.arctan2(g[:, 1], g[:, 0]))
        turn = (turn + math.pi) % (2.0 * math.pi) - math.pi
        wide = np.flatnonzero(np.abs(turn) > 0.5 * math.pi)
        if wide.size == 0 or depth == _RING_DEPTH:
            break
        a, b = ring[wide], ring[wide + 1]
        new = (a[:, None, :] + frac * (b - a)[:, None, :]).reshape(-1, 2)
        at = np.repeat(wide + 1, _RING_SPLIT - 1)
        ring = np.insert(ring, at, new, axis=0)
        g = np.insert(g, at, eval_many(f, new, _DERIVS[:2], tables), axis=0)
    return round(turn.sum() / (2.0 * math.pi))


def _fold_partners(f: FieldRealization, roots: np.ndarray, hess: np.ndarray,
                   reach: float, tables: GridTables) -> np.ndarray:
    """The predicted partner of each root that lies within `reach` across a fold.

    Along the Hessian eigenvector v of the eigenvalue lam nearer zero, the
    gradient component is lam t + c t^2 / 2, with c the third derivative
    of psi along v; so a second root sits near t = -2 lam / c.  `hess`
    holds the roots' Hessian rows (_HESSIAN order), which Newton has
    already evaluated; only the third derivatives are evaluated here.
    """
    if len(roots) == 0:
        return roots
    h11, h12, h22 = hess.T
    t30, t21, t12, t03 = eval_many(f, roots, _THIRD, tables).T
    mean = 0.5 * (h11 + h22)
    spread = np.hypot(0.5 * (h11 - h22), h12)
    theta = 0.5 * np.arctan2(2.0 * h12, h11 - h22)  # eigenvector of mean + spread
    upper = mean < 0.0  # mean + spread is the eigenvalue nearer zero
    lam = np.where(upper, mean + spread, mean - spread)
    v1 = np.where(upper, np.cos(theta), -np.sin(theta))
    v2 = np.where(upper, np.sin(theta), np.cos(theta))
    c = t30 * v1**3 + 3.0 * t21 * v1**2 * v2 + 3.0 * t12 * v1 * v2**2 + t03 * v2**3
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -2.0 * lam / c
    near = np.abs(t) <= reach
    return roots[near] + t[near, None] * np.column_stack([v1[near], v2[near]])


def _newton_step(g1, g2, h11, h12, h22):
    """Newton step H^-1 g per point, zero where the Hessian is singular (ok False)."""
    det = h11 * h22 - h12**2
    ok = np.abs(det) > 1e-300
    step = np.zeros((len(g1), 2))
    step[ok, 0] = (h22[ok] * g1[ok] - h12[ok] * g2[ok]) / det[ok]
    step[ok, 1] = (-h12[ok] * g1[ok] + h11[ok] * g2[ok]) / det[ok]
    return step, ok


def _polish(f: FieldRealization, pts: np.ndarray, vals: np.ndarray,
            tables: GridTables):
    """One more Newton step from each root, kept where it lowers the residual.

    With one trajectory per root the kept residual is no longer the best of
    many near-duplicates; it can sit just under _NEWTON_TOL sqrt(R_2),
    which near a nearly singular Hessian means a location off by
    resid / |eigenvalue|.  The extra step brings it back to rounding level.

    The step starts from the roots' _DERIVS rows `vals`, which Newton has
    already evaluated, and one eval_many call at the trial points gives
    both their residual and their Hessian.  A step below the last bit of
    the coordinates lands on the root itself, which is not evaluated again.
    Returns the kept points, their residuals and their Hessian rows
    (_HESSIAN order) for classification.
    """
    pts, vals = pts.copy(), vals.copy()
    step, _ = _newton_step(*vals.T)
    trial = pts - step
    moved = np.flatnonzero((trial != pts).any(axis=1))
    if moved.size:
        tvals = eval_many(f, trial[moved], _DERIVS, tables)
        better = _grad_norm(tvals) < _grad_norm(vals[moved])
        pts[moved[better]] = trial[moved[better]]
        vals[moved[better]] = tvals[better]
    return pts, _grad_norm(vals), vals[:, 2:]


def _grad_norm(vals: np.ndarray) -> np.ndarray:
    """|grad psi| of each _DERIVS row: np.linalg.norm's own arithmetic on two columns."""
    return np.sqrt(vals[:, 0] * vals[:, 0] + vals[:, 1] * vals[:, 1])


def _cells(pts: np.ndarray, radius: float) -> list:
    """The cells of side `radius` that hold `pts`, as (i, j) tuples."""
    return list(map(tuple, np.floor(pts / radius).tolist()))


def _claimed(pts: np.ndarray, resid: np.ndarray, done: set, radius: float) -> np.ndarray:
    """Mask of the `pts` whose cell of side `radius` is already claimed.

    A cell is claimed by being one of `done`, or by an earlier point in
    the order of `resid` (ties go to the lower index): each cell's first
    point claims it and is not masked.  A set lookup per point; numpy's
    set routines cost more on the few dozen points of a Newton step.
    """
    cells, claimed = _cells(pts, radius), set(done)
    merged = np.zeros(len(pts), dtype=bool)
    for i in np.argsort(resid, kind="stable").tolist():
        merged[i] = cells[i] in claimed
        claimed.add(cells[i])
    return merged


def _dedup(pts: np.ndarray, resid: np.ndarray, radius: float) -> np.ndarray:
    """Merge points within `radius` via spatial hashing, keeping best residual.

    Returns the sorted indices of the kept points.
    """
    order = np.argsort(resid)
    cells: dict[tuple[float, float], list[int]] = {}
    keep: list[int] = []
    xy, at = pts.tolist(), _cells(pts, radius)
    for idx in order:
        x, y = xy[idx]
        cx, cy = at[idx]
        near = (
            xy[j]
            for nx in (cx - 1, cx, cx + 1)
            for ny in (cy - 1, cy, cy + 1)
            for j in cells.get((nx, ny), ())
        )
        if not any(math.hypot(x - u, y - v) < radius for u, v in near):
            cells.setdefault((cx, cy), []).append(idx)
            keep.append(idx)
    return np.array(sorted(keep), dtype=int)

