"""Trilateration: position from absolute ranges to three known anchors.

The algebraic routes mirror the classic elimination: subtracting range
equations pairwise removes the quadratic terms, and the surviving quadratic
contributes two candidate roots. Measured ranges are rarely perfectly
consistent, so every candidate is scored against all range equations and the
best one wins; when even the best residual norm exceeds the inconsistency
tolerance the result is flagged rather than silently trusted.

The closed forms are one array program over rows of ranges against one
anchor triangle, which calls no BLAS: _batch, the CLI's driver for single
runs and sweeps, of which trilaterate is the one-row case. It decides each
row once: its result or the error its solve alone would raise.

The pipeline's team step, team_relative_position, uses bearings, not
ranges: a closed-form bearing resection of the team's planar position
against three beacons, from the directions of its emitter fixes seen from
the drones' centroid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DimensionError,
    GeometryDegenerate,
    Inconsistent,
    ValidationError,
)
from .geometry import Point
from .solver import (INCONSISTENCY_TOL, SolveResult, _centroid, _cross, _finite_real, _norms,
                     _outcome, _rank, _rowdot, _triangle, _unit_rows, gauss_newton_raw)

__all__ = [
    "TrilaterationProblem",
    "trilateration_residuals",
    "trilateration_jacobian",
    "trilateration_objective",
    "trilaterate",
    "trilaterate_lsq",
    "team_relative_position",
]

_RADICAND_SLACK = 1e-9  # relative: radicand >= -slack * d^2 clamps to 0
_PARALLEL_TOL = 1e-12   # relative: bearing lines this near parallel fix no point


def _bad_distances() -> ValidationError:
    return ValidationError("distances must be finite and >= 0", field="distances")


@dataclass(frozen=True)
class TrilaterationProblem:
    """Anchor positions plus measured ranges to each, in a common dimension."""

    emitters: tuple[Point, ...]
    distances: tuple[float, ...]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "distances", tuple(self.distances))
        if len(self.emitters) < 3:
            raise ValidationError("at least 3 emitters required", field="emitters")
        if len(self.distances) != len(self.emitters):
            raise ValidationError("one distance per emitter required", field="distances")
        if self.dimension not in (2, 3):
            raise DimensionError(f"dimension must be 2 or 3, got {self.dimension}")
        if any(p.dim != self.dimension for p in self.emitters):
            raise DimensionError("emitter dimensions disagree with the problem dimension")
        if not all(_finite_real(d) and d >= 0.0 for d in self.distances):
            raise _bad_distances()
        object.__setattr__(self, "distances", tuple(map(float, self.distances)))

    @property
    def anchor_array(self) -> np.ndarray:
        return np.array([p.coords for p in self.emitters])

    @property
    def distance_array(self) -> np.ndarray:
        return np.array(self.distances)


def _residuals(p: np.ndarray, anchors: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """trilateration_residuals at points p (..., D) against anchors (E, D),
    each against its row of ranges: (..., E)."""
    return _norms(p[..., None, :] - anchors) - ranges


def trilateration_residuals(problem: TrilaterationProblem, q: Point) -> np.ndarray:
    """Residual per anchor: |q - emitter_i| - distance_i (meters)."""
    if q.dim != problem.dimension:
        raise DimensionError(f"point is {q.dim}D, problem is {problem.dimension}D")
    return _residuals(np.array(q.coords), problem.anchor_array, problem.distance_array)


def trilateration_jacobian(problem: TrilaterationProblem, q: Point) -> np.ndarray:
    """Analytic Jacobian: row i is the unit vector from emitter i toward q.

    Points within 1e-9 m of an anchor are nudged along +x first (the unit
    vector is undefined exactly at an anchor).
    """
    if q.dim != problem.dimension:
        raise DimensionError(f"point is {q.dim}D, problem is {problem.dimension}D")
    return _unit_rows(np.array(q.coords), problem.anchor_array)


def trilateration_objective(problem: TrilaterationProblem) -> _kernels.GridObjective:
    """Vectorized sum-of-squared-residuals objective for grid_search oracles.

    Callable on (N, dim) points; its evaluate and bound methods, which take
    coordinates and box edges as per-axis columns, let grid_search evaluate
    only the lattice leaves that can hold the minimum (see
    _kernels.GridObjective).
    """
    return _kernels.GridObjective(problem.anchor_array, problem.distance_array, tdoa=False)


def _batch(anchors, ranges) -> tuple[list, Callable[[int], SolveResult]]:
    """Closed-form trilateration of N range triples against one anchor
    triangle, each row as trilaterate solves it alone.

    anchors is (3, D) with D = 2 or 3, ranges is (N, 3). The triangle is
    refused by solver._triangle before any row arithmetic; the rows then run
    relative to the first anchor for conditioning, what depends on the
    anchors alone is computed once, and dot products go through _rowdot.

    Returns (closed, fix). closed[k] is (coords, residual_norm) of row k's
    estimate, or None when row k's solve raises. fix(k) returns row k's
    SolveResult, its candidates ranked by solver._rank with the estimate
    first (in 3D the residual-tied ones by greater z, in 2D all by norm;
    then x, y), flagged mirror_ambiguity (two 3D roots) and inconsistent
    (even the best norm exceeds INCONSISTENCY_TOL); or raises that row's
    error, the first that applies: the TrilaterationProblem error of a range
    that is not finite or is negative, GeometryDegenerate for anchors that
    solver._triangle refuses, and Inconsistent when the radicand overflows
    float64 (a range above about 1.3e154 m does), when it falls below the
    slack (no real intersection), or when a residual norm overflows float64.
    """
    anchors = np.asarray(anchors, dtype=float)
    ranges = np.asarray(ranges, dtype=float)
    dim = anchors.shape[1]
    invalid = ~(np.isfinite(ranges) & (ranges >= 0.0)).all(axis=1)
    errors, degenerate = [None] * len(ranges), None
    try:
        _triangle(anchors, "emitters")
    except GeometryDegenerate as exc:
        degenerate, refused, closed = str(exc), np.ones_like(invalid), [None] * len(ranges)
    else:
        e2, e3 = anchors[1:] - anchors[0]
        with np.errstate(invalid="ignore", over="ignore"):  # a huge range overflows: a refused row
            sq = ranges ** 2
            if dim == 2:
                # Subtracting the first two circle equations leaves a line. Its point
                # closest to the third anchor p0 is offset from the circle crossings
                # purely along the line direction u.
                n = 2.0 * e2
                nn = _rowdot(n, n)
                h = sq[:, 0] - sq[:, 1] + _rowdot(e2, e2)
                p0 = e3 + ((h - _rowdot(n, e3)) / nn)[:, None] * n
                u = np.array([-n[1], n[0]]) / np.sqrt(nn)
                ref = sq[:, 2]
                radicand = ref - _rowdot(p0 - e3, p0 - e3)
            else:
                # Radical planes of spheres (1,2) and (1,3) meet in a line normal to
                # the anchor plane; p0 is the minimum-norm solution of the 2x3 system,
                # p0 = A^T (A A^T)^{-1} b, kept in the anchor plane through anchor 1.
                A = np.array([2.0 * e2, 2.0 * e3])
                cross = _cross(e2, e3)
                AAt = _rowdot(A[:, None], A)
                det = AAt[0, 0] * AAt[1, 1] - AAt[0, 1] * AAt[1, 0]
                u = cross / np.sqrt(_rowdot(cross, cross))
                b0 = sq[:, 0] - sq[:, 1] + _rowdot(e2, e2)
                b1 = sq[:, 0] - sq[:, 2] + _rowdot(e3, e3)
                w = np.stack([(AAt[1, 1] * b0 - AAt[0, 1] * b1) / det,
                              (AAt[0, 0] * b1 - AAt[1, 0] * b0) / det], axis=1)
                p0 = w[:, :1] * A[0] + w[:, 1:] * A[1]
                p0 = p0 - _rowdot(p0, u)[:, None] * u
                ref = sq[:, 0]
                radicand = ref - _rowdot(p0, p0)
            # A radicand within the slack of 0 clamps to one (tangent) root.
            miss = radicand < -_RADICAND_SLACK * ref
            two = radicand > _RADICAND_SLACK * ref
            tu = np.where(two, np.sqrt(np.where(two, radicand, 1.0)), 0.0)[:, None] * u
            roots = np.stack([p0 + tu, p0 - tu], axis=1) + anchors[0]
            r = _residuals(roots, anchors, ranges[:, None, :])
            norms = np.sqrt(_rowdot(r, r))
        overflow = ~np.isfinite(radicand)
        refused = invalid | overflow | miss | ~np.isfinite(norms).all(axis=1)
        # A row with one root holds it twice; equal keys keep its order.
        roots, norms = _rank(roots, norms, -roots[..., 2] if dim == 3 else norms)
        closed = list(zip(zip(*roots[:, 0].T.tolist()), norms[:, 0].tolist()))
    what = ("third circle misses the radical line" if dim == 2
            else "spheres admit no real intersection")
    for k in np.flatnonzero(refused).tolist():
        closed[k] = None
        errors[k] = (_bad_distances() if invalid[k] else
                     GeometryDegenerate(degenerate) if degenerate else
                     Inconsistent("the radicand overflows float64") if overflow[k] else
                     Inconsistent(f"{what} (radicand {float(radicand[k]):.3e})") if miss[k] else
                     Inconsistent("the residual norm overflows float64"))

    def fix(k: int) -> SolveResult:
        if errors[k] is not None:
            raise errors[k]
        cands = tuple(zip([Point.of(*p) for p in roots[k, :1 + two[k]].tolist()],
                          norms[k].tolist()))
        flags = set()
        if two[k] and dim == 3:
            flags.add("mirror_ambiguity")
        if cands[0][1] > INCONSISTENCY_TOL:
            flags.add("inconsistent")
        return SolveResult(estimate=cands[0][0], candidates=cands, residual_norm=cands[0][1],
                           iterations=0, converged=True, flags=frozenset(flags))

    return closed, fix


def trilaterate(problem: TrilaterationProblem) -> SolveResult:
    """Closed-form trilateration from exactly three anchors, 2D or 3D as the
    problem is, with candidate verification.

    In 2D the first two circle equations leave a line, which the third circle
    crosses; in 3D two radical planes meet in a line normal to the anchor
    plane, which the first sphere crosses. Both roots come back as
    candidates, and the estimate has the lower residual norm against all
    three ranges. Two distinct 3D roots are a mirror pair (equal norms,
    mirror_ambiguity flag), and the estimate is the one with the greater z,
    matching the aerial-receivers-above-ground convention. The inconsistent
    flag is set when even the best norm exceeds INCONSISTENCY_TOL. A
    radicand below -1e-9 * d^2 of that circle or sphere's range d raises
    Inconsistent; within that slack it clamps to 0. A radicand or residual
    norm that overflows float64 raises Inconsistent too, and anchors that
    solver._triangle refuses raise GeometryDegenerate.
    """
    if len(problem.emitters) != 3:
        raise ValueError(f"trilaterate needs exactly 3 emitters, got {len(problem.emitters)}")
    return _batch(problem.anchor_array, problem.distance_array[None, :])[1](0)


def trilaterate_lsq(problem: TrilaterationProblem, init) -> SolveResult:
    """Gauss-Newton least-squares trilateration; works for 3 or more anchors.

    Minimizes the squared range residuals from the given start. On consistent
    three-anchor data this lands on the same point as the closed forms
    (within solver tolerance). Raises NoConvergence with the best iterate
    attached when the iteration budget runs out, and without one when the
    iterate or its residual norm is not finite (a NaN start included).
    """
    if isinstance(init, Point):
        if init.dim != problem.dimension:
            raise DimensionError(f"init is {init.dim}D, problem is {problem.dimension}D")
        x0 = np.array(init.coords)
    else:
        x0 = np.asarray(init, dtype=float).ravel()
        if x0.size != problem.dimension:
            raise DimensionError(f"init has {x0.size} coordinates, problem is "
                                 f"{problem.dimension}D")
    anchors, ranges = problem.anchor_array, problem.distance_array
    with np.errstate(over="ignore", invalid="ignore"):  # huge anchors: an overflowed step fails
        x, norm, iterations, converged = gauss_newton_raw(
            lambda x: _residuals(x, anchors, ranges), lambda x: _unit_rows(x, anchors), x0)
    return _outcome(x.tolist(), norm, iterations, converged,
                    "trilaterate_lsq did not converge after {iterations} iterations")


def _line_fit(rows: Sequence[tuple[float, float, float]]) -> tuple[float, float, float, bool]:
    """The least-squares point (x, y) of the lines nx x + ny y = d (unit
    normals), its residual norm, and whether the lines are parallel or fewer
    than two; the point is then the least-squares one nearest the origin."""
    m00 = m01 = m11 = g0 = g1 = 0.0
    for nx, ny, d in rows:
        m00 += nx * nx
        m01 += nx * ny
        m11 += ny * ny
        g0 += nx * d
        g1 += ny * d
    det = m00 * m11 - m01 * m01
    trace = m00 + m11  # the number of lines
    ill = not det > _PARALLEL_TOL * trace * trace
    if not ill:
        x, y = (m11 * g0 - m01 * g1) / det, (m00 * g1 - m01 * g0) / det
    elif trace > 0.0:
        # Rank one: the normals' principal direction v, and x = v (v . g) / lambda.
        lam = trace / 2 + math.hypot((m00 - m11) / 2, m01)
        vx, vy = (lam - m11, m01) if m00 >= m11 else (m01, lam - m00)
        scale = (vx * g0 + vy * g1) / (lam * (vx * vx + vy * vy))
        x, y = vx * scale, vy * scale
    else:
        x = y = 0.0
    ssq = 0.0
    for nx, ny, d in rows:
        r = nx * x + ny * y - d
        ssq += r * r
    return x, y, math.sqrt(ssq), ill


def team_relative_position(drones: Sequence[Point], emitter_fixes: Sequence[SolveResult],
                           beacons: Sequence[Point]) -> tuple[SolveResult, tuple[Point, ...]]:
    """The team's position by resection against three beacons at known
    positions, from the bearings of its emitter fixes; and the root of each
    fix that the position rests on.

    The team knows its formation, altitude and heading, not its planar
    position c. Seen from the drones' planar centroid c0, root p of an
    emitter fix has a bearing, and the team lies on the line through that
    emitter's beacon E along it: n . (E - c) = 0, with n the unit normal of
    p - c0. The three lines are a 3x2 linear least squares in c, solved in
    closed form from its 2x2 normal equations (the pseudo-linear bearing
    estimator: Stansfield 1947; Lingren & Gong 1978) for each combination of
    the fixes' candidate roots; the combination of least residual norm
    wins, the first one on a tie. A tight cluster measures bearings well and
    ranges hardly at all, so only the bearings are used. The team's z is
    the drones' mean altitude. The residual norm is the root sum of squares
    of the point's distances to the lines.

    A root with no planar bearing (at c0, or beyond the float range from
    it) gives no line. When fewer than two lines are left, or they are
    parallel, the point is the least-squares one nearest the beacons'
    centroid, flagged ill_conditioned; a well-conditioned combination
    beats any such one. A fix without a line is represented by its
    estimate. A position beyond the float range is GeometryDegenerate.
    """
    drones, fixes, beacons = list(drones), list(emitter_fixes), list(beacons)
    if not drones:
        raise ValidationError("at least one drone required", field="drones")
    if len(beacons) != 3 or len(fixes) != 3:
        raise ValidationError(f"3 beacons and one emitter fix each required, got "
                              f"{len(beacons)} and {len(fixes)}", field="beacons")
    dim = drones[0].dim
    points = drones + beacons + [p for fix in fixes for p, _ in fix.candidates]
    if any(p.dim != dim for p in points):
        raise DimensionError("drones, beacons and emitter fixes must share one dimension")
    cx, cy, cz = _centroid([(p.x, p.y, p.z) for p in drones])
    bx, by = _centroid([(p.x, p.y) for p in beacons])
    # Per fix, each root with its line (unit normal, offset) relative to the
    # beacons' centroid, or the estimate alone when no root has a line.
    options = []
    for fix, beacon in zip(fixes, beacons):
        ex, ey = beacon.x - bx, beacon.y - by
        lines = []
        for p, _ in fix.candidates:
            ux, uy = p.x - cx, p.y - cy
            h = math.hypot(ux, uy)
            if 0.0 < h < math.inf:
                nx, ny = -uy / h, ux / h
                d = nx * ex + ny * ey
                if math.isfinite(d):
                    lines.append((p, (nx, ny, d)))
        options.append(lines or [(fix.estimate, None)])
    best = None
    for combo in itertools.product(*options):
        x, y, norm, ill = _line_fit([line for _, line in combo if line is not None])
        key = (ill, norm if norm == norm else math.inf)  # an overflowed NaN never wins
        if best is None or key < best[0]:
            best = key, (x, y, norm), combo
    (ill, _), (x, y, norm), combo = best
    coords = (bx + x, by + y, cz)[:dim]
    if not all(map(math.isfinite, (*coords, norm))):
        raise GeometryDegenerate("the team position overflows float64")
    estimate = Point.of(*coords)
    flags = frozenset({"ill_conditioned"} if ill else ())
    return (SolveResult(estimate=estimate, candidates=((estimate, norm),), residual_norm=norm,
                        iterations=0, converged=True, flags=flags),
            tuple(p for p, _ in combo))
