"""Trilateration: position from absolute ranges to three known anchors.

The algebraic routes mirror the classic elimination: subtracting range
equations pairwise removes the quadratic terms, and the surviving quadratic
contributes two candidate roots. Measured ranges are rarely perfectly
consistent, so every candidate is scored against all range equations and the
best one wins; when even the best residual norm exceeds the inconsistency
tolerance the result is flagged rather than silently trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DimensionError,
    GeometryDegenerate,
    Inconsistent,
    NoConvergence,
    ValidationError,
)
from .geometry import Point
from .simulate import DistanceMatrix
from .solver import (_TIE_EPS, INCONSISTENCY_TOL, SolveResult, SolverOptions, _cross,
                     _norms, _rowdot, _unit_rows, gauss_newton_raw, order_candidates)

__all__ = [
    "TrilaterationProblem",
    "trilateration_residuals",
    "trilateration_jacobian",
    "trilateration_objective",
    "trilaterate_2d",
    "trilaterate_3d",
    "trilaterate_batch",
    "trilaterate_lsq",
    "team_relative_position",
    "INCONSISTENCY_TOL",
]

_RADICAND_SLACK = 1e-9  # relative: radicand >= -slack * d^2 clamps to 0


@dataclass(frozen=True)
class TrilaterationProblem:
    """Anchor positions plus measured ranges to each, in a common dimension."""

    emitters: tuple[Point, ...]
    distances: tuple[float, ...]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        if len(self.emitters) < 3:
            raise ValidationError("at least 3 emitters required", field="emitters")
        if len(self.distances) != len(self.emitters):
            raise ValidationError("one distance per emitter required", field="distances")
        if self.dimension not in (2, 3):
            raise DimensionError(f"dimension must be 2 or 3, got {self.dimension}")
        if any(p.dim != self.dimension for p in self.emitters):
            raise DimensionError("emitter dimensions disagree with the problem dimension")
        for d in self.distances:
            if not (math.isfinite(d) and d >= 0.0):
                raise ValidationError("distances must be finite and >= 0", field="distances")

    @property
    def anchor_array(self) -> np.ndarray:
        return np.array([p.coords for p in self.emitters])

    @property
    def distance_array(self) -> np.ndarray:
        return np.array(self.distances)


def trilateration_residuals(problem: TrilaterationProblem, q: Point) -> np.ndarray:
    """Residual per anchor: |q - emitter_i| - distance_i (meters)."""
    if q.dim != problem.dimension:
        raise DimensionError(f"point is {q.dim}D, problem is {problem.dimension}D")
    x = np.array(q.coords)
    return np.linalg.norm(x - problem.anchor_array, axis=1) - problem.distance_array


def trilateration_jacobian(problem: TrilaterationProblem, q: Point) -> np.ndarray:
    """Analytic Jacobian: row i is the unit vector from emitter i toward q.

    Points within 1e-9 m of an anchor are nudged along +x first (the unit
    vector is undefined exactly at an anchor).
    """
    if q.dim != problem.dimension:
        raise DimensionError(f"point is {q.dim}D, problem is {problem.dimension}D")
    return _unit_rows(np.array(q.coords), problem.anchor_array)


def trilateration_objective(problem: TrilaterationProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized sum-of-squared-residuals objective for grid_search oracles."""
    anchors = problem.anchor_array
    dists = problem.distance_array

    def objective(points: np.ndarray) -> np.ndarray:
        return _kernels.sum_sq_range_residuals(points, anchors, dists)

    return objective


def _require_three(problem: TrilaterationProblem, dim: int, op: str) -> None:
    if problem.dimension != dim:
        raise DimensionError(f"{op} needs a {dim}D problem, got {problem.dimension}D")
    if len(problem.emitters) != 3:
        raise ValueError(f"{op} needs exactly 3 emitters, got {len(problem.emitters)}")


def _closed_form(anchors: np.ndarray, ranges: np.ndarray):
    """Both closed-form roots of every row of ranges against one anchor triangle.

    anchors is (3, D) with D = 2 or 3 and ranges is (N, 3). What depends on
    the anchors alone is computed once. The rest runs in extended precision,
    relative to the first anchor for conditioning: the radical-line (plane)
    constants are O(range^2), and cancellation in plain float64 costs the
    last couple of digits at km scales. Row dot products go through
    _rowdot, which sums as `@` does; another summation order changes
    reports in the last bits.

    Returns the roots (N, 2, D), their residual norms against all three
    ranges (N, 2), whether the second root is distinct (N,), the radicand
    (N,), and whether it falls below the slack (N,): no real intersection.
    """
    e = anchors
    dim = e.shape[1]
    ld = np.longdouble
    e2 = (e[1] - e[0]).astype(ld)
    e3 = (e[2] - e[0]).astype(ld)
    if dim == 2:
        area2 = abs(float(e2[0] * e3[1] - e2[1] * e3[0]))
        scale = max(float(np.hypot(*e2)), float(np.hypot(*e3)))
    else:
        cross = _cross(e2, e3)
        area2 = float(np.sqrt(cross @ cross))
        scale = max(float(np.sqrt(e2 @ e2)), float(np.sqrt(e3 @ e3)))
    if scale == 0.0 or area2 <= 1e-12 * scale * scale:
        raise GeometryDegenerate("emitters are collinear (or coincident)")

    sq = ranges.astype(ld) ** 2
    if dim == 2:
        # Subtracting the first two circle equations leaves a line. Its point
        # closest to the third anchor p0 is offset from the circle crossings
        # purely along the line direction u.
        n = 2.0 * e2
        nn = n @ n
        h = sq[:, 0] - sq[:, 1] + e2 @ e2
        p0 = e3 + ((h - n @ e3) / nn)[:, None] * n
        u = np.array([-n[1], n[0]]) / np.sqrt(nn)
        ref = sq[:, 2]
        radicand = ref - _rowdot(p0 - e3, p0 - e3)
    else:
        # Radical planes of spheres (1,2) and (1,3) meet in a line normal to
        # the anchor plane; p0 is the minimum-norm solution of the 2x3 system,
        # p0 = A^T (A A^T)^{-1} b, kept in the anchor plane through anchor 1.
        A = np.array([2.0 * e2, 2.0 * e3])
        AAt = A @ A.T
        det = AAt[0, 0] * AAt[1, 1] - AAt[0, 1] * AAt[1, 0]
        u = cross / np.sqrt(cross @ cross)
        b0 = sq[:, 0] - sq[:, 1] + e2 @ e2
        b1 = sq[:, 0] - sq[:, 2] + e3 @ e3
        w = np.stack([(AAt[1, 1] * b0 - AAt[0, 1] * b1) / det,
                      (AAt[0, 0] * b1 - AAt[1, 0] * b0) / det], axis=1)
        p0 = w @ A
        p0 = p0 - _rowdot(p0, u)[:, None] * u
        ref = sq[:, 0]
        radicand = ref - _rowdot(p0, p0)
    # A radicand within the slack of 0 clamps to one (tangent) root.
    miss = radicand < -_RADICAND_SLACK * ref
    two = radicand > _RADICAND_SLACK * ref
    t = np.where(two, np.sqrt(np.where(two, radicand, 1.0)), ld(0.0))[:, None]
    roots = e[0] + np.stack([(p0 + t * u).astype(float), (p0 - t * u).astype(float)], axis=1)
    r = np.linalg.norm(roots[:, :, None, :] - e, axis=-1) - ranges[:, None, :]
    return roots, np.sqrt(_rowdot(r, r)), two, radicand, miss


def _pick_second(roots: np.ndarray, norms: np.ndarray, two: np.ndarray) -> np.ndarray:
    """Whether each row's estimate is its second root (see trilaterate_2d/_3d)."""
    a, b = roots[:, 0], roots[:, 1]
    lex = (b[:, 0] < a[:, 0]) | ((b[:, 0] == a[:, 0]) & (b[:, 1] < a[:, 1]))
    if roots.shape[2] == 2:  # order_candidates' first: norm, then x, then y
        second = (norms[:, 1] < norms[:, 0]) | ((norms[:, 1] == norms[:, 0]) & lex)
    else:  # among residual-tied roots the greater z, then the lower x, y
        tied = norms <= norms.min(axis=1, keepdims=True) + _TIE_EPS
        higher = (b[:, 2] > a[:, 2]) | ((b[:, 2] == a[:, 2]) & lex)
        second = tied[:, 1] & (~tied[:, 0] | higher)
    return two & second


def trilaterate_batch(anchors, ranges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form trilateration of N range triples against one anchor triangle.

    anchors is (3, D) with D = 2 or 3, ranges is (N, 3). Returns the
    estimates (N, D), their residual norms (N,) and a mask of the rows the
    closed form rejects: a radicand below the slack (trilaterate_2d/_3d
    raise Inconsistent there) or a non-finite result. Every other row is
    bit-identical to trilaterate_2d/_3d's estimate and residual norm for
    that row. Raises GeometryDegenerate for collinear or coincident anchors.
    """
    return _batch(anchors, ranges)[:3]


def _batch(anchors, ranges):
    """trilaterate_batch's estimates, norms and rejected mask, then the
    radicand-miss mask and the radicands: the rows where trilaterate_2d/_3d
    raise _inconsistent(D, radicand)."""
    anchors = np.asarray(anchors, dtype=float)
    ranges = np.asarray(ranges, dtype=float)
    if anchors.shape[0] != 3 or anchors.shape[1] not in (2, 3) or ranges.shape[1:] != (3,):
        raise ValueError(f"need anchors (3, 2|3) and ranges (N, 3), got "
                         f"{anchors.shape} and {ranges.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        roots, norms, two, radicand, miss = _closed_form(anchors, ranges)
    pick = _pick_second(roots, norms, two).astype(int)
    rows = np.arange(len(ranges))
    estimates, norm = roots[rows, pick], norms[rows, pick]
    rejected = miss | ~np.isfinite(norm) | ~np.isfinite(estimates).all(axis=1)
    return estimates, norm, rejected, miss, radicand


def _inconsistent(dim: int, radicand) -> Inconsistent:
    """The error of a closed-form solve whose radicand falls below the slack."""
    what = ("third circle misses the radical line" if dim == 2
            else "spheres admit no real intersection")
    return Inconsistent(f"{what} (radicand {float(radicand):.3e})")


def _solve_one(problem: TrilaterationProblem) -> SolveResult:
    """One problem through _closed_form, with every candidate and the flags."""
    with np.errstate(invalid="ignore", over="ignore"):  # as _batch: a huge range overflows
        roots, norms, two, radicand, miss = _closed_form(problem.anchor_array,
                                                         problem.distance_array[None, :])
    if miss[0]:
        raise _inconsistent(problem.dimension, radicand[0])
    k = 2 if two[0] else 1
    cands = [(Point.from_array(r, dim=problem.dimension), float(n))
             for r, n in zip(roots[0, :k], norms[0, :k])]
    estimate, norm = cands[int(_pick_second(roots, norms, two)[0])]
    flags = set()
    if two[0] and problem.dimension == 3:
        flags.add("mirror_ambiguity")
    if min(n for _, n in cands) > INCONSISTENCY_TOL:
        flags.add("inconsistent")
    return SolveResult(estimate=estimate, candidates=order_candidates(cands),
                       residual_norm=norm, iterations=0, converged=True,
                       flags=frozenset(flags))


def trilaterate_2d(problem: TrilaterationProblem) -> SolveResult:
    """Closed-form 2D trilateration with candidate verification.

    Subtracting the first two circle equations leaves a line; intersecting it
    with the third circle gives a quadratic whose two roots are both returned
    as candidates. The estimate is the root with the lower total residual
    against all three circles, and the inconsistent flag is set when even
    that best norm exceeds INCONSISTENCY_TOL. A radicand below
    -1e-9 * d3^2 raises Inconsistent; within that slack it clamps to 0.
    """
    _require_three(problem, 2, "trilaterate_2d")
    return _solve_one(problem)


def trilaterate_3d(problem: TrilaterationProblem) -> SolveResult:
    """Closed-form 3D trilateration from exactly three spheres.

    Pairwise subtraction gives two planes whose intersection line is normal
    to the anchor plane; the first sphere then fixes the offset along it as
    +/- sqrt(radicand). Three anchors are always coplanar, so two distinct
    roots form a mirror pair (equal residual norms, mirror_ambiguity flag);
    the primary estimate is the root on the non-negative side (greater z),
    matching the aerial-receivers-above-ground convention. A radicand below
    -1e-9 * d1^2 raises Inconsistent; within that slack it clamps to 0.
    """
    _require_three(problem, 3, "trilaterate_3d")
    return _solve_one(problem)


def trilaterate_lsq(problem: TrilaterationProblem, init,
                    opts: SolverOptions | None = None) -> SolveResult:
    """Gauss-Newton least-squares trilateration; works for 3 or more anchors.

    Minimizes the squared range residuals from the given start. On consistent
    three-anchor data this lands on the same point as the closed forms
    (within solver tolerance). Raises NoConvergence with the best iterate
    attached when the iteration budget runs out.
    """
    opts = opts or SolverOptions()
    anchors = problem.anchor_array
    dists = problem.distance_array
    if isinstance(init, Point):
        if init.dim != problem.dimension:
            raise DimensionError(f"init is {init.dim}D, problem is {problem.dimension}D")
        x0 = np.array(init.coords)
    else:
        x0 = np.asarray(init, dtype=float).ravel()
        if x0.size != problem.dimension:
            raise DimensionError(f"init has {x0.size} coordinates, problem is "
                                 f"{problem.dimension}D")

    def residual(x: np.ndarray) -> np.ndarray:
        return _norms(x - anchors) - dists

    def jacobian(x: np.ndarray) -> np.ndarray:
        return _unit_rows(x, anchors)

    x, norm, iterations, converged = gauss_newton_raw(residual, jacobian, x0, opts)
    estimate = Point.from_array(x, dim=problem.dimension)
    flags = frozenset({"inconsistent"}) if norm > INCONSISTENCY_TOL else frozenset()
    result = SolveResult(estimate=estimate, candidates=((estimate, norm),),
                         residual_norm=norm, iterations=iterations,
                         converged=converged, flags=flags)
    if not converged:
        raise NoConvergence(
            f"trilaterate_lsq did not converge after {iterations} iterations", best=result)
    return result


def team_relative_position(drones: Sequence[Point], emitter_estimates: Sequence[Point],
                           dm: DistanceMatrix,
                           opts: SolverOptions | None = None) -> SolveResult:
    """The team's relative reference point from per-drone emitter ranges.

    Averages each emitter's column of the distance matrix across drones, then
    runs one least-squares trilateration against the emitter estimates,
    initialized at the drone centroid. With a single drone this reduces to
    trilaterate_lsq on that row.
    """
    drones = list(drones)
    estimates = list(emitter_estimates)
    if not drones:
        raise ValidationError("at least one drone required", field="drones")
    if dm.d.shape != (len(drones), len(estimates)):
        raise ValidationError(
            f"distance matrix shape {dm.d.shape} does not match "
            f"{len(drones)} drones x {len(estimates)} emitters", field="dm")
    dim = estimates[0].dim
    if any(p.dim != dim for p in estimates) or any(p.dim != dim for p in drones):
        raise DimensionError("drones and emitter estimates must share one dimension")

    averaged = dm.d.mean(axis=0)
    problem = TrilaterationProblem(tuple(estimates), tuple(averaged), dim)
    centroid = np.mean([p.coords for p in drones], axis=0)
    return trilaterate_lsq(problem, centroid, opts)
