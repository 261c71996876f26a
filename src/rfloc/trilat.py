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
from .solver import (_TIE_EPS, INCONSISTENCY_TOL, SolveResult, SolverOptions, _unit_rows,
                     gauss_newton_raw, order_candidates)

__all__ = [
    "TrilaterationProblem",
    "trilateration_residuals",
    "trilateration_jacobian",
    "trilateration_objective",
    "trilaterate_2d",
    "trilaterate_3d",
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


def _norms_and_flags(problem: TrilaterationProblem, roots: list[np.ndarray],
                     base_flags: set[str]) -> tuple[list[tuple[Point, float]], set[str]]:
    cands = []
    for r in roots:
        p = Point.from_array(r, dim=problem.dimension)
        norm = float(np.linalg.norm(trilateration_residuals(problem, p)))
        cands.append((p, norm))
    flags = set(base_flags)
    if min(n for _, n in cands) > INCONSISTENCY_TOL:
        flags.add("inconsistent")
    return cands, flags


def _require_three(problem: TrilaterationProblem, dim: int, op: str) -> None:
    if problem.dimension != dim:
        raise DimensionError(f"{op} needs a {dim}D problem, got {problem.dimension}D")
    if len(problem.emitters) != 3:
        raise ValueError(f"{op} needs exactly 3 emitters, got {len(problem.emitters)}")


def trilaterate_2d(problem: TrilaterationProblem) -> SolveResult:
    """Closed-form 2D trilateration with candidate verification.

    Subtracting the first two circle equations leaves a line; intersecting it
    with the third circle gives a quadratic whose two roots are both returned
    as candidates. The estimate is the root with the lower total residual
    against all three circles, and the inconsistent flag is set when even
    that best norm exceeds INCONSISTENCY_TOL.
    """
    _require_three(problem, 2, "trilaterate_2d")
    e = problem.anchor_array
    d = problem.distance_array
    # Work relative to the first anchor for conditioning, in extended
    # precision: the radical-line constants are O(range^2) and cancellation
    # in plain float64 costs the last couple of digits at km scales.
    ld = np.longdouble
    e2 = (e[1] - e[0]).astype(ld)
    e3 = (e[2] - e[0]).astype(ld)
    area2 = abs(float(e2[0] * e3[1] - e2[1] * e3[0]))
    scale = max(float(np.hypot(*e2)), float(np.hypot(*e3)))
    if scale == 0.0 or area2 <= 1e-12 * scale * scale:
        raise GeometryDegenerate("emitters are collinear (or coincident)")

    dl = d.astype(ld)
    n = 2.0 * e2
    h = dl[0] ** 2 - dl[1] ** 2 + e2 @ e2
    # Closest point on the line to the third anchor; the offset to the circle
    # crossing is then purely along the line direction.
    nn = n @ n
    p0 = e3 + ((h - n @ e3) / nn) * n
    u = np.array([-n[1], n[0]]) / np.sqrt(nn)
    radicand = dl[2] ** 2 - (p0 - e3) @ (p0 - e3)
    if radicand < -_RADICAND_SLACK * dl[2] ** 2:
        raise Inconsistent(
            f"third circle misses the radical line (radicand {float(radicand):.3e})")
    t = np.sqrt(radicand) if radicand > _RADICAND_SLACK * dl[2] ** 2 else ld(0.0)
    roots = [(e[0] + (p0 + t * u).astype(float))]
    if t > 0.0:
        roots.append(e[0] + (p0 - t * u).astype(float))

    cands, flags = _norms_and_flags(problem, roots, set())
    ordered = order_candidates(cands)
    estimate, norm = ordered[0]
    return SolveResult(estimate=estimate, candidates=ordered, residual_norm=norm,
                       iterations=0, converged=True, flags=frozenset(flags))


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
    e = problem.anchor_array
    d = problem.distance_array
    ld = np.longdouble
    e2 = (e[1] - e[0]).astype(ld)
    e3 = (e[2] - e[0]).astype(ld)
    cross = np.cross(e2, e3)
    cross_norm = float(np.sqrt(cross @ cross))
    scale = max(float(np.sqrt(e2 @ e2)), float(np.sqrt(e3 @ e3)))
    if scale == 0.0 or cross_norm <= 1e-12 * scale * scale:
        raise GeometryDegenerate("emitters are collinear (or coincident)")

    # Radical planes of spheres (1,2) and (1,3), relative to the first anchor;
    # extended precision for the same cancellation reason as the 2D path.
    dl = d.astype(ld)
    A = np.array([2.0 * e2, 2.0 * e3])
    b = np.array([dl[0] ** 2 - dl[1] ** 2 + e2 @ e2,
                  dl[0] ** 2 - dl[2] ** 2 + e3 @ e3])
    u = cross / np.sqrt(cross @ cross)
    # Minimum-norm solution of the 2x3 system: p0 = A^T (A A^T)^{-1} b.
    AAt = A @ A.T
    det = AAt[0, 0] * AAt[1, 1] - AAt[0, 1] * AAt[1, 0]
    w0 = (AAt[1, 1] * b[0] - AAt[0, 1] * b[1]) / det
    w1 = (AAt[0, 0] * b[1] - AAt[1, 0] * b[0]) / det
    p0 = A.T @ np.array([w0, w1])
    p0 = p0 - (p0 @ u) * u  # keep p0 in the anchor plane through anchor 1
    radicand = dl[0] ** 2 - p0 @ p0
    if radicand < -_RADICAND_SLACK * dl[0] ** 2:
        raise Inconsistent(
            f"spheres admit no real intersection (radicand {float(radicand):.3e})")
    t = np.sqrt(radicand) if radicand > _RADICAND_SLACK * dl[0] ** 2 else ld(0.0)

    flags: set[str] = set()
    roots = [e[0] + (p0 + t * u).astype(float)]
    if t > 0.0:
        roots.append(e[0] + (p0 - t * u).astype(float))
        flags.add("mirror_ambiguity")
    cands, flags = _norms_and_flags(problem, roots, flags)
    ordered = order_candidates(cands)

    best_norm = min(n for _, n in ordered)
    tied = [(p, n) for p, n in ordered if n <= best_norm + _TIE_EPS]
    estimate, norm = max(tied, key=lambda c: (c[0].z, -c[0].x, -c[0].y))
    return SolveResult(estimate=estimate, candidates=ordered, residual_norm=norm,
                       iterations=0, converged=True, flags=frozenset(flags))


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
        return np.linalg.norm(x - anchors, axis=1) - dists

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
