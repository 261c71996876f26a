"""Hyperbolic emitter localization from arrival-time differences.

Sign convention, fixed throughout: delta_t = t_ref - t_other and
delta_d = c * delta_t. Flipping it silently mirrors solutions, so every
consumer of RangeDifferenceSet relies on this one.

With three receivers the two hyperbola branches may intersect twice; both
intersections satisfy the measurements exactly, so the solvers return every
root and callers pick from the candidate list when the primary estimate's
tie-break (closer to the receiver centroid) is not what they want. Emitters
on a known plane (2D, or 3D with a pinned height) are solved in closed form
(Schau & Robinson 1987; Chan & Ho 1994); only the under-determined free-height
3D solve searches with multi-start Gauss-Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DegenerateDirection,
    DimensionError,
    GeometryDegenerate,
    InsufficientReceivers,
    NoConvergence,
    ValidationError,
)
from .geometry import DirectionVector, Point, average_direction, direction_unit
from .simulate import ArrivalSet
from .solver import (INCONSISTENCY_TOL, SolveResult, SolverOptions, _cross,
                     _tied_by_centroid, _unit_rows, gauss_newton_raw, order_candidates)

__all__ = [
    "RangeDelta",
    "RangeDifferenceSet",
    "arrival_deltas",
    "hyperbolic_residuals",
    "hyperbolic_jacobian",
    "hyperbolic_objective",
    "locate_emitter_2d",
    "locate_emitter_3d",
    "combined_direction",
]

_DEDUP_TOL = 1e-6      # meters between distinct minimizers
_RUNAWAY_DIAMS = 1e6   # points beyond this many triangle diameters are divergent
_RANK_TOL = 1e-12      # relative: parallel linearized rows mean no unique line


class RangeDelta(NamedTuple):
    other_index: int
    delta_t: float   # seconds, t_ref - t_other
    delta_d: float   # meters, c * delta_t


@dataclass(frozen=True)
class RangeDifferenceSet:
    """Arrival-time and range differences of every receiver against a reference."""

    reference_index: int
    deltas: tuple[RangeDelta, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "deltas",
            tuple(RangeDelta(int(d[0]), float(d[1]), float(d[2])) for d in self.deltas))
        others = [d.other_index for d in self.deltas]
        if self.reference_index in others:
            raise ValueError("reference receiver cannot appear as 'other'")
        if len(set(others)) != len(others):
            raise ValueError("duplicate receiver in range differences")
        for d in self.deltas:
            if not (math.isfinite(d.delta_t) and math.isfinite(d.delta_d)):
                raise ValidationError("non-finite range difference", field="deltas")

    @classmethod
    def from_range_differences(cls, reference_index: int,
                               pairs: Sequence[tuple[int, float]],
                               c: float) -> "RangeDifferenceSet":
        """Build from (other_index, delta_d meters) pairs, deriving delta_t = delta_d / c."""
        return cls(reference_index,
                   tuple(RangeDelta(i, dd / c, dd) for i, dd in pairs))


def arrival_deltas(arrivals: ArrivalSet, emitter_index: int,
                   reference_index: int, c: float) -> RangeDifferenceSet:
    """Differences of arrival times against the reference receiver, for one emitter.

    delta_t = t_ref - t_other; delta_d = c * delta_t. A constant shift of all
    arrival times (e.g. an unknown emission time) cancels exactly.
    """
    n_receivers = arrivals.times.shape[0]
    if n_receivers < 2:
        raise InsufficientReceivers("need at least 2 receivers for arrival differences")
    t = arrivals.times[:, emitter_index]
    t_ref = t[reference_index]
    deltas = []
    for k in range(n_receivers):
        if k == reference_index:
            continue
        dt = t_ref - t[k]
        deltas.append(RangeDelta(k, dt, c * dt))
    return RangeDifferenceSet(reference_index, tuple(deltas))


def _ordered_receivers(receivers: Sequence[Point],
                       rd: RangeDifferenceSet) -> tuple[np.ndarray, np.ndarray, int]:
    """Receiver coordinates with the reference first, plus aligned delta_d array."""
    dim = receivers[0].dim
    if any(p.dim != dim for p in receivers):
        raise DimensionError("receivers must share one dimension")
    n = len(receivers)
    if not (0 <= rd.reference_index < n):
        raise IndexError(f"reference index {rd.reference_index} out of range")
    for d in rd.deltas:
        if not (0 <= d.other_index < n):
            raise IndexError(f"receiver index {d.other_index} out of range")
    rows = [receivers[rd.reference_index].coords]
    rows += [receivers[d.other_index].coords for d in rd.deltas]
    return np.array(rows, dtype=float), np.array([d.delta_d for d in rd.deltas]), dim


def hyperbolic_residuals(receivers: Sequence[Point], rd: RangeDifferenceSet,
                         p: Point) -> np.ndarray:
    """One residual per pair: |p - r_ref| - |p - r_k| - delta_d_k (meters).

    The zero vector means p lies on every hyperbola (2D) / hyperboloid (3D).
    """
    recv, deltas, dim = _ordered_receivers(receivers, rd)
    if p.dim != dim:
        raise DimensionError(f"dimension mismatch: point {p.dim}D, receivers {dim}D")
    x = np.array(p.coords)
    d_ref = float(np.linalg.norm(x - recv[0]))
    return np.array([d_ref - float(np.linalg.norm(x - recv[k + 1])) - deltas[k]
                     for k in range(len(deltas))])


def hyperbolic_jacobian(receivers: Sequence[Point], rd: RangeDifferenceSet,
                        p: Point) -> np.ndarray:
    """Analytic Jacobian of hyperbolic_residuals w.r.t. the point coordinates.

    Row k is the difference of unit vectors toward p from the reference and
    from receiver k. Points within 1e-9 m of a receiver are nudged along +x
    before differentiation (the unit vector is undefined at an anchor).
    """
    recv, deltas, dim = _ordered_receivers(receivers, rd)
    if p.dim != dim:
        raise DimensionError(f"dimension mismatch: point {p.dim}D, receivers {dim}D")
    units = _unit_rows(np.array(p.coords), recv)
    return np.array([units[0] - units[k + 1] for k in range(len(deltas))])


def hyperbolic_objective(receivers: Sequence[Point],
                         rd: RangeDifferenceSet) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized sum-of-squared-residuals objective for grid_search oracles.

    The returned callable maps an (N, dim) array of trial points to (N,) values.
    """
    recv, deltas, _dim = _ordered_receivers(receivers, rd)

    def objective(points: np.ndarray) -> np.ndarray:
        return _kernels.sum_sq_tdoa_residuals(points, recv, deltas)

    return objective


def _closures(recv: np.ndarray, deltas: np.ndarray, fixed_z: float | None):
    """Residual/Jacobian callables over the solver's unknown vector.

    With fixed_z set, recv is (m, 3) and the unknowns are (x, y) on that
    plane; otherwise the unknowns match the receiver coordinates directly.
    """
    if fixed_z is None:
        def residual(x: np.ndarray) -> np.ndarray:
            d = np.linalg.norm(x - recv, axis=1)
            return d[0] - d[1:] - deltas

        def jacobian(x: np.ndarray) -> np.ndarray:
            units = _unit_rows(x, recv)
            return units[0] - units[1:]
    else:
        def residual(x: np.ndarray) -> np.ndarray:
            p = np.array([x[0], x[1], fixed_z])
            d = np.linalg.norm(p - recv, axis=1)
            return d[0] - d[1:] - deltas

        def jacobian(x: np.ndarray) -> np.ndarray:
            p = np.array([x[0], x[1], fixed_z])
            units = _unit_rows(p, recv)
            return (units[0] - units[1:])[:, :2]

    return residual, jacobian


def _triangle(receivers: Sequence[Point], rd: RangeDifferenceSet, dim: int,
              name: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(receivers reference first, differences, triangle diameter), validated."""
    if len(receivers) != 3:
        raise ValueError(f"{name} needs exactly 3 receivers, got {len(receivers)}")
    recv, deltas, got = _ordered_receivers(receivers, rd)
    if got != dim:
        raise DimensionError(f"{name} needs {dim}D receivers")
    if len(deltas) != 2:
        raise ValueError("need range differences for exactly 2 receiver pairs")
    v1, v2, v3 = recv[1] - recv[0], recv[2] - recv[0], recv[2] - recv[1]
    diam = math.sqrt(max(v1 @ v1, v2 @ v2, v3 @ v3))
    if recv.shape[1] == 2:
        area2 = abs(float(v1[0] * v2[1] - v1[1] * v2[0]))
    else:
        normal = _cross(v1, v2)
        area2 = math.sqrt(normal @ normal)
    if diam == 0.0 or area2 <= 1e-12 * diam * diam:
        raise GeometryDegenerate("receivers are collinear (or coincident)")
    return recv, deltas, diam


def _ring_starts(center: np.ndarray, radius: float, count: int) -> list[np.ndarray]:
    """The centroid plus count-1 starts evenly spaced on a circle around it."""
    starts = [center.copy()]
    n_ring = max(count - 1, 0)
    for k in range(n_ring):
        angle = 2.0 * math.pi * k / n_ring
        offset = np.zeros_like(center)
        offset[0] = radius * math.cos(angle)
        offset[1] = radius * math.sin(angle)
        starts.append(center + offset)
    return starts


def _dedup(runs) -> list[tuple[np.ndarray, float, int]]:
    """Collapse minimizers closer than the dedup tolerance, keeping the best norm."""
    runs = sorted(runs, key=lambda r: (r[1], tuple(r[0])))
    kept: list[tuple[np.ndarray, float, int]] = []
    for x, norm, iters in runs:
        if not any(np.linalg.norm(x - kx) < _DEDUP_TOL for kx, *_rest in kept):
            kept.append((x, norm, iters))
    return kept


def _polish(residual, jacobian, x: np.ndarray, max_steps: int = 8,
            floor: float = 0.0) -> tuple[np.ndarray, float]:
    """Drive an approximate root to the residual floor with pure Newton steps.

    Near-tangent branch crossings leave the default stopping rules satisfied
    while the root is still ~1e-2 m away; a few undamped steps accepted only
    on strict improvement pin it to machine precision. Steps stop once the
    residual norm is at or below floor: there a near-singular Jacobian turns
    rounding noise into a large step along the branches.
    """
    r = residual(x)
    f = float(r @ r)
    for _ in range(max_steps):
        if f <= floor * floor:
            break
        J = jacobian(x)
        try:
            step = np.linalg.solve(J.T @ J, -(J.T @ r))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        x_new = x + step
        r_new = residual(x_new)
        f_new = float(r_new @ r_new)
        if not (np.isfinite(f_new) and f_new < f):
            break
        x, r, f = x_new, r_new, f_new
    return x, math.sqrt(f)


def _plane_roots(recv: np.ndarray, deltas: np.ndarray, fixed_z: float | None,
                 diam: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Closed-form intersections of the two branches on the emitter plane.

    With u = p - s_0 on the plane and h_k each receiver's height above it
    (0 in 2D), squaring |p - s_k| = r0 - d_k against r0 = |p - s_0| leaves
    two equations linear in (u, r0):
        2 e_k . u - 2 d_k r0 = |e_k|^2 + h_k^2 - h_0^2 - d_k^2,
    with e_k the planar offset of receiver k from the reference. Their
    solutions form the line m + t n (minimum-norm m, unit null direction n),
    and |u|^2 + h_0^2 = r0^2 along it is a quadratic in t. Returns the
    admissible roots (r0 >= 0, r0 >= d_k, within the runaway radius) as planar
    points; when there are none (the branches do not meet), Gauss-Newton
    starts on the line instead. A rank-deficient system gives no roots and
    the receiver centroid as the start.
    """
    planar = recv[:, :2]
    h = recv[:, 2] - fixed_z if fixed_z is not None else np.zeros(3)
    e = planar[1:] - planar[0]
    A = 2 * np.column_stack([e, -deltas])
    rhs = (e * e).sum(axis=1) + h[1:] ** 2 - h[0] ** 2 - deltas ** 2
    n = _cross(A[0], A[1])
    n_norm = np.sqrt(n @ n)
    if n_norm <= _RANK_TOL * np.sqrt((A[0] @ A[0]) * (A[1] @ A[1])):
        return [], [planar.mean(axis=0)]
    n = n / n_norm
    # m = A^T (A A^T)^-1 rhs, the solution nearest the origin of (u, r0).
    g00, g01, g11 = A[0] @ A[0], A[0] @ A[1], A[1] @ A[1]
    m = A.T @ np.array([g11 * rhs[0] - g01 * rhs[1],
                        g00 * rhs[1] - g01 * rhs[0]]) / (g00 * g11 - g01 * g01)
    a = n[:2] @ n[:2] - n[2] * n[2]
    b = 2 * (m[:2] @ n[:2] - m[2] * n[2])
    c = m[:2] @ m[:2] + h[0] * h[0] - m[2] * m[2]
    disc = b * b - 4 * a * c
    ts = []
    if disc >= 0:
        # a -> 0 in the far field: the pair q/a, c/q avoids the cancellation
        # that would wreck the near root there.
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        ts = ([q / a] if a else []) + ([c / q] if q else [])
    roots = []
    for t in ts:
        u = m + t * n
        if u[2] >= 0 and np.all(u[2] >= deltas) and _within(u[:2], 0.0, diam):
            roots.append(planar[0] + u[:2])
    if roots:
        return roots, []
    # Along the line every residual is ~ q(t) d_k / (2 r0 (r0 - d_k)): the
    # quadratic's vertex minimizes |q|, and t* minimizes the far-field
    # |q| / r0^2 (a zero of (q' r0 - 2 q r0') / r0^3, linear in t).
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = [-b / (2 * a), (2 * c * n[2] - b * m[2]) / (2 * a * m[2] - b * n[2])]
    starts = [planar[0] + (m + t * n)[:2] for t in ts if math.isfinite(t)]
    return roots, starts or [planar[0] + m[:2]]


def _within(x: np.ndarray, center, diam: float) -> bool:
    """Whether x lies inside the runaway radius around center.

    The hyperbolic objective plateaus toward the branch asymptotes, so the
    residual-change criterion can fire on iterates that ran off to enormous
    coordinates: such runs fail, and roots that far out are not trusted.
    """
    return float(np.linalg.norm(x - center)) <= _RUNAWAY_DIAMS * diam


def _failed(message: str, x: np.ndarray, norm: float, iters: int, to_point,
            flags: frozenset[str]) -> NoConvergence:
    """The solve's NoConvergence, with no best iterate when x overflowed."""
    if not np.all(np.isfinite(x)):
        return NoConvergence(f"{message}; the iterate is not finite")
    p = to_point(x)
    best = SolveResult(estimate=p, candidates=((p, norm),), residual_norm=norm,
                       iterations=iters, converged=False, flags=flags)
    return NoConvergence(message, best=best)


def _result(runs, to_point, centroid3: np.ndarray, flags: frozenset[str]) -> SolveResult:
    cands = [(to_point(x), norm, iters) for x, norm, iters in _dedup(runs)]
    estimate, norm, iters = _tied_by_centroid(cands, centroid3)[0]
    return SolveResult(estimate=estimate,
                       candidates=order_candidates([(p, n) for p, n, _ in cands]),
                       residual_norm=norm, iterations=iters, converged=True, flags=flags)


def _locate_on_plane(recv: np.ndarray, deltas: np.ndarray, fixed_z: float | None,
                     to_point, diam: float, centroid3: np.ndarray,
                     opts: SolverOptions) -> SolveResult:
    """Two unknowns: polished closed-form roots, or one flagged fallback run."""
    residual, jacobian = _closures(recv, deltas, fixed_z)
    roots, starts = _plane_roots(recv, deltas, fixed_z, diam)
    if roots:
        # The residuals' rounding floor: a few ulps of the largest coordinate.
        floor = 8 * np.finfo(float).eps * (np.abs(roots).max() + np.abs(recv).max())
        runs = [(*_polish(residual, jacobian, x, floor=floor), 0) for x in roots]
        return _result(runs, to_point, centroid3, frozenset())
    start = min(starts, key=lambda x: float(np.linalg.norm(residual(x))))
    x, norm, iters, ok = gauss_newton_raw(residual, jacobian, start, opts)
    flags = frozenset({"inconsistent"} if norm > INCONSISTENCY_TOL else ())
    if not (ok and _within(x, centroid3[:2], diam)):
        raise _failed("the branches do not meet and the least-squares run did not "
                      "converge to a finite point", x, norm, iters, to_point, flags)
    return _result([(x, norm, iters)], to_point, centroid3, flags)


def _locate_free(recv: np.ndarray, deltas: np.ndarray, diam: float,
                 opts: SolverOptions) -> SolveResult:
    """Three unknowns, two equations: multi-start Gauss-Newton from a ring."""
    residual, jacobian = _closures(recv, deltas, None)
    centroid = recv.mean(axis=0)
    to_point = lambda x: Point.of(x[0], x[1], x[2])  # noqa: E731
    flags = frozenset({"under_determined"})
    runs, best_failed = [], None
    for s in _ring_starts(centroid, diam, opts.multistart_count):
        x, norm, iters, ok = gauss_newton_raw(residual, jacobian, s, opts)
        if ok and _within(x, centroid, diam):
            runs.append((x, norm, iters))
        elif best_failed is None or norm < best_failed[1]:
            best_failed = (x, norm, iters)
    if not runs:
        raise _failed("no start converged", *best_failed, to_point, flags)
    runs = [(*_polish(residual, jacobian, x), iters) for x, _norm, iters in runs]
    return _result(runs, to_point, centroid, flags)


def locate_emitter_2d(receivers: Sequence[Point], rd: RangeDifferenceSet,
                      opts: SolverOptions | None = None) -> SolveResult:
    """Solve the two-hyperbola system for a 2D emitter position, in closed form.

    The squared range differences are linear in (x, y, r0) up to one
    quadratic (see _plane_roots); each admissible root is polished with
    Newton steps on the unsquared residuals and comes back as a candidate
    (deduplicated at 1e-6 m), since the two branches may cross at two points
    that both reproduce the measured differences. When the branches do not
    meet, one damped Gauss-Newton run gives the least-squares point, flagged
    inconsistent when its residual norm exceeds INCONSISTENCY_TOL. It starts
    from whichever of two points on the linearized solution line fits the
    differences better: the quadratic's vertex, or the point minimizing its
    far-field residual. NoConvergence is raised if that run does not converge
    or stops beyond 1e6 triangle diameters, as it does when the branches
    diverge and the least-squares point is at infinity; its best iterate
    then keeps their common bearing. opts only configures that run.
    """
    recv, deltas, diam = _triangle(receivers, rd, 2, "locate_emitter_2d")
    return _locate_on_plane(recv, deltas, None, lambda x: Point.of(x[0], x[1]),
                            diam, np.append(recv.mean(axis=0), 0.0), opts or SolverOptions())


def locate_emitter_3d(receivers: Sequence[Point], rd: RangeDifferenceSet,
                      emitter_plane_z: float | None = 0.0,
                      opts: SolverOptions | None = None) -> SolveResult:
    """Locate a 3D emitter from the two hyperboloid range differences.

    Three receivers give two equations. With emitter_plane_z set (default 0,
    the ground-emitter closure) z is pinned and the solve is 2-in-2, in
    closed form exactly as locate_emitter_2d, with each receiver's height
    above the plane carried into the squared equations. With None the solve
    runs over (x, y, z) by multi-start Gauss-Newton (the centroid plus
    opts.multistart_count - 1 starts on a ring one triangle diameter out) and
    the result carries the under_determined flag: a 1-parameter family fits
    the data and only the minimizers reached from the starts are returned.
    """
    opts = opts or SolverOptions()
    recv, deltas, diam = _triangle(receivers, rd, 3, "locate_emitter_3d")
    if emitter_plane_z is None:
        return _locate_free(recv, deltas, diam, opts)
    z = float(emitter_plane_z)
    return _locate_on_plane(recv, deltas, z, lambda x: Point.of(x[0], x[1], z),
                            diam, recv.mean(axis=0), opts)


def combined_direction(receivers: Sequence[Point], emitter: Point) -> DirectionVector:
    """Average of the per-receiver unit vectors toward the emitter.

    Exactly the composition of direction_unit and average_direction; the
    result is generally shorter than unit length (renormalize separately if
    a unit heading is needed). Raises DegenerateDirection when the emitter
    coincides with a receiver.
    """
    if not receivers:
        raise DegenerateDirection("no receivers to take directions from")
    return average_direction([direction_unit(r, emitter) for r in receivers])
