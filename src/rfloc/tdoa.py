"""Hyperbolic emitter localization from arrival-time differences.

Sign convention, fixed throughout: delta_t = t_ref - t_other and
delta_d = c * delta_t. Flipping it silently mirrors solutions, so every
consumer of RangeDifferenceSet relies on this one.

With three receivers the two hyperbola branches may intersect twice; both
intersections satisfy the measurements exactly, so the solvers return every
root and callers pick from the candidate list when the primary estimate's
tie-break (closer to the receiver centroid) is not what they want.

Three receivers give two equations, so every solve is on a known emitter
plane and in closed form (Schau & Robinson 1987; Chan & Ho 1994): a 3D
emitter on the plane z = emitter_plane_z, a 2D one on the plane z = 0 with
its receivers lifted to 3D. A free emitter height is refused. The closed
form is one array program over rows of range differences against one
receiver triangle (_plane_batch): locate_emitter_2d/3d are its one-row case,
and the CLI sends a pipeline fix's emitters, or every trial of a sweep,
through it in one call. Each row keeps the bits of its solve alone, so a
batch never changes a report; rows whose branches do not meet rerun one
Gauss-Newton fallback each.
"""

from __future__ import annotations

import math
import numbers
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
from .solver import (_TIE_EPS, INCONSISTENCY_TOL, SolveResult, SolverOptions, _cross, _norms,
                     _rowdot, _unit_rows, gauss_newton_raw)

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


def _range_differences(times: np.ndarray, c: float, reference_index: int = 0) -> np.ndarray:
    """c (t_ref - t_k) for arrival times (..., R, E), against receiver
    reference_index and every other receiver k in order: (..., E, R - 1).
    Non-finite values pass through; RangeDifferenceSet and _fixes refuse them."""
    others = [k for k in range(times.shape[-2]) if k != reference_index]
    with np.errstate(over="ignore", invalid="ignore"):
        dt = times[..., reference_index:reference_index + 1, :] - times[..., others, :]
        return (c * dt).swapaxes(-1, -2)


def arrival_deltas(arrivals: ArrivalSet, emitter_index: int,
                   reference_index: int, c: float) -> RangeDifferenceSet:
    """Differences of arrival times against the reference receiver, for one emitter.

    delta_t = t_ref - t_other; delta_d = c * delta_t. A constant shift of all
    arrival times (e.g. an unknown emission time) cancels exactly.
    """
    n_receivers = arrivals.times.shape[0]
    if n_receivers < 2:
        raise InsufficientReceivers("need at least 2 receivers for arrival differences")
    if not 0 <= reference_index < n_receivers:
        raise IndexError(f"reference index {reference_index} out of range")
    t = arrivals.times[:, [emitter_index]]
    dd = _range_differences(t, c, reference_index)[0].tolist()
    dt = _range_differences(t, 1.0, reference_index)[0].tolist()  # x * 1.0 is x exactly
    others = [k for k in range(n_receivers) if k != reference_index]
    return RangeDifferenceSet(reference_index, tuple(zip(others, dt, dd)))


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


def _closures(recv: np.ndarray, deltas: np.ndarray, plane: float):
    """Residual/Jacobian callables over the unknowns (x, y) on the plane
    z = plane, against the receivers recv (m, 3).

    x may be one vector or rows (..., 2) of them, each against its row of
    deltas: residuals (..., 2), Jacobians (..., 2, 2).
    """
    def points(x: np.ndarray) -> np.ndarray:
        p = np.empty(x.shape[:-1] + (3,))
        p[..., :2] = x
        p[..., 2] = plane
        return p

    def residual(x: np.ndarray) -> np.ndarray:
        d = _norms(points(x)[..., None, :] - recv)
        return d[..., :1] - d[..., 1:] - deltas

    def jacobian(x: np.ndarray) -> np.ndarray:
        units = _unit_rows(points(x), recv)
        return units[..., :1, :2] - units[..., 1:, :2]

    return residual, jacobian


def _checked(receivers: Sequence[Point], rd: RangeDifferenceSet, dim: int,
             name: str) -> tuple[np.ndarray, np.ndarray]:
    """(receivers reference first, as 3D rows, differences) of a
    three-receiver solve: 2D receivers are lifted to the plane z = 0."""
    if len(receivers) != 3:
        raise ValueError(f"{name} needs exactly 3 receivers, got {len(receivers)}")
    recv, deltas, got = _ordered_receivers(receivers, rd)
    if got != dim:
        raise DimensionError(f"{name} needs {dim}D receivers")
    if len(deltas) != 2:
        raise ValueError("need range differences for exactly 2 receiver pairs")
    if dim == 2:
        recv = np.column_stack((recv, np.zeros(3)))
    return recv, deltas


def _triangle(recv: np.ndarray) -> float:
    """The diameter of a receiver triangle (3, 3); GeometryDegenerate when collinear."""
    v1, v2, v3 = recv[1] - recv[0], recv[2] - recv[0], recv[2] - recv[1]
    diam = math.sqrt(max(v1 @ v1, v2 @ v2, v3 @ v3))
    # hypot: twice the area without overflow, and exactly |normal_z| for a
    # triangle on the plane z = 0.
    if diam == 0.0 or math.hypot(*_cross(v1, v2)) <= 1e-12 * diam * diam:
        raise GeometryDegenerate("receivers are collinear (or coincident)")
    return diam


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of every (k, k) matrix of a against its row of b (..., k);
    NaN rows where a matrix is singular, which a stacked solve refuses as a whole."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _polish(recv: np.ndarray, deltas: np.ndarray, plane: float, x: np.ndarray,
            floor: np.ndarray, max_steps: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Drive approximate roots to the residual floor with pure Newton steps.

    x is (M, k), one start per row of deltas (M, 2), polished in place, and
    floor (M,) the rows' residual floors. Near-tangent branch crossings
    leave the default stopping rules satisfied while the root is still
    ~1e-2 m away; a few undamped steps accepted only on strict improvement
    pin it to machine precision. A row stops once its residual norm is at
    or below its floor (there a near-singular Jacobian turns rounding noise
    into a large step along the branches), or at its first step that is not
    finite or does not improve. Returns x and the rows' residual norms.
    """
    floor2 = floor * floor
    r = _closures(recv, deltas, plane)[0](x)
    f = _rowdot(r, r)
    live = np.nonzero(~(f <= floor2))[0]
    for _ in range(max_steps):
        if not live.size:
            break
        residual, jacobian = _closures(recv, deltas[live], plane)
        xl, rl = x[live], r[live]
        J = jacobian(xl)
        Jt = J.swapaxes(-1, -2)
        step = _solve_rows(Jt @ J, -(Jt @ rl[..., None])[..., 0])
        x_new = xl + step
        r_new = residual(x_new)
        f_new = _rowdot(r_new, r_new)
        ok = np.isfinite(step).all(axis=1) & np.isfinite(f_new) & (f_new < f[live])
        live = live[ok]
        x[live], r[live], f[live] = x_new[ok], r_new[ok], f_new[ok]
        live = live[~(f[live] <= floor2[live])]
    return x, np.sqrt(f)


class _PlaneRoots(NamedTuple):
    """The closed-form solve of N rows of differences (see _plane_batch)."""

    roots: np.ndarray     # (N, 2, 2) planar points, in candidate order
    norms: np.ndarray     # (N, 2) their residual norms
    count: np.ndarray     # (N,) distinct admissible roots, 0 to 2
    ties: np.ndarray      # (N, 2) residual-tied candidates, nearest the centroid first
    starts: np.ndarray    # (N, 2, 2) fallback starts of the rows with no root
    start_ok: np.ndarray  # (N, 2) which of them count


# _plane_batch's work rows are the linearized equations A_0, A_1, the null
# direction n and the minimum-norm point m, each over (x, y, r0). These
# pairs of them give A_0.A_0, A_0.A_1, A_1.A_1, n.n, then n.n, m.n, m.m.
_GRAM = (np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]))
_QUAD = (np.array([2, 3, 3]), np.array([2, 2, 3]))
_SOLVE = (np.array([2, 0]), np.array([1, 1]))   # (g11, g00) and (g01, g01) of A A^T
_FLOOR_ULPS = 8 * np.finfo(float).eps   # a root's rounding floor per unit of coordinate


def _plane_batch(recv: np.ndarray, deltas: np.ndarray, plane: float,
                 diam: float) -> _PlaneRoots:
    """Closed-form intersections of the two branches on the emitter plane
    z = plane, for every row of deltas (N, 2) against one reference-first
    receiver triangle recv (3, 3).

    With u = p - s_0 on the plane and h_k each receiver's height above it,
    squaring |p - s_k| = r0 - d_k against r0 = |p - s_0| leaves
    two equations linear in (u, r0):
        2 e_k . u - 2 d_k r0 = |e_k|^2 + h_k^2 - h_0^2 - d_k^2,
    with e_k the planar offset of receiver k from the reference. Their
    solutions form the line m + t n (minimum-norm m, unit null direction n),
    and |u|^2 + h_0^2 = r0^2 along it is a quadratic in t. Its admissible
    roots (r0 >= 0, r0 >= d_k, within the runaway radius) are polished,
    deduplicated at 1e-6 m and sorted as order_candidates sorts them; ties
    lists the residual-tied ones nearest the receiver centroid first (the
    last entry repeated when only one is tied). A row with no root (the
    branches do not meet) gets Gauss-Newton starts on the line instead, and
    a rank-deficient row the receiver centroid as its one start.

    Each row has the bits of a solve of that row alone: row dot products and
    matrix products go through the loops `@` uses on one row, and the
    polish through a stacked LAPACK solve.
    """
    rows = len(deltas)
    planar = recv[:, :2]
    e = planar[1:] - planar[0]
    h = recv[:, 2] - plane
    (ax, ay), (bx, by) = (2 * e).tolist()
    W = np.empty((rows, 4, 3))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        W[:, :2, :2] = 2 * e
        dz = W[:, :2, 2]
        dz[...] = 2 * -deltas
        rhs = (e * e).sum(axis=1) + h[1:] ** 2 - h[0] ** 2 - deltas ** 2
        W[:, 2, :2] = dz[:, ::-1] * (ay, bx) - dz * (by, ax)   # A_0 x A_1
        W[:, 2, 2] = ax * by - ay * bx
        g = _rowdot(W.take(_GRAM[0], axis=1), W.take(_GRAM[1], axis=1))
        g00, g01, g11, n_norm = g.T
        n_norm = np.sqrt(n_norm)
        rank_def = n_norm <= _RANK_TOL * np.sqrt(g00 * g11)
        W[:, 2] /= n_norm[:, None]
        # m = A^T (A A^T)^-1 rhs, the solution nearest the origin of (u, r0).
        w = g.take(_SOLVE[0], axis=1) * rhs - g.take(_SOLVE[1], axis=1) * rhs[:, ::-1]
        W[:, 3] = (W[:, :2].swapaxes(1, 2) @ w[..., None])[..., 0] / \
            (g00 * g11 - g01 * g01)[:, None]
        # a = |n_xy|^2 - n_z^2, b = 2 (m_xy . n_xy - m_z n_z), c = |m_xy|^2 + h_0^2 - m_z^2
        left, right = W.take(_QUAD[0], axis=1), W.take(_QUAD[1], axis=1)
        quad = _rowdot(left[..., :2], right[..., :2])
        quad[:, 2] += h[0] * h[0]
        quad -= left[..., 2] * right[..., 2]
        a, b, c = quad.T
        b = 2 * b
        disc = b * b - 4 * a * c
        # a -> 0 in the far field: the pair q/a, c/q avoids the cancellation
        # that would wreck the near root there. A negative disc, a = 0 or
        # q = 0 leaves that root NaN or infinite, so not admissible.
        q = -(b + np.copysign(np.sqrt(disc), b)) / 2
        t = np.empty((rows, 2))
        np.divide(q, a, out=t[:, 0])
        np.divide(c, q, out=t[:, 1])
        n, m = W[:, 2], W[:, 3]
        u = m[:, None] + t[..., None] * n[:, None]
        uxy = u[..., :2]
        valid = u[..., 2] >= np.maximum(deltas.max(axis=1), 0.0)[:, None]
        valid &= np.sqrt(_rowdot(uxy, uxy)) <= _RUNAWAY_DIAMS * diam
        valid &= ~rank_def[:, None]
        roots = planar[0] + uxy
    roots[~valid] = 0.0  # what follows never sees a slot without a root as inf or NaN

    # Polish every admissible root against its row's rounding floor: a few
    # ulps of the largest coordinate. A slot without a root has an infinite
    # floor, so it never steps (its residuals may overflow, unused).
    floor = _FLOOR_ULPS * (np.abs(roots).max(axis=(1, 2)) + np.abs(recv).max())
    with np.errstate(over="ignore", invalid="ignore"):
        roots, norms = _polish(recv, deltas.repeat(2, axis=0), plane, roots.reshape(-1, 2),
                               np.where(valid, floor[:, None], np.inf).ravel())
    roots, norms = roots.reshape(rows, 2, 2), norms.reshape(rows, 2)

    # Candidates by norm, then x, y; the second one dropped within
    # _DEDUP_TOL of the first; the residual-tied ones by distance to the
    # receiver centroid, then x, y.
    count = valid.sum(axis=1)
    order = np.lexsort((roots[..., 1], roots[..., 0], norms, ~valid), axis=-1)
    pick = np.arange(rows)[:, None]
    roots, norms = roots[pick, order], norms[pick, order]
    gap = roots[:, 1] - roots[:, 0]
    count -= (count == 2) & (np.sqrt(_rowdot(gap, gap)) < _DEDUP_TOL)
    second = count == 2
    best = np.where(second & (norms[:, 1] < norms[:, 0]), norms[:, 1], norms[:, 0])
    tied = norms <= (best + _TIE_EPS)[:, None]
    tied[:, 1] &= second
    pts = np.empty((rows, 2, 3))
    pts[..., :2] = roots
    pts[..., 2] = plane
    gap = pts - recv.mean(axis=0)
    dist = np.sqrt(_rowdot(gap, gap))
    ties = np.lexsort((roots[..., 1], roots[..., 0], dist, ~tied), axis=-1)
    ties[:, 1] = np.where(tied.all(axis=1), ties[:, 1], ties[:, 0])

    # Starts on the line for the rows with no root: the quadratic's vertex,
    # and the point with the least far-field residual. Along the line every
    # residual is ~ q(t) d_k / (2 r0 (r0 - d_k)): the vertex minimizes |q|,
    # and t* minimizes the far-field |q| / r0^2 (a zero of
    # (q' r0 - 2 q r0') / r0^3, linear in t).
    starts = np.empty((rows, 2, 2))
    start_ok = np.zeros((rows, 2), dtype=bool)
    miss = np.nonzero(count == 0)[0]
    if miss.size:
        m, n, a, b, c = m[miss], n[miss], a[miss], b[miss], c[miss]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = np.stack([-b / (2 * a), (2 * c * n[:, 2] - b * m[:, 2]) /
                          (2 * a * m[:, 2] - b * n[:, 2])], axis=1)
            pts = planar[0] + (m[:, None] + t[..., None] * n[:, None])[..., :2]
        ok = np.isfinite(t) & ~rank_def[miss, None]
        alone = ~ok.any(axis=1)
        ok[alone, 0] = True
        pts[alone, 0] = np.where(rank_def[miss][alone, None], planar.mean(axis=0),
                                 planar[0] + m[alone, :2])
        starts[miss], start_ok[miss] = pts, ok
    return _PlaneRoots(roots, norms, count, ties, starts, start_ok)


def _fixes(recv: np.ndarray, deltas: np.ndarray, plane: float, dim: int,
           opts: SolverOptions) -> list[tuple[SolveResult, Point]]:
    """Every row of deltas (N, 2) solved on the plane z = plane against the
    reference-first receivers recv (3, 3), in order, as dim-D points: its
    SolveResult and its residual-tied candidate farthest from the receiver
    centroid.

    The rows go through one _plane_batch; a row with no closed-form root
    runs one flagged Gauss-Newton fallback. The first row that fails
    raises, as a loop of single solves would: ValidationError for a
    non-finite difference, GeometryDegenerate (at the first row) for
    collinear receivers, NoConvergence when its fallback does not converge.
    """
    finite = np.isfinite(deltas).all(axis=1)

    def check(k):
        if not finite[k]:
            raise ValidationError("non-finite range difference", field="deltas")

    check(0)
    diam = _triangle(recv)
    batch = _plane_batch(recv, deltas, plane, diam)
    out = []
    for k in range(len(deltas)):
        check(k)
        out.append(_fix(recv, deltas, plane, dim, diam, batch, k, opts))
    return out


def _point(x, plane: float, dim: int) -> Point:
    """The planar solution x as a dim-D point, on the plane z = plane in 3D."""
    return Point.of(x[0], x[1], plane) if dim == 3 else Point.of(x[0], x[1])


def _fix(recv: np.ndarray, deltas: np.ndarray, plane: float, dim: int, diam: float,
         batch: _PlaneRoots, k: int, opts: SolverOptions) -> tuple[SolveResult, Point]:
    """Row k of batch = _plane_batch(recv, deltas, plane, diam) as a solve:
    its SolveResult and its residual-tied candidate farthest from the
    receiver centroid. A row with no root runs the Gauss-Newton fallback."""
    count = int(batch.count[k])
    if not count:
        return _fallback(recv, deltas[k], plane, dim, diam,
                         batch.starts[k][batch.start_ok[k]], opts)
    roots, norms = batch.roots[k].tolist(), batch.norms[k].tolist()
    near, far = batch.ties[k].tolist()
    cands = tuple((_point(roots[i], plane, dim), norms[i]) for i in range(count))
    return (SolveResult(estimate=cands[near][0], candidates=cands, residual_norm=norms[near],
                        iterations=0, converged=True), cands[far][0])


def _fallback(recv: np.ndarray, deltas: np.ndarray, plane: float, dim: int, diam: float,
              starts: np.ndarray, opts: SolverOptions) -> tuple[SolveResult, Point]:
    """One damped Gauss-Newton run from whichever start fits the differences
    better, flagged inconsistent beyond INCONSISTENCY_TOL.

    The hyperbolic objective plateaus toward the branch asymptotes, so the
    residual-change criterion can fire on iterates that ran off to enormous
    coordinates: a run that stops beyond the runaway radius of the receiver
    centroid fails like one that does not converge, with NoConvergence
    carrying its iterate as the best one, or none when it overflowed.
    """
    residual, jacobian = _closures(recv, deltas, plane)
    with np.errstate(over="ignore", invalid="ignore"):  # huge differences overflow: no fix
        start = min(starts, key=lambda x: float(np.linalg.norm(residual(x))))
        x, norm, iters, ok = gauss_newton_raw(residual, jacobian, start, opts)
    flags = frozenset({"inconsistent"} if norm > INCONSISTENCY_TOL else ())
    message = ("the branches do not meet and the least-squares run did not converge "
               "to a finite point")
    if not np.all(np.isfinite(x)):
        raise NoConvergence(f"{message}; the iterate is not finite")
    ok = ok and float(np.linalg.norm(x - recv[:, :2].mean(axis=0))) <= _RUNAWAY_DIAMS * diam
    p = _point(x, plane, dim)
    result = SolveResult(estimate=p, candidates=((p, norm),), residual_norm=norm,
                         iterations=iters, converged=ok, flags=flags)
    if not result.converged:
        raise NoConvergence(message, best=result)
    return result, p


def locate_emitter_2d(receivers: Sequence[Point], rd: RangeDifferenceSet,
                      opts: SolverOptions | None = None) -> SolveResult:
    """Solve the two-hyperbola system for a 2D emitter position, in closed form.

    This is locate_emitter_3d on the plane z = 0 with the receivers lifted
    to 3D, bit for bit, returned as 2D points. The squared range differences
    are linear in (x, y, r0) up to one quadratic (see _plane_batch); each
    admissible root is polished with Newton steps on the unsquared residuals
    and comes back as a candidate (deduplicated at 1e-6 m), since the two
    branches may cross at two points that both reproduce the measured
    differences. When the branches do not meet, one damped Gauss-Newton run
    gives the least-squares point, flagged inconsistent when its residual
    norm exceeds INCONSISTENCY_TOL. It starts from whichever of two points
    on the linearized solution line fits the differences better: the
    quadratic's vertex, or the point minimizing its far-field residual.
    NoConvergence is raised if that run does not converge or stops beyond
    1e6 triangle diameters, as it does when the branches diverge and the
    least-squares point is at infinity; its best iterate then keeps their
    common bearing. opts only configures that run.
    """
    recv, deltas = _checked(receivers, rd, 2, "locate_emitter_2d")
    return _fixes(recv, deltas[None], 0.0, 2, opts or SolverOptions())[0][0]


def locate_emitter_3d(receivers: Sequence[Point], rd: RangeDifferenceSet,
                      emitter_plane_z: float = 0.0,
                      opts: SolverOptions | None = None) -> SolveResult:
    """Locate a 3D emitter on the plane z = emitter_plane_z from the two
    hyperboloid range differences.

    Three receivers give two equations, so the emitter height is pinned
    (default 0, the ground-emitter closure) and the solve is 2-in-2, in
    closed form exactly as locate_emitter_2d, with each receiver's height
    above the plane carried into the squared equations. A free height would
    leave a one-parameter family of points that fit the differences, so a
    plane that is not a finite number (None included) is a ValidationError.
    """
    recv, deltas = _checked(receivers, rd, 3, "locate_emitter_3d")
    if not (isinstance(emitter_plane_z, numbers.Real) and math.isfinite(emitter_plane_z)):
        raise ValidationError(
            f"emitter_plane_z must be a finite number, got {emitter_plane_z!r}: three "
            "receivers give two range differences, too few for a free emitter height",
            field="emitter_plane_z")
    return _fixes(recv, deltas[None], float(emitter_plane_z), 3, opts or SolverOptions())[0][0]


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
