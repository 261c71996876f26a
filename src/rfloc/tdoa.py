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
receiver triangle (_plane_batch), and _fixes is its one driver:
locate_emitter is its one-row case, and the CLI sends a pipeline
fix's emitters, or every trial of a sweep, through it. Each row comes back
as its solve alone would: its result, with the bits of that solve, or the
error that solve raises. Its roots are the quadratic's own, not refined by
Newton steps. A row whose branches do not meet runs one damped Gauss-Newton
fallback.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DimensionError,
    GeometryDegenerate,
    InsufficientReceivers,
    ValidationError,
)
from .geometry import Point
from .simulate import ArrivalSet, _check_speed
from .solver import (SolveResult, _centroid, _finite_real, _norms, _outcome, _rank, _rowdot,
                     _triangle, _unit_rows, gauss_newton_raw)

__all__ = [
    "RangeDifferenceSet",
    "arrival_deltas",
    "hyperbolic_residuals",
    "hyperbolic_jacobian",
    "hyperbolic_objective",
    "locate_emitter",
]

_DEDUP_TOL = 1e-6      # meters between distinct minimizers
_RUNAWAY_DIAMS = 1e6   # points beyond this many triangle diameters are divergent
_RANK_TOL = 1e-12      # relative: parallel linearized rows mean no unique line


class _RangeDelta(NamedTuple):
    other_index: int
    delta_t: float   # seconds, t_ref - t_other
    delta_d: float   # meters, c * delta_t


def _index(i, name: str, field: str = "deltas") -> int:
    """i as an int, if it is a Python or numpy integer and not a bool."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {i!r}", field=field)
    return int(i)


def _entry(d, names: tuple[str, ...]) -> tuple:
    """d, a tuple or list (index, *names) of an integer and finite real
    numbers other than bools, as (int, *floats); anything else is refused."""
    if not (isinstance(d, (tuple, list)) and len(d) == 1 + len(names) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in d[1:])):
        raise ValidationError(f"{d!r} is not (index, {', '.join(names)})", field="deltas")
    if not all(_finite_real(v) for v in d[1:]):
        raise ValidationError("non-finite range difference", field="deltas")
    return (_index(d[0], "receiver index"), *map(float, d[1:]))


@dataclass(frozen=True)
class RangeDifferenceSet:
    """Arrival-time and range differences of every receiver against a reference."""

    reference_index: int
    deltas: tuple[_RangeDelta, ...]

    def __post_init__(self):
        _index(self.reference_index, "reference_index")
        deltas = tuple(_RangeDelta(*_entry(d, ("delta_t", "delta_d"))) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        others = [d.other_index for d in self.deltas]
        if self.reference_index in others:
            raise ValueError("reference receiver cannot appear as 'other'")
        if len(set(others)) != len(others):
            raise ValueError("duplicate receiver in range differences")

    @classmethod
    def from_range_differences(cls, reference_index: int,
                               pairs: Sequence[tuple[int, float]],
                               c: float) -> "RangeDifferenceSet":
        """Build from (other_index, delta_d meters) pairs, deriving delta_t = delta_d / c."""
        _check_speed(c)
        pairs = [_entry(pair, ("delta_d",)) for pair in pairs]
        return cls(reference_index, tuple(_RangeDelta(i, dd / c, dd) for i, dd in pairs))


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

    delta_t = t_ref - t_other; delta_d = c * delta_t.
    """
    _check_speed(c)
    n_receivers = arrivals.times.shape[0]
    if n_receivers < 2:
        raise InsufficientReceivers("need at least 2 receivers for arrival differences")
    _index(reference_index, "reference_index", "reference_index")
    _index(emitter_index, "emitter_index", "emitter_index")
    if not 0 <= reference_index < n_receivers:
        raise IndexError(f"reference index {reference_index} out of range")
    if not 0 <= emitter_index < arrivals.times.shape[1]:
        raise IndexError(f"emitter index {emitter_index} out of range")
    t = arrivals.times[:, [emitter_index]]
    dd = _range_differences(t, c, reference_index)[0].tolist()
    dt = _range_differences(t, 1.0, reference_index)[0].tolist()  # x * 1.0 is x exactly
    others = [k for k in range(n_receivers) if k != reference_index]
    return RangeDifferenceSet(reference_index, tuple(zip(others, dt, dd)))


def _ordered_receivers(receivers: Sequence[Point], rd: RangeDifferenceSet,
                       at: Point | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Receiver coordinates with the reference first, plus aligned delta_d
    array; the point at, when given, must share the receivers' dimension."""
    n = len(receivers)
    if not (0 <= rd.reference_index < n):
        raise IndexError(f"reference index {rd.reference_index} out of range")
    for d in rd.deltas:
        if not (0 <= d.other_index < n):
            raise IndexError(f"receiver index {d.other_index} out of range")
    dim = receivers[0].dim
    if any(p.dim != dim for p in receivers):
        raise DimensionError("receivers must share one dimension")
    rows = [receivers[rd.reference_index].coords]
    rows += [receivers[d.other_index].coords for d in rd.deltas]
    if at is not None and at.dim != dim:
        raise DimensionError(f"dimension mismatch: point {at.dim}D, receivers {dim}D")
    return np.array(rows, dtype=float), np.array([d.delta_d for d in rd.deltas]), dim


def _residuals(p: np.ndarray, recv: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """hyperbolic_residuals at points p (..., D) against the reference-first
    receivers recv (m, D), each against its row of deltas: (..., m - 1)."""
    d = _norms(p[..., None, :] - recv)
    return d[..., :1] - d[..., 1:] - deltas


def _jacobian(p: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """hyperbolic_jacobian at points p (..., D): (..., m - 1, D)."""
    units = _unit_rows(p, recv)
    return units[..., :1, :] - units[..., 1:, :]


def hyperbolic_residuals(receivers: Sequence[Point], rd: RangeDifferenceSet,
                         p: Point) -> np.ndarray:
    """One residual per pair: |p - r_ref| - |p - r_k| - delta_d_k (meters).

    The zero vector means p lies on every hyperbola (2D) / hyperboloid (3D).
    """
    return _residuals(np.array(p.coords), *_ordered_receivers(receivers, rd, p)[:2])


def hyperbolic_jacobian(receivers: Sequence[Point], rd: RangeDifferenceSet,
                        p: Point) -> np.ndarray:
    """Analytic Jacobian of hyperbolic_residuals w.r.t. the point coordinates.

    Row k is the difference of unit vectors toward p from the reference and
    from receiver k. Points within 1e-9 m of a receiver are nudged along +x
    before differentiation (the unit vector is undefined at an anchor).
    """
    return _jacobian(np.array(p.coords), _ordered_receivers(receivers, rd, p)[0])


def hyperbolic_objective(receivers: Sequence[Point],
                         rd: RangeDifferenceSet) -> _kernels.GridObjective:
    """Vectorized sum-of-squared-residuals objective for grid_search oracles.

    Called on an (N, dim) array of trial points it returns (N,) values; its
    evaluate and bound methods, which take coordinates and box edges as
    per-axis columns, let grid_search evaluate only the lattice leaves that
    can hold the minimum (see _kernels.GridObjective).
    """
    recv, deltas, _dim = _ordered_receivers(receivers, rd)
    return _kernels.GridObjective(recv, deltas, tdoa=True)


def _closures(recv: np.ndarray, deltas: np.ndarray, plane: float):
    """The hyperbolic model over the unknowns (x, y) on the plane z = plane,
    against the receivers recv (m, 3): _residuals at the point (x, y, plane),
    and the first two columns of its _jacobian.

    x may be one vector or rows (..., 2) of them, each against its row of
    deltas: residuals (..., 2), Jacobians (..., 2, 2).
    """
    def lift(x: np.ndarray) -> np.ndarray:
        p = np.empty(x.shape[:-1] + (3,))
        p[..., :2] = x
        p[..., 2] = plane
        return p

    def residual(x: np.ndarray) -> np.ndarray:
        return _residuals(lift(x), recv, deltas)

    def jacobian(x: np.ndarray) -> np.ndarray:
        return _jacobian(lift(x), recv)[..., :2]

    return residual, jacobian


class _PlaneRoots(NamedTuple):
    """The closed-form solve of N rows of differences (see _plane_batch)."""

    roots: np.ndarray     # (N, 2, 2) planar points, in candidate order
    norms: np.ndarray     # (N, 2) their residual norms, inf where there is no root
    count: np.ndarray     # (N,) distinct admissible roots, 0 to 2
    starts: np.ndarray    # (N, 2, 2) fallback starts of the rows with no root
    start_ok: np.ndarray  # (N, 2) which of them count


# _plane_batch's work rows are the linearized equations A_0, A_1, the null
# direction n and the minimum-norm point m, each over (x, y, r0). These
# pairs of them give A_0.A_0, A_0.A_1, A_1.A_1, n.n, then n.n, m.n, m.m.
# Each lists the left rows, then the right ones.
_GRAM = np.array([0, 0, 1, 2, 0, 1, 1, 2])
_QUAD = np.array([2, 3, 3, 2, 2, 3])


def _plane_batch(recv: np.ndarray, deltas: np.ndarray, plane: float, diam: float,
                 centroid: tuple[float, float, float]) -> _PlaneRoots:
    """Closed-form intersections of the two branches on the emitter plane
    z = plane, for every row of deltas (N, 2) against one reference-first
    receiver triangle recv (3, 3), of diameter diam and with the _centroid
    of its rows, centroid.

    With u = p - s_0 on the plane and h_k each receiver's height above it,
    squaring |p - s_k| = r0 - d_k against r0 = |p - s_0| leaves
    two equations linear in (u, r0):
        2 e_k . u - 2 d_k r0 = |e_k|^2 + h_k^2 - h_0^2 - d_k^2,
    with e_k the planar offset of receiver k from the reference. Their
    solutions form the line m + t n (minimum-norm m, unit null direction n),
    and |u|^2 + h_0^2 = r0^2 along it is a quadratic in t. Its admissible
    roots (r0 >= 0, r0 >= d_k, within the runaway radius) are ranked by
    solver._rank, the residual-tied ones nearest the receiver centroid
    first, so the first is the estimate; a second root within 1e-6 m of it
    is dropped. A row with no root (the branches do not meet) gets
    Gauss-Newton starts on the line instead, and a rank-deficient row the
    receiver centroid as its one start.

    Each row has the bits of a solve of that row alone, on any CPU (_rowdot).
    """
    rows = len(deltas)
    planar = recv[:, :2]
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = recv.tolist()
    cx, cy, cz = centroid
    ex1, ey1, ex2, ey2 = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    ax, ay, bx, by = 2 * ex1, 2 * ey1, 2 * ex2, 2 * ey2
    h0, h1, h2 = z0 - plane, z1 - plane, z2 - plane
    W = np.empty((rows, 4, 3))
    # A row whose numbers overflow ends NaN or infinite: no admissible root.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # |e_k|^2 + h_k^2 - h_0^2, where h_0^2 is a power, not a product: the
        # two can differ in the last bit.
        h0sq = np.float64(h0) ** 2
        rhs = np.subtract((ex1 * ex1 + ey1 * ey1 + h1 * h1 - h0sq,
                           ex2 * ex2 + ey2 * ey2 + h2 * h2 - h0sq), deltas * deltas)
        W[:, :2, :2] = ((ax, ay), (bx, by))
        dz = W[:, :2, 2]
        np.multiply(deltas, -2.0, out=dz)
        W[:, 2, :2] = dz[:, ::-1] * (ay, bx) - dz * (by, ax)   # A_0 x A_1
        W[:, 2, 2] = ax * by - ay * bx
        pairs = W.take(_GRAM, axis=1)
        g = _rowdot(pairs[:, :4], pairs[:, 4:])
        g00, g01, g11, n_norm = g.T
        n_norm = np.sqrt(n_norm)
        g00g11 = g00 * g11
        rank_def = n_norm <= _RANK_TOL * np.sqrt(g00g11)
        W[:, 2] /= n_norm[:, None]
        # m = A^T (A A^T)^-1 rhs, the solution nearest the origin of (u, r0);
        # g[:, 2::-2] is (g11, g00).
        w = g[:, 2::-2] * rhs - g01[:, None] * rhs[:, ::-1]
        W[:, 3] = (W[:, 0] * w[:, :1] + W[:, 1] * w[:, 1:]) / (g00g11 - g01 * g01)[:, None]
        # a = |n_xy|^2 - n_z^2, b = 2 (m_xy . n_xy - m_z n_z), c = |m_xy|^2 + h_0^2 - m_z^2
        pairs = W.take(_QUAD, axis=1)
        left, right = pairs[:, :3], pairs[:, 3:]
        quad = _rowdot(left[..., :2], right[..., :2])
        quad[:, 2] += h0 * h0
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
        valid = u[..., 2] >= deltas.max(axis=1, initial=0.0)[:, None]
        valid &= _norms(uxy) <= _RUNAWAY_DIAMS * diam
        valid &= ~rank_def[:, None]
        roots = planar[0] + uxy
        roots[~valid] = 0.0  # a slot without a root is never NaN, and ranks last by its norm

        # Ranked by residual norm, the tied ones by distance to the receiver
        # centroid; a second candidate within _DEDUP_TOL of the first is dropped.
        norms = _norms(_closures(recv, deltas[:, None], plane)[0](roots))
        norms[~valid] = np.inf
        gap = np.empty((rows, 2, 3))
        gap[..., :2] = roots - (cx, cy)
        gap[..., 2] = plane - cz
        roots, norms = _rank(roots, norms, _norms(gap))
        count = valid.sum(axis=1)
        count -= (count == 2) & (_norms(roots[:, 1] - roots[:, 0]) < _DEDUP_TOL)

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
            t = np.stack([-b / (2 * a), (2 * c * n[:, 2] - b * m[:, 2]) /
                          (2 * a * m[:, 2] - b * n[:, 2])], axis=1)
            pts = planar[0] + (m[:, None] + t[..., None] * n[:, None])[..., :2]
            ok = np.isfinite(t) & ~rank_def[miss, None]
            alone = ~ok.any(axis=1)
            ok[alone, 0] = True
            pts[alone, 0] = np.where(rank_def[miss][alone, None], (cx, cy),
                                     planar[0] + m[alone, :2])
            starts[miss], start_ok[miss] = pts, ok
    return _PlaneRoots(roots, norms, count, starts, start_ok)


def _fixes(recv: np.ndarray, deltas: np.ndarray, plane: float, dim: int
           ) -> tuple[list, Callable[[int], SolveResult]]:
    """Every row of deltas (N, 2) solved on the plane z = plane against the
    reference-first receivers recv (3, 3), each as a solve of that row alone.

    Returns (closed, fix). closed[k] is (coords, residual_norm) of row k's
    closed-form estimate, its coords those of a dim-D point, or None when the
    row has no root or a non-finite difference. fix(k) returns row k's
    SolveResult, as dim-D points, or raises that solve's error: ValidationError
    for a non-finite difference, GeometryDegenerate for receivers that
    solver._triangle refuses, NoConvergence when the Gauss-Newton fallback of
    a row with no root does not converge. The rows share one _plane_batch,
    and the triangle rule and the receivers' centroid are applied once.
    """
    finite = np.isfinite(deltas).all(axis=1).tolist()
    try:
        diam = _triangle(recv, "receivers")
    except GeometryDegenerate as exc:
        diam, degenerate = None, str(exc)
        closed = [None] * len(deltas)
    else:
        centroid = _centroid(recv.tolist())
        batch = _plane_batch(recv, deltas, plane, diam, centroid)
        closed = [((x, y, plane)[:dim], n) if c and f else None
                  for (x, y), n, c, f in zip(batch.roots[:, 0].tolist(),
                                             batch.norms[:, 0].tolist(),
                                             batch.count.tolist(), finite)]

    def fix(k: int) -> SolveResult:
        if not finite[k]:
            raise ValidationError("non-finite range difference", field="deltas")
        if diam is None:
            raise GeometryDegenerate(degenerate)
        count = int(batch.count[k])
        if not count:
            return _fallback(recv, deltas[k], plane, dim, diam, centroid[:2],
                             batch.starts[k][batch.start_ok[k]])
        cands = tuple(zip([Point.of(*(x, y, plane)[:dim])
                           for x, y in batch.roots[k, :count].tolist()],
                          batch.norms[k].tolist()))
        return SolveResult(estimate=cands[0][0], candidates=cands,
                           residual_norm=cands[0][1], iterations=0, converged=True)

    return closed, fix


def _fallback(recv: np.ndarray, deltas: np.ndarray, plane: float, dim: int, diam: float,
              center: tuple[float, float], starts: np.ndarray) -> SolveResult:
    """One damped Gauss-Newton run from whichever start fits the differences
    better, flagged inconsistent beyond INCONSISTENCY_TOL.

    The hyperbolic objective plateaus toward the branch asymptotes, so the
    residual-change criterion can fire on iterates that ran off to enormous
    coordinates: a run that stops beyond the runaway radius of center, the
    receivers' planar centroid, fails like one that does not converge, with
    NoConvergence carrying its iterate as the best one, or none when it
    overflowed.
    """
    residual, jacobian = _closures(recv, deltas, plane)
    with np.errstate(over="ignore", invalid="ignore"):  # huge differences overflow: no fix
        start = min(starts, key=lambda x: float(_norms(residual(x))))
        x, norm, iters, ok = gauss_newton_raw(residual, jacobian, start)
    ok = ok and float(_norms(x - center)) <= _RUNAWAY_DIAMS * diam
    return _outcome((*x.tolist(), plane)[:dim], norm, iters, ok,
                    "the branches do not meet and the least-squares run did not converge "
                    "to a finite point")


def locate_emitter(receivers: Sequence[Point], rd: RangeDifferenceSet,
                   emitter_plane_z: float = 0.0) -> SolveResult:
    """Locate an emitter from three receivers' two range differences, in
    closed form, in the receivers' dimension.

    Two equations fix two unknowns, so the emitter is pinned to the plane
    z = emitter_plane_z: 3D receivers take any finite plane (default 0, the
    ground-emitter closure), and 2D receivers are lifted to z = 0 and solved
    on that plane, bit for bit as their 3D lift would be, returned as 2D
    points. A free height would leave a one-parameter family of points that
    fit the differences, so a plane that is not a finite number (None and
    bools included), or not 0 for 2D receivers, is a ValidationError.

    The squared range differences are linear in (x, y, r0) up to one
    quadratic (see _plane_batch); each admissible root comes back as a
    candidate, with its residual norm on the unsquared differences
    (deduplicated at 1e-6 m), since the two branches may cross at two points
    that both reproduce the measured differences. When the branches do not
    meet, one damped Gauss-Newton run gives the least-squares point, flagged
    inconsistent when its residual norm exceeds INCONSISTENCY_TOL. It starts
    from whichever of two points on the linearized solution line fits the
    differences better: the quadratic's vertex, or the point minimizing its
    far-field residual. NoConvergence is raised if that run does not
    converge or stops beyond 1e6 triangle diameters, as it does when the
    branches diverge and the least-squares point is at infinity; its best
    iterate then keeps their common bearing.
    """
    if len(receivers) != 3:
        raise ValueError(f"locate_emitter needs exactly 3 receivers, got {len(receivers)}")
    recv, deltas, dim = _ordered_receivers(receivers, rd)
    if len(deltas) != 2:
        raise ValueError("need range differences for exactly 2 receiver pairs")
    plane = emitter_plane_z
    if not _finite_real(plane) or (dim == 2 and plane != 0):
        raise ValidationError(
            f"emitter_plane_z must be a finite number (0 for 2D receivers), got {plane!r}: "
            "three receivers give two range differences, too few for a free emitter height",
            field="emitter_plane_z")
    if dim == 2:
        recv = np.column_stack((recv, np.zeros(3)))
    return _fixes(recv, deltas[None], float(plane), dim)[1](0)
