"""Shared nonlinear least-squares machinery and lattice verification oracles.

The iterative solver is a damped Gauss-Newton (Levenberg-style) loop: every
iteration first attempts the pure Gauss-Newton step, and only when that step
is rejected or the normal equations are singular does it fall back to a
damping ladder (damping multiplied by 10 on rejected steps, divided by 10 on
accepted ones). Accepted squared-residual norms never increase.

grid_search is the independent oracle: the exact minimum of a lattice, with
a deterministic lexicographic tie-break. It never shares the iterative path.
Every objective is minimized by one two-level branch and bound: the
lattice's tiles, then the leaves of the tiles that can hold the minimum,
are bounded from below, and only the nodes of the leaves that can hold it
are evaluated. A GridObjective bounds its boxes (GridObjective.bound); any
other callable has no bound, so nothing is pruned and every node is
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import BudgetExceeded, GeometryDegenerate, NoConvergence
from .geometry import Point, _finite_real

__all__ = [
    "SolveResult",
    "finite_difference_jacobian",
    "grid_search",
]

_ANCHOR_GUARD = 1e-9   # evaluation this close to an anchor is nudged along +x
_TIE_EPS = 1e-9        # residual norms within this are "tied"
# Separates measurement noise from genuinely consistent data: well above
# solver convergence, far below any meaningful range error.
INCONSISTENCY_TOL = 1e-6
_MAX_ITERATIONS = 100     # damped Gauss-Newton iterations per run, at most
_STEP_TOL = 1e-10         # meters: a shorter accepted step stops the run
_RESIDUAL_TOL = 1e-12     # meters^2: so does a smaller fall of the squared residual
_DAMPING_INITIAL = 1e-3   # the damping ladder's first rung
_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
# Nodes per evaluate call of grid_search's bounded search (one leaf if a
# leaf holds more), and leaves per bound call: memory stays bounded when
# nothing is pruned.
_GRID_CHUNK = 1 << 16
# grid_search refuses a lattice of more nodes than this before allocating it.
_GRID_BUDGET = 50_000_000
# Nodes per axis of a _bounded_search tile and of its leaves, by dimension.
# Smaller boxes are bounded more tightly but cost more bound terms. On a
# 2-vCPU Xeon the three oracle_grid lattices of ten seeds took 21.8 ms at
# (64, 8) in 2D and (16, 4) in 3D, 22.0 at (64, 16) and (16, 8), 21.4 at
# (128, 16) and (32, 8), 27.9 at (64, 4) and (16, 2), 29.3 at (128, 8) and
# (32, 4), and 33.3 at (32, 8) and (8, 4): sums of medians of 11, the sizes
# alternated call by call. The first three are within noise of each other.
_GRID_LEVELS = {2: (64, 8), 3: (16, 4)}


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: primary estimate plus every candidate found.

    candidates are (point, residual_norm) pairs, the estimate first. A closed
    form ranks its roots by _rank: those tied in norm with the least by the
    solver's convention (nearest the receiver centroid for TDOA, greater z
    for 3D trilateration), then the others by norm; x, then y, break ties.
    """

    estimate: Point
    candidates: tuple[tuple[Point, float], ...]
    residual_norm: float
    iterations: int
    converged: bool
    flags: frozenset[str] = frozenset()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors; np.cross costs more than a closed-form solve itself."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _triangle(points: np.ndarray, what: str) -> float:
    """The diameter (longest side) of the triangle of points (3, D), D = 2 or
    3, in plain floats: the one triangle rule of both closed forms. Raises
    GeometryDegenerate, naming the points what, when the diameter overflows
    float64 or twice the area is at most 1e-12 diameter^2 (in any order)."""
    a, b, c = (p + [0.0] * (3 - len(p)) for p in points.tolist())
    u, v, w = ([q - p for p, q in zip(s, t)] for s, t in ((a, b), (a, c), (b, c)))
    diam = max(math.sqrt(x * x + y * y + z * z) for x, y, z in (u, v, w))
    if diam == math.inf:
        raise GeometryDegenerate(f"the {what}' triangle overflows float64 (a side above "
                                 "about 1.3e154 m)")
    # hypot: twice the area without overflow, and exactly |normal_z| for a
    # triangle on the plane z = 0.
    area2 = math.hypot(u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                       u[0] * v[1] - u[1] * v[0])
    if diam == 0.0 or area2 <= 1e-12 * diam * diam:
        raise GeometryDegenerate(f"{what} are collinear (or coincident)")
    return diam


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] . b[k] for every row k (b may be one vector for all rows): numpy's
    own reduction, not BLAS, so one summation order on every CPU kernel."""
    return np.add.reduce(a * b, axis=-1)


def _norms(diff: np.ndarray) -> np.ndarray:
    """np.linalg.norm(diff, axis=-1): the same reduction, without its overhead."""
    return np.sqrt(_rowdot(diff, diff))


def _rank(roots: np.ndarray, norms: np.ndarray, key: np.ndarray):
    """Each row's roots (N, 2, D) and residual norms (N, 2) in candidate
    order, the estimate first: the roots within _TIE_EPS of the row's least
    norm by the solver's policy key (N, 2), then the others by norm, each
    group then by x, y. The one candidate ranking of the closed forms."""
    tied = norms <= norms.min(axis=1, keepdims=True) + _TIE_EPS
    order = np.lexsort((roots[..., 1], roots[..., 0], np.where(tied, key, norms), ~tied), axis=-1)
    rows = np.arange(len(roots))[:, None]
    return roots[rows, order], norms[rows, order]


def _centroid(rows: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """The mean of rows of finite coordinates, per coordinate: the values
    added to 0.0 left to right, as numpy adds rows, and divided by their
    count, so the bits of np.mean(rows, axis=0); where that sum overflows,
    the values divided by their count, then added, so it stays finite and
    within the values' range. Plain Python: on a few rows numpy's call
    overhead costs more than the arithmetic."""
    n = len(rows)
    out = []
    for values in zip(*rows):
        total = 0.0
        for v in values:
            total += v
        if math.isfinite(total):
            out.append(total / n)
            continue
        total = 0.0
        for v in values:
            total += v / n
        out.append(min(max(total, min(values)), max(values)))  # rounding may step past them
    return tuple(out)


def _unit_rows(x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Unit vectors from each anchor toward x, nudging x off coincident anchors.

    x is one point (D,) or rows of points (..., D); the result is
    (..., len(anchors), D). Only the rows within _ANCHOR_GUARD of an anchor
    move, along +x.
    """
    diff = x[..., None, :] - anchors
    norms = _norms(diff)
    close = norms < _ANCHOR_GUARD
    if np.count_nonzero(close):  # close.any(), without its Python wrapper
        near = close.any(axis=-1)
        nudged = x.copy()
        nudged[..., 0] = np.where(near, x[..., 0] + _ANCHOR_GUARD, x[..., 0])
        diff = nudged[..., None, :] - anchors
        norms = _norms(diff)
    return diff / norms[..., None]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for one (k, k) system; NaN where a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def gauss_newton_raw(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, float, int, bool]:
    """Array-level damped Gauss-Newton. Returns (x, residual_norm, iterations, converged).

    Never raises on non-convergence; the returned x is the best accepted
    iterate (the accepted objective is monotone non-increasing, so the last
    accepted iterate is the best).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    f = float(r @ r)
    lam_memory = _DAMPING_INITIAL
    iterations = 0
    converged = False

    for iterations in range(1, _MAX_ITERATIONS + 1):
        J = np.asarray(jacobian_fn(x), dtype=float)
        Jt = J.T
        minus_g = -(Jt @ r)
        JtJ = Jt @ J

        # Pure Gauss-Newton first; damping ladder only if it fails.
        accepted = False
        lam = 0.0
        while True:
            A = JtJ if lam == 0.0 else JtJ + lam * np.eye(len(JtJ))
            step = _solve(A, minus_g)
            # A singular rung leaves NaN: np.isfinite(step).all(), on floats.
            if all(map(math.isfinite, step.tolist())):
                x_new = x + step
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                f_new = float(r_new @ r_new)
                if math.isfinite(f_new) and f_new <= f:
                    accepted = True
                    break
            lam = lam_memory if lam == 0.0 else lam * 10.0
            if lam > _DAMPING_MAX:
                break
        if not accepted:
            break
        lam_memory = max((lam_memory if lam == 0.0 else lam) / 10.0, _DAMPING_MIN)

        step_norm = math.sqrt(step @ step)  # np.linalg.norm(step), without its overhead
        improvement = f - f_new
        x, r, f = x_new, r_new, f_new
        if step_norm < _STEP_TOL or improvement < _RESIDUAL_TOL:
            converged = True
            break

    return x, math.sqrt(f), iterations, converged


def _outcome(coords, norm: float, iterations: int, converged: bool,
             failure: str) -> SolveResult:
    """The SolveResult of a gauss_newton_raw run ending at coords, its one candidate,
    flagged inconsistent beyond INCONSISTENCY_TOL. A run that did not converge raises
    NoConvergence with it and failure.format(iterations=..., norm=...); one whose
    coordinates or residual norm are not finite raises it without a best iterate."""
    message = failure.format(iterations=iterations, norm=norm)
    if not all(map(math.isfinite, coords)):
        raise NoConvergence(f"{message}; the iterate is not finite")
    if not math.isfinite(norm):
        raise NoConvergence(f"{message}; the residual norm is not finite")
    estimate = Point.of(*coords)
    flags = frozenset({"inconsistent"} if norm > INCONSISTENCY_TOL else ())
    result = SolveResult(estimate=estimate, candidates=((estimate, norm),), residual_norm=norm,
                         iterations=iterations, converged=converged, flags=flags)
    if not converged:
        raise NoConvergence(message, best=result)
    return result


def finite_difference_jacobian(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    q,
    h: float,
) -> np.ndarray:
    """Central-difference Jacobian: entry (i, k) = (r_i(q + h e_k) - r_i(q - h e_k)) / 2h."""
    if not (_finite_real(h) and h > 0.0):
        raise ValueError(f"step h must be a positive finite number, got {h!r}")
    x = np.array(q.coords) if isinstance(q, Point) else np.asarray(q, dtype=float).ravel()
    n = len(x)
    base = np.asarray(residual_fn(x), dtype=float)
    J = np.empty((base.size, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        hi = np.asarray(residual_fn(x + e), dtype=float)
        lo = np.asarray(residual_fn(x - e), dtype=float)
        J[:, k] = (hi - lo) / (2.0 * h)
    return J


def _along(k: int, dim: int, count: int, size: int) -> tuple:
    """The shape (count, 1, ..., size, ..., 1) of count columns of size values
    along axis k of a dim-dimensional lattice."""
    return (count,) + tuple(size if j == k else 1 for j in range(dim))


def _points(objective: Callable[[np.ndarray], np.ndarray]):
    """An evaluator of a plain objective, called as GridObjective.evaluate
    is: it gathers the coordinate columns of the nodes into one (N, D)
    float64 array, column-major so that its column views are contiguous,
    and reshapes the objective's (N,) values to the nodes' shape."""
    def evaluate(coords) -> np.ndarray:
        points = np.stack(np.broadcast_arrays(*coords))
        return np.asarray(objective(points.reshape(len(coords), -1).T),
                          dtype=float).reshape(points.shape[1:])
    return evaluate


def _no_bound(lo, hi) -> np.ndarray:
    """The bound of a plain objective: -inf on every box, so none is pruned."""
    return np.full(np.broadcast_shapes(*(np.shape(v) for v in lo + hi)), -math.inf)


def _prune(evaluate, bound, axes: list[np.ndarray], firsts: list[np.ndarray], size: int,
           cut: float):
    """One level of _bounded_search: M products of boxes of `size` nodes per
    axis, firsts[k] (M, R_k) the first node index along axis k of each box.

    Bounds every box in one bound call, from (M, R_0, 1) and (M, 1, R_1)
    edge columns, and lowers cut to the least value, NaN passed over, at the
    center nodes of the 8 boxes of least bound. Returns the cut and the
    first node indices (per axis, flat) of the boxes bounded at or below it,
    a NaN bound counting as -inf. Boxes are cut short at the lattice's end;
    one that starts past the end repeats the last box, and is never kept.
    """
    shapes = [_along(k, len(axes), *f.shape) for k, f in enumerate(firsts)]
    inside = [f < a.size for f, a in zip(firsts, axes)]
    firsts = [np.minimum(f, (a.size - 1) // size * size) for f, a in zip(firsts, axes)]
    lasts = [np.minimum(f + size, a.size) - 1 for f, a in zip(firsts, axes)]
    bounds = bound([a[f].reshape(s) for a, f, s in zip(axes, firsts, shapes)],
                   [a[l].reshape(s) for a, l, s in zip(axes, lasts, shapes)])
    bounds = np.where(np.isnan(bounds), -math.inf, bounds)
    pick = np.unravel_index(np.argpartition(bounds.ravel(), min(7, bounds.size - 1))[:8],
                            bounds.shape)
    centers = [(f + l) // 2 for f, l in zip(firsts, lasts)]
    values = evaluate([a[c[pick[0], pick[k + 1]]] for k, (a, c) in enumerate(zip(axes, centers))])
    least = float(np.fmin.reduce(values))  # NaN only if every value is
    cut = min(cut, least) if least == least else cut
    keep = bounds <= cut
    for valid, s in zip(inside, shapes):
        keep &= valid.reshape(s)
    kept = np.nonzero(keep)
    return cut, [f[kept[0], kept[k + 1]] for k, f in enumerate(firsts)]


def _bounded_search(evaluate, bound, axes: list[np.ndarray]):
    """The least value on the lattice of axes and its node index, (inf, None)
    if no node has a value below +inf. evaluate(coords) gives the values at
    the nodes that coordinate columns span, as GridObjective.evaluate does,
    and bound(lo, hi) a lower bound of them over each box given by its
    per-axis edges, as GridObjective.bound does.

    A two-level branch and bound, each step one array pass (_prune). The
    lattice is cut into tiles of _GRID_LEVELS[dim][0] nodes per axis, and
    every tile's bound over the box its nodes span is computed at once.
    The least value at the center nodes of the 8 tiles of least bound is a
    lattice value, so no less than the minimum: only the tiles bounded at
    or below it can hold the minimum or a tie. Those tiles are split
    into leaves of _GRID_LEVELS[dim][1] nodes per axis, their leaves are
    bounded at once (in groups of at most _GRID_CHUNK leaves), the cut is
    lowered by the center nodes of the 8 leaves of least bound and by the
    best value found, and the nodes of the leaves bounded at or below it
    are evaluated, gathered as coordinate columns, at most _GRID_CHUNK
    nodes (or one leaf) per evaluate call; on an axis of fewer nodes than a
    leaf, a leaf holds only the axis's nodes. Each call's least value, NaN
    passed over, is np.fmin.reduce's, as in _prune. A box holding a node of
    value v has a bound no greater than v, so every node of the least value
    is evaluated, and the smallest lexicographic index among them wins.
    """
    dim = len(axes)
    tile, leaf = _GRID_LEVELS[dim]
    counts = [a.size for a in axes]
    cut, tiles = _prune(evaluate, bound, axes, [np.arange(0, n, tile)[None] for n in counts],
                        tile, math.inf)
    best_val, best_flat = math.inf, None
    # Kept tiles are split in groups of at most _GRID_CHUNK leaves, and the
    # kept leaves' nodes evaluated `chunk` leaves per call, as (C, L, 1) and
    # (C, 1, L) columns for C leaves of L x L nodes, so that memory stays
    # bounded when nothing is pruned. A leaf spans at most the axis's nodes;
    # one cut short by the lattice's end repeats its last node. The best
    # value found is a lattice value, so it cuts later groups too.
    group = max(1, _GRID_CHUNK // (tile // leaf) ** dim)
    chunk = max(1, _GRID_CHUNK // leaf ** dim)
    offsets = [np.arange(min(leaf, n)) for n in counts]
    for g in range(0, len(tiles[0]), group):
        cut, leaves = _prune(evaluate, bound, axes,
                             [t[g:g + group, None] + np.arange(0, tile, leaf) for t in tiles],
                             leaf, min(cut, best_val))
        for c in range(0, len(leaves[0]), chunk):
            nodes = [np.minimum(f[c:c + chunk, None] + o, n - 1)
                     for f, o, n in zip(leaves, offsets, counts)]
            values = evaluate([a[i].reshape(_along(k, dim, *i.shape))
                               for k, (a, i) in enumerate(zip(axes, nodes))])
            value = float(np.fmin.reduce(values.ravel()))  # NaN only if every value is
            if not value < math.inf or value > best_val:  # NaN or +inf records nothing
                continue
            tied = np.unravel_index(np.flatnonzero(values == value), values.shape)
            flat = int(np.ravel_multi_index([i[tied[0], tied[k + 1]] for k, i in enumerate(nodes)],
                                            counts).min())
            if value < best_val or flat < best_flat:
                best_val, best_flat = value, flat
    if best_flat is None:
        return best_val, None
    return best_val, tuple(int(i) for i in np.unravel_index(best_flat, counts))


def grid_search(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    resolution: float,
) -> tuple[Point, float]:
    """Exact lattice minimization; the independent verification oracle.

    The lattice spans each (lo, hi) bound at the given resolution, nodes at
    lo + k * resolution. It returns the node of least value, the
    lexicographically smallest among equal values; NaN values are passed
    over. Node values are computed elementwise, so the result is the same,
    bit for bit, whichever nodes share a call.

    Every objective takes one exact two-level branch and bound
    (_bounded_search), which evaluates only the nodes of the lattice's
    leaves bounded at or below a lattice value. A GridObjective (the
    objective of trilateration_objective and hyperbolic_objective) is
    bounded by GridObjective.bound and evaluated by GridObjective.evaluate
    from the nodes' coordinate columns. Any other objective has no bound,
    so every node is evaluated: it receives nodes as an (N, dim) float64
    array, column-major so that its column views are contiguous, and must
    return their (N,) values. The nodes come in no fixed order, a node may
    come more than once, and a call holds at most _GRID_CHUNK nodes, or one
    leaf (at most 64 nodes) if that is more.

    Raises ValueError on a resolution or bound that is not a finite real
    number other than a bool, and when no node has a value below +inf;
    BudgetExceeded, before anything is allocated, when the lattice is
    larger than _GRID_BUDGET nodes.
    """
    if not (_finite_real(resolution) and resolution > 0.0):
        raise ValueError("resolution must be a positive finite real number")
    if not bounds:
        raise ValueError("bounds must be non-empty")
    dim = len(bounds)
    if dim not in (2, 3):
        raise ValueError(f"bounds must cover 2 or 3 dimensions, got {dim}")

    los = [lo for lo, _ in bounds]
    his = [hi for _, hi in bounds]
    if not all(map(_finite_real, los + his)):
        raise ValueError("bounds must be finite real numbers")
    los, his = [float(lo) for lo in los], [float(hi) for hi in his]
    if any(hi < lo for lo, hi in zip(los, his)):
        raise ValueError("each bound needs lo <= hi")
    # Python ints: an int64 product can wrap below the budget. A span that
    # overflows the float range has more nodes than any budget.
    spans = [(hi - lo) / resolution + 1e-9 for lo, hi in zip(los, his)]
    counts = [math.floor(s) + 1 if math.isfinite(s) else math.inf for s in spans]
    total = math.prod(counts)
    if total > _GRID_BUDGET:
        raise BudgetExceeded(f"lattice has {total} nodes, budget is {_GRID_BUDGET}")

    axes = [los[k] + np.arange(counts[k]) * resolution for k in range(dim)]
    if isinstance(objective, _kernels.GridObjective):
        best_val, best_index = _bounded_search(objective.evaluate, objective.bound, axes)
    else:
        best_val, best_index = _bounded_search(_points(objective), _no_bound, axes)
    if best_index is None:
        raise ValueError("objective has no finite value on the lattice")
    return Point.of(*(float(a[i]) for a, i in zip(axes, best_index))), best_val
