"""Shared nonlinear least-squares machinery and brute-force verification oracles.

The iterative solver is a damped Gauss-Newton (Levenberg-style) loop: every
iteration first attempts the pure Gauss-Newton step, and only when that step
is rejected or the normal equations are singular does it fall back to a
damping ladder (damping multiplied by 10 on rejected steps, divided by 10 on
accepted ones). Accepted squared-residual norms never increase.

grid_search is the independent oracle: an exhaustive lattice scan with a
deterministic lexicographic tie-break. It never shares the iterative path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, NoConvergence, ValidationError
from .geometry import Point

__all__ = [
    "SolverOptions",
    "SolveResult",
    "gauss_newton",
    "finite_difference_jacobian",
    "grid_search",
]

_ANCHOR_GUARD = 1e-9   # evaluation this close to an anchor is nudged along +x
_TIE_EPS = 1e-9        # residual norms within this are "tied"
# Separates measurement noise from genuinely consistent data: well above
# solver convergence, far below any meaningful range error.
INCONSISTENCY_TOL = 1e-6
_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
# Nodes per grid_search objective call. A chunk (1-1.5 MiB) and the kernels'
# 0.5 MiB buffers stay near L2 size: on a 2-vCPU Xeon with 2 MiB of L2
# per core, 1 << 16 beat 1 << 18 by 20-30 %.
_GRID_CHUNK = 1 << 16


@dataclass(frozen=True)
class SolverOptions:
    """Tunables for the damped Gauss-Newton loop."""

    max_iterations: int = 100
    step_tolerance: float = 1e-10       # meters
    residual_tolerance: float = 1e-12   # change in squared residual, meters^2
    damping_initial: float = 1e-3

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1", field="max_iterations")
        for name in ("step_tolerance", "residual_tolerance", "damping_initial"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive", field=name)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: primary estimate plus every candidate found.

    candidates are (point, residual_norm) pairs sorted ascending by residual
    norm, then lexicographically by coordinates. The estimate always carries
    the minimal residual norm among them (ties may be broken by op-specific
    conventions, e.g. proximity to the receiver centroid).
    """

    estimate: Point
    candidates: tuple[tuple[Point, float], ...]
    residual_norm: float
    iterations: int
    converged: bool
    flags: frozenset[str] = frozenset()


def order_candidates(cands: Sequence[tuple[Point, float]]) -> tuple[tuple[Point, float], ...]:
    """Sort candidates by residual norm, then lexicographically by coordinates."""
    return tuple(sorted(cands, key=lambda c: (c[1], c[0].x, c[0].y, c[0].z)))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors; np.cross costs more than a closed-form solve itself."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k, through the same matmul loop as `@` on
    two vectors (b may be one vector for all rows). Another summation order
    changes results in the last bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(diff: np.ndarray) -> np.ndarray:
    """np.linalg.norm(diff, axis=-1) without its argument handling: the same
    reduction, so the same bits."""
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _unit_rows(x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Unit vectors from each anchor toward x, nudging x off coincident anchors.

    x is one point (D,) or rows of points (..., D); the result is
    (..., len(anchors), D). Only the rows within _ANCHOR_GUARD of an anchor
    move, along +x.
    """
    diff = x[..., None, :] - anchors
    norms = _norms(diff)
    close = norms < _ANCHOR_GUARD
    if close.any():
        near = close.any(axis=-1)
        nudged = x.copy()
        nudged[..., 0] = np.where(near, x[..., 0] + _ANCHOR_GUARD, x[..., 0])
        diff = nudged[..., None, :] - anchors
        norms = _norms(diff)
    return diff / norms[..., None]


def _solve_step(JtJ: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray | None:
    A = JtJ if lam == 0.0 else JtJ + lam * np.eye(JtJ.shape[0])
    try:
        step = np.linalg.solve(A, -g)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(step).all():
        return None
    return step


def gauss_newton_raw(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    opts: SolverOptions | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Array-level damped Gauss-Newton. Returns (x, residual_norm, iterations, converged).

    Never raises on non-convergence; the returned x is the best accepted
    iterate (the accepted objective is monotone non-increasing, so the last
    accepted iterate is the best).
    """
    opts = opts or SolverOptions()
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    f = float(r @ r)
    lam_memory = opts.damping_initial
    iterations = 0
    converged = False

    for iterations in range(1, opts.max_iterations + 1):
        J = np.asarray(jacobian_fn(x), dtype=float)
        g = J.T @ r
        JtJ = J.T @ J

        # Pure Gauss-Newton first; damping ladder only if it fails.
        accepted = False
        lam = 0.0
        while True:
            step = _solve_step(JtJ, g, lam)
            if step is not None:
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
        if step_norm < opts.step_tolerance or improvement < opts.residual_tolerance:
            converged = True
            break

    return x, math.sqrt(f), iterations, converged


def _as_vector(init) -> np.ndarray:
    if isinstance(init, Point):
        return np.array(init.coords, dtype=float)
    return np.asarray(init, dtype=float).ravel()


def gauss_newton(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    init,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Minimize the squared residual norm from a single starting point.

    residual_fn and jacobian_fn take a coordinate vector of length 2 or 3
    (the solved dimension) and return the residual vector / its Jacobian.
    init may be a Point or an array. Raises NoConvergence (with the best
    iterate attached) when the iteration budget runs out.
    """
    x0 = _as_vector(init)
    x, norm, iterations, converged = gauss_newton_raw(residual_fn, jacobian_fn, x0, opts)
    estimate = Point.from_array(x, dim=len(x))
    result = SolveResult(
        estimate=estimate,
        candidates=((estimate, norm),),
        residual_norm=norm,
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise NoConvergence(
            f"no convergence after {iterations} iterations (residual norm {norm:.3e})",
            best=result,
        )
    return result


def finite_difference_jacobian(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    q,
    h: float,
) -> np.ndarray:
    """Central-difference Jacobian: entry (i, k) = (r_i(q + h e_k) - r_i(q - h e_k)) / 2h."""
    if not h > 0.0:
        raise ValueError("step h must be positive")
    x = _as_vector(q)
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


def grid_search(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    resolution: float,
    node_budget: int = 50_000_000,
) -> tuple[Point, float]:
    """Exhaustive lattice minimization; the independent brute-force oracle.

    objective receives an (N, dim) float64 array of lattice nodes, N at most
    _GRID_CHUNK, and must return the (N,) objective values. The lattice spans
    each (lo, hi) bound at the given resolution, nodes at lo + k * resolution.
    Each chunk holds whole rows of the last axis (a row longer than a chunk is
    split into pieces), in lexicographic order, and is laid out column-major so
    that the kernels' column views are contiguous. Ties go to the
    lexicographically smallest node: the first occurrence within a chunk, and
    strict < across chunks. NaN values are passed over. Raises BudgetExceeded
    when the lattice is larger than node_budget nodes, and ValueError when no
    node has a value below +inf.
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if not bounds:
        raise ValueError("bounds must be non-empty")
    dim = len(bounds)
    if dim not in (2, 3):
        raise ValueError(f"bounds must cover 2 or 3 dimensions, got {dim}")

    los = np.array([float(lo) for lo, _ in bounds])
    his = np.array([float(hi) for _, hi in bounds])
    if np.any(his < los):
        raise ValueError("each bound needs lo <= hi")
    counts = (np.floor((his - los) / resolution + 1e-9) + 1).astype(np.int64)
    total = int(np.prod(counts))
    if total > node_budget:
        raise BudgetExceeded(f"lattice has {total} nodes, budget is {node_budget}")

    axes = [los[k] + np.arange(counts[k]) * resolution for k in range(dim)]
    last = axes[-1]
    n_rows = total // last.size
    rows_per_chunk = max(1, _GRID_CHUNK // last.size)
    width = min(last.size, _GRID_CHUNK)

    best_val = math.inf
    best_node: np.ndarray | None = None
    for r0 in range(0, n_rows, rows_per_chunk):
        rows = np.unravel_index(np.arange(r0, min(r0 + rows_per_chunk, n_rows)),
                                tuple(counts[:-1]))
        for c0 in range(0, last.size, width):
            piece = last[c0:c0 + width]
            block = np.empty((dim, rows[0].size, piece.size))
            for k in range(dim - 1):
                block[k] = axes[k][rows[k], None]
            block[-1] = piece
            points = block.reshape(dim, -1).T
            values = np.asarray(objective(points), dtype=float)
            pos = int(np.argmin(values))  # first occurrence: lexicographic within chunk
            if math.isnan(values[pos]):   # argmin stops at the first NaN
                if np.isnan(values).all():
                    continue
                pos = int(np.nanargmin(values))
            if values[pos] < best_val:    # strict: earlier chunks win ties
                best_val = float(values[pos])
                best_node = points[pos].copy()

    if best_node is None:
        raise ValueError("objective has no finite value on the lattice")
    return Point.from_array(best_node, dim=dim), best_val
