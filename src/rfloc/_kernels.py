"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation per kernel; `perfbench/run.py` measures their
throughput (`kernels.*_mnodes_per_s`) on the verification lattices.

One routine (`_sum_sq`) evaluates both objectives over coordinate arrays
that broadcast: the columns of (N, D) points, or a lattice block given by
its axes, the row prefixes P (R, D-1) and a piece L (W,) of the last axis.
A block's squared offsets from an anchor are computed once per row
(sum_k (P_k - a_k)^2, R values) and once per column ((L - a_last)^2, W
values) and added as an (R, W) broadcast, not D times per node. Every step
writes into preallocated buffers with in-place ufuncs, so a sweep
allocates no per-node temporaries. Each distance is accumulated as
dx*dx + dy*dy (+ dz*dz), left to right: the order of numpy's row sum
`((points - a) ** 2).sum(axis=1)`, so both layouts are bit-identical to
that formula. The expansion |p|^2 - 2 p.a + |a|^2 is not used: it
cancels, and at 1e3 m coordinates its squared distances are off by up to
about 2e-9 m^2.

GridObjective.bound, a lower bound of the objective over boxes from
interval arithmetic on each residual (Moore 1966), lets grid_search's
branch and bound (Land & Doig 1960) evaluate only the lattice tiles that
can hold the minimum.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridObjective", "sum_sq_range_residuals", "sum_sq_tdoa_residuals"]

# GridObjective.bound shrinks each residual's gap from 0 by this share of the
# distances and target it was formed from: far above the few ulps by which
# the evaluator's rounding can move a node's residual.
_BOUND_SLACK = 1e-9


def _distances(coords, a, out, head, scratch, tail) -> np.ndarray:
    """|p - a| for every node p that coords span, written into out.

    coords[k] holds the nodes' k-th coordinates, D >= 2 of them, and they
    broadcast to out's shape. head and scratch are buffers of the shape the
    first D-1 broadcast to, tail one of the last one's. For points every
    shape is out's: head None writes the sum straight into out, and scratch
    may be tail.
    """
    head = out if head is None else head
    np.subtract(coords[0], a[0], out=head)
    np.multiply(head, head, out=head)
    for k in range(1, len(coords) - 1):
        np.subtract(coords[k], a[k], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(head, scratch, out=head)
    np.subtract(coords[-1], a[-1], out=tail)
    np.multiply(tail, tail, out=tail)
    np.add(head, tail, out=out)
    return np.sqrt(out, out=out)


def _sum_sq(coords, anchors: np.ndarray, targets: np.ndarray, tdoa: bool,
            total: np.ndarray, r: np.ndarray, d_ref: np.ndarray | None, work) -> np.ndarray:
    """The objective at every node that coords span, written into total.

    Range: sum over anchors of (|p - anchor| - target)^2. TDOA: sum over
    k >= 1 of (|p - r0| - |p - rk| - targets[k-1])^2, with r0 = anchors[0]
    and its distances kept in d_ref. total, r (the residual) and d_ref have
    the nodes' shape; work is _distances' (head, scratch, tail). The first
    term is written straight into total: 0.0 + x is x.
    """
    if len(targets) == 0:
        total.fill(0.0)
        return total
    if tdoa:
        _distances(coords, anchors[0], d_ref, *work)
        anchors = anchors[1:]
    for k, (a, t) in enumerate(zip(anchors, targets)):
        res = r if k else total
        _distances(coords, a, res, *work)
        if tdoa:
            np.subtract(d_ref, res, out=res)
        np.subtract(res, t, out=res)
        np.multiply(res, res, out=res)
        if k:
            np.add(total, res, out=total)
    return total


def _on_points(points, anchors: np.ndarray, targets: np.ndarray, tdoa: bool) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    tmp = np.empty(n)
    return _sum_sq([points[:, k] for k in range(points.shape[1])], anchors, targets, tdoa,
                   np.empty(n), np.empty(n), np.empty(n) if tdoa else None, (None, tmp, tmp))


def sum_sq_range_residuals(points: np.ndarray, anchors: np.ndarray,
                           dists: np.ndarray) -> np.ndarray:
    """Sum over anchors of (|p - anchor| - dist)^2 for each row p of points.

    points: (N, D) float64; anchors: (M, D); dists: (M,). Returns (N,).
    """
    return _on_points(points, anchors, dists, tdoa=False)


def sum_sq_tdoa_residuals(points: np.ndarray, receivers: np.ndarray,
                          deltas: np.ndarray) -> np.ndarray:
    """Sum over k >= 1 of (|p - r0| - |p - rk| - deltas[k-1])^2 per row of points.

    receivers[0] is the reference; deltas holds the range differences for the
    remaining receivers in order. Returns (N,).
    """
    return _on_points(points, receivers, deltas, tdoa=True)


def _box_distances(lo: np.ndarray, hi: np.ndarray, a: np.ndarray) -> tuple:
    """The least and greatest |p - a| over each box [lo, hi] (..., D): at the
    box's point nearest a and at its farthest corner. Each axis's offsets
    are differences of the box's bounds and a, and their squares add left to
    right as _distances adds a node's, so the two hold for the computed
    distances of the box's nodes, not only for the exact ones."""
    near = far = None
    for k in range(lo.shape[-1]):
        below, above = lo[..., k] - a[k], hi[..., k] - a[k]
        n = np.maximum(np.maximum(below, -above), 0.0)
        f = np.maximum(-below, above)
        n *= n
        f *= f
        near, far = (n, f) if near is None else (near + n, far + f)
    return np.sqrt(near), np.sqrt(far)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(v * v, axis=-1))


class GridObjective:
    """A sum-of-squared-residuals objective for the grid_search oracles.

    Called on (N, D) points it returns their (N,) values through the point
    kernel, sum_sq_tdoa_residuals if tdoa, else sum_sq_range_residuals.
    lattice() gives grid_search an evaluator of lattice blocks by their axes,
    and bound() a lower bound of the objective over boxes, so that it need
    evaluate only the lattice tiles that can hold the minimum.
    """

    __slots__ = ("anchors", "targets", "tdoa")

    def __init__(self, anchors: np.ndarray, targets: np.ndarray, tdoa: bool):
        self.anchors, self.targets, self.tdoa = anchors, targets, tdoa

    def __call__(self, points: np.ndarray) -> np.ndarray:
        kernel = sum_sq_tdoa_residuals if self.tdoa else sum_sq_range_residuals
        return kernel(points, self.anchors, self.targets)

    def lattice(self):
        """A block evaluator: evaluate(P, L) returns the (R, W) values at the
        nodes (P[i], L[j]) of row prefixes P (R, D-1) and a last-axis piece
        L (W,), bit-identical to calling the objective on those nodes.

        It keeps its node-sized buffers from call to call, since each fresh
        megabyte array costs a page fault per 4 KiB page, so a result holds
        only until the next call.
        """
        flat: list[np.ndarray] = []

        def evaluate(prefixes: np.ndarray, last: np.ndarray) -> np.ndarray:
            shape = (prefixes.shape[0], last.size)
            n = shape[0] * shape[1]
            if not flat or flat[0].size < n:
                flat[:] = [np.empty(n) for _ in range(3)]
            total, r, d_ref = (b[:n].reshape(shape) for b in flat)
            coords = [prefixes[:, k:k + 1] for k in range(prefixes.shape[1])] + [last]
            work = (np.empty((shape[0], 1)), np.empty((shape[0], 1)), np.empty(last.size))
            return _sum_sq(coords, self.anchors, self.targets, self.tdoa, total, r, d_ref, work)

        return evaluate

    def bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """A lower bound of the objective over each box [lo, hi] (..., D).

        Each residual's interval over the box follows from every anchor's
        least and greatest distance (_box_distances): [dmin - t, dmax - t]
        for a range, [dmin_0 - dmax_k - t, dmax_0 - dmin_k - t] for a range
        difference. A range difference is also within L * h of its value
        at the box's center, h the half-diagonal: its gradient u_0 - u_k,
        a difference of unit vectors, has norm at most
        L = min(2, 2 |r_k - r_0| / (dmin_0 + dmin_k)) (Dunkl & Williams
        1964), which narrows the interval where the box is far from both
        receivers. A term is the squared gap between 0 and the interval,
        shrunk first by _BOUND_SLACK times the magnitudes it came from; the
        terms add in the evaluator's order. Every value that lattice() or
        the point kernel computes at a node of the box is NaN or at least
        the bound. The bound is NaN, silently, where the squares overflow:
        the evaluator warns of the node values themselves.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if len(self.targets) == 0:
            return np.zeros(lo.shape[:-1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dists = [_box_distances(lo, hi, a) for a in self.anchors]
            if self.tdoa:
                (near0, far0), dists = dists[0], dists[1:]
                half = (hi - lo) * 0.5
                radius = _norm(half)
                at_center = [_norm(lo - a + half) for a in self.anchors]
            for k, ((near, far), t) in enumerate(zip(dists, self.targets)):
                if self.tdoa:
                    base = float(_norm(self.anchors[k + 1] - self.anchors[0]))
                    reach = np.minimum(2.0, 2.0 * base / (near0 + near)) * radius
                    mid = at_center[0] - at_center[k + 1] - t
                    low = np.maximum(near0 - far - t, mid - reach)
                    high = np.minimum(far0 - near - t, mid + reach)
                    scale = far0 + far + abs(t)
                else:
                    low, high, scale = near - t, far - t, far + abs(t)
                gap = np.maximum(np.maximum(low, -high) - _BOUND_SLACK * scale, 0.0)
                term = gap * gap
                total = term if k == 0 else total + term
        return total
