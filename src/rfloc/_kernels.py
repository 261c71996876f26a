"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation per kernel; `perfbench/run.py` measures their
throughput (`kernels.*_mnodes_per_s`) on the verification lattices.

One routine (`_sum_sq`) evaluates both objectives over coordinate columns
that broadcast: the columns of (N, D) points, or blocks of lattice nodes
given per axis, such as (M, 8, 1) and (M, 1, 8) columns for M blocks of
8x8 nodes. A block's squared offsets from an anchor are computed once per
coordinate ((x - a_x)^2, 8 values per block along x) and added as a
broadcast, not D times per node. Every step writes into preallocated
buffers with in-place ufuncs, so a sweep allocates no per-node
temporaries. Each distance is accumulated as dx*dx + dy*dy (+ dz*dz), left
to right: the order of numpy's row sum `((points - a) ** 2).sum(axis=1)`,
so every layout is bit-identical to that formula. The expansion
|p|^2 - 2 p.a + |a|^2 is not used: it cancels, and at 1e3 m coordinates
its squared distances are off by up to about 2e-9 m^2.

GridObjective.bound, a lower bound of the objective over boxes from
interval arithmetic on each residual (Moore 1966), lets grid_search's
branch and bound (Land & Doig 1960) evaluate only the lattice leaves that
can hold the minimum. It takes the boxes' edges per axis too, so that a
product of intervals, such as a lattice's tiles, costs one term per
interval and axis, not one per box.
"""

from __future__ import annotations

import math

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


def _squares(lo, hi, columns: np.ndarray) -> tuple:
    """Per axis k, the squared least and greatest |p_k - a_k| over the boxes'
    edges lo[k], hi[k] (see GridObjective.bound): at the box's point nearest
    a and at its farthest corner. columns[k] holds the anchors' k-th
    coordinates along a leading axis, (A, 1, ..., 1), so each result has
    one row per anchor, and only the edges are visited, not the boxes."""
    near, far = [], []
    for low, high, a in zip(lo, hi, columns):
        below, above = low - a, high - a
        n = np.maximum(np.maximum(below, -above), 0.0)
        f = np.maximum(-below, above)
        n *= n
        f *= f
        near.append(n)
        far.append(f)
    return near, far


def _root(squares) -> np.ndarray:
    """sqrt of the sum of squares, one per axis, added left to right as
    _distances adds a node's squared offsets."""
    total = squares[0]
    for square in squares[1:]:
        total = total + square
    return np.sqrt(total)


class GridObjective:
    """A sum-of-squared-residuals objective for the grid_search oracles.

    Called on (N, D) points it returns their (N,) values through the point
    kernel, sum_sq_tdoa_residuals if tdoa, else sum_sq_range_residuals.
    evaluator() gives grid_search an evaluator of nodes by their coordinate
    columns, and bound() a lower bound of the objective over boxes given by
    their per-axis edges, so that it need evaluate only the lattice leaves
    that can hold the minimum.
    """

    __slots__ = ("anchors", "targets", "tdoa")

    def __init__(self, anchors: np.ndarray, targets: np.ndarray, tdoa: bool):
        self.anchors, self.targets, self.tdoa = anchors, targets, tdoa

    def __call__(self, points: np.ndarray) -> np.ndarray:
        kernel = sum_sq_tdoa_residuals if self.tdoa else sum_sq_range_residuals
        return kernel(points, self.anchors, self.targets)

    def evaluator(self):
        """A node evaluator: evaluate(coords) returns the objective at every
        node that coords span, bit-identical to calling the objective on
        those nodes. coords[k] holds the nodes' k-th coordinates, D arrays
        that broadcast to the nodes' shape: (N,) columns of points, or
        (M, 8, 1) and (M, 1, 8) for M blocks of 8x8 nodes, whose squared
        offsets from an anchor are then computed once per distinct
        coordinate and added as a broadcast.

        It keeps its buffers from call to call, since each fresh megabyte
        array costs a page fault per 4 KiB page, so a result holds only
        until the next call.
        """
        pool: dict[str, np.ndarray] = {}

        def buffer(name: str, shape: tuple) -> np.ndarray:
            n = math.prod(shape)
            if name not in pool or pool[name].size < n:
                pool[name] = np.empty(n)
            return pool[name][:n].reshape(shape)

        def evaluate(coords) -> np.ndarray:
            head = np.broadcast(*coords[:-1]).shape
            shape = np.broadcast(*coords).shape
            work = (buffer("head", head), buffer("scratch", head),
                    buffer("tail", np.shape(coords[-1])))
            return _sum_sq(coords, self.anchors, self.targets, self.tdoa, buffer("total", shape),
                           buffer("r", shape), buffer("d_ref", shape) if self.tdoa else None, work)

        return evaluate

    def bound(self, lo, hi) -> np.ndarray:
        """A lower bound of the objective over each box [lo, hi].

        lo and hi hold the boxes' per-axis edges: lo[k] and hi[k] are the
        least and greatest k-th coordinates, D arrays (or numbers) that
        broadcast together, and the result has their broadcast shape. A
        product of intervals, such as a lattice's tiles, is given by
        (T0, 1) and (1, T1) edges, so each axis's terms are computed once
        per interval, not once per box.

        Each residual's interval over the box follows from every anchor's
        least and greatest distance (_squares): [dmin - t, dmax - t]
        for a range, [dmin_0 - dmax_k - t, dmax_0 - dmin_k - t] for a range
        difference. A range difference is also within L * h of its value
        at the box's center, h the half-diagonal: its gradient u_0 - u_k,
        a difference of unit vectors, has norm at most
        L = min(2, 2 |r_k - r_0| / (dmin_0 + dmin_k)) (Dunkl & Williams
        1964), which narrows the interval where the box is far from both
        receivers. A term is the squared gap between 0 and the interval,
        shrunk first by _BOUND_SLACK times the magnitudes it came from; the
        terms add in the evaluator's order. Every value that evaluator() or
        the point kernel computes at a node of the box is NaN or at least
        the bound. The bound is NaN, silently, where the squares overflow:
        the evaluator warns of the node values themselves.
        """
        lo = [np.asarray(v, dtype=float) for v in lo]
        hi = [np.asarray(v, dtype=float) for v in hi]
        if len(self.targets) == 0:
            return np.zeros(np.broadcast_shapes(*(v.shape for v in lo + hi)))
        # The anchors' coordinates along a leading axis: each step below
        # treats every anchor at once, and [j] takes out anchor j's row.
        ndim = max(v.ndim for v in lo + hi)
        columns = self.anchors.T.reshape(self.anchors.shape[1], -1, *(1,) * ndim)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            near, far = _squares(lo, hi, columns)
            rows = range(len(self.anchors))
            if self.tdoa:
                half = [(h - l) * 0.5 for l, h in zip(lo, hi)]
                radius = _root([h * h for h in half])
                offsets = [l - a + h for l, a, h in zip(lo, columns, half)]
                center = [c * c for c in offsets]
                near0, far0 = _root([n[0] for n in near]), _root([f[0] for f in far])
                center0 = _root([c[0] for c in center])
                rows = rows[1:]
            for k, (j, t) in enumerate(zip(rows, self.targets)):
                dmin, dmax = _root([n[j] for n in near]), _root([f[j] for f in far])
                if self.tdoa:
                    base = float(_root([d * d for d in self.anchors[j] - self.anchors[0]]))
                    reach = np.minimum(2.0, 2.0 * base / (near0 + dmin)) * radius
                    mid = center0 - _root([c[j] for c in center]) - t
                    low = np.maximum(near0 - dmax - t, mid - reach)
                    high = np.minimum(far0 - dmin - t, mid + reach)
                    scale = far0 + dmax + abs(t)
                else:
                    low, high, scale = dmin - t, dmax - t, dmax + abs(t)
                gap = np.maximum(np.maximum(low, -high) - _BOUND_SLACK * scale, 0.0)
                term = gap * gap
                total = term if k == 0 else total + term
        return total
