"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation, `GridObjective.evaluate`, which grid_search, a
GridObjective called on points and the point kernels all use. perfbench's
traced `kernels.*` metrics read 0 on oracle_grid: its tracer wraps the
point kernels, which grid_search never calls.

`evaluate` computes both objectives over coordinate columns that
broadcast: the columns of (N, D) points, or blocks of lattice nodes given
per axis, such as (M, 8, 1) and (M, 1, 8) columns for M blocks of 8x8
nodes. A block's squared offsets from an anchor are computed once per
coordinate ((x - a_x)^2, 8 values per block along x) and added as a
broadcast, not D times per node. Each step after the first works in place
on the temporaries of its own call, and every result is a fresh array.
Each distance is accumulated as dx*dx + dy*dy (+ dz*dz), left to right:
the order of numpy's row sum `((points - a) ** 2).sum(axis=1)`, so every
layout is bit-identical to that formula. The expansion
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

import numpy as np

__all__ = ["GridObjective", "sum_sq_range_residuals", "sum_sq_tdoa_residuals"]

# GridObjective.bound shrinks each residual's gap from 0 by this share of the
# distances and target it was formed from: far above the few ulps by which
# evaluate's rounding can move a node's residual.
_BOUND_SLACK = 1e-9


def _distances(coords, a) -> np.ndarray:
    """|p - a| for every node p that coords span: coords[k] holds the nodes'
    k-th coordinates, D >= 2 arrays that broadcast to the nodes' shape."""
    for k, (c, a_k) in enumerate(zip(coords, a)):
        d = c - a_k
        d *= d
        total = d if k == 0 else total + d
    return np.sqrt(total, out=total)


def sum_sq_range_residuals(points: np.ndarray, anchors: np.ndarray,
                           dists: np.ndarray) -> np.ndarray:
    """Sum over anchors of (|p - anchor| - dist)^2 for each row p of (N, D)
    points, anchors (M, D) and dists (M,): (N,) values."""
    return GridObjective(anchors, dists, tdoa=False)(points)


def sum_sq_tdoa_residuals(points: np.ndarray, receivers: np.ndarray,
                          deltas: np.ndarray) -> np.ndarray:
    """Sum over k >= 1 of (|p - r0| - |p - rk| - deltas[k-1])^2 per row p of
    points, with receivers[0] = r0 the reference: (N,) values."""
    return GridObjective(receivers, deltas, tdoa=True)(points)


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

    Called on (N, D) points it returns their (N,) values, evaluated from
    the points' columns. evaluate() gives grid_search the objective at
    nodes given by their coordinate columns, and bound() a lower bound of
    it over boxes given by their per-axis edges, so that it need evaluate
    only the lattice leaves that can hold the minimum.
    """

    __slots__ = ("anchors", "targets", "tdoa")

    def __init__(self, anchors: np.ndarray, targets: np.ndarray, tdoa: bool):
        self.anchors, self.targets, self.tdoa = anchors, targets, tdoa

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(list(np.asarray(points, dtype=np.float64).T))

    def evaluate(self, coords) -> np.ndarray:
        """The objective at every node that coords span, as a fresh array,
        with the same bits for any layout of the same nodes. coords[k] holds
        the nodes' k-th coordinates, D arrays that broadcast to the nodes'
        shape: (N,) columns of points, or (M, 8, 1) and (M, 1, 8) for M
        blocks of 8x8 nodes.

        Range: sum over anchors of (|p - anchor| - target)^2. TDOA: sum
        over k >= 1 of (|p - r0| - |p - rk| - targets[k-1])^2, with
        r0 = anchors[0].
        """
        anchors, targets = self.anchors, self.targets
        if len(targets) == 0:
            return np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))
        if self.tdoa:
            d_ref = _distances(coords, anchors[0])
            anchors = anchors[1:]
        for k, (a, t) in enumerate(zip(anchors, targets)):
            res = _distances(coords, a)
            if self.tdoa:
                np.subtract(d_ref, res, out=res)
            res -= t
            res *= res
            total = res if k == 0 else np.add(total, res, out=total)
        return total

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
        terms add in evaluate's order. Every value that evaluate() or the
        point kernel computes at a node of the box is NaN or at least the
        bound. The bound is NaN, silently, where the squares overflow:
        evaluate warns of the node values themselves.
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
