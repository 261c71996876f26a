"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation per kernel; `perfbench/run.py` measures their
throughput (`kernels.*_mnodes_per_s`) on the verification lattices.

One routine (`_sum_sq`) evaluates both objectives over coordinate arrays
that broadcast: the columns of (N, D) points, or a lattice chunk given by
its axes, the row prefixes P (R, D-1) and a piece L (W,) of the last axis.
A chunk's squared offsets from an anchor are computed once per row
(sum_k (P_k - a_k)^2, R values) and once per column ((L - a_last)^2, W
values) and added as an (R, W) broadcast, not D times per node. Every step
writes into preallocated buffers with in-place ufuncs, so a sweep
allocates no per-node temporaries. Each distance is accumulated as
dx*dx + dy*dy (+ dz*dz), left to right: the order of numpy's row sum
`((points - a) ** 2).sum(axis=1)`, so both layouts are bit-identical to
that formula. The expansion |p|^2 - 2 p.a + |a|^2 is not used: it
cancels, and at 1e3 m coordinates its squared distances are off by up to
about 2e-9 m^2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridObjective", "sum_sq_range_residuals", "sum_sq_tdoa_residuals"]


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


class GridObjective:
    """A sum-of-squared-residuals objective for the grid_search oracles.

    Called on (N, D) points it returns their (N,) values through the point
    kernel, sum_sq_tdoa_residuals if tdoa, else sum_sq_range_residuals.
    lattice() gives grid_search an evaluator of lattice chunks by their axes.
    """

    __slots__ = ("anchors", "targets", "tdoa")

    def __init__(self, anchors: np.ndarray, targets: np.ndarray, tdoa: bool):
        self.anchors, self.targets, self.tdoa = anchors, targets, tdoa

    def __call__(self, points: np.ndarray) -> np.ndarray:
        kernel = sum_sq_tdoa_residuals if self.tdoa else sum_sq_range_residuals
        return kernel(points, self.anchors, self.targets)

    def lattice(self):
        """A chunk evaluator: evaluate(P, L) returns the (R, W) values at the
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
