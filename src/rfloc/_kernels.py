"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation per kernel; `perfbench/run.py` measures their
throughput (`kernels.*_mnodes_per_s`) on the verification lattices.

Both kernels work on the columns of points with in-place ufuncs into
preallocated buffers, so a sweep allocates no (N, D) temporaries. Each
distance is accumulated as dx*dx + dy*dy (+ dz*dz), left to right: the
order of numpy's row sum `((points - a) ** 2).sum(axis=1)`, so the output
is bit-identical to that formula. The expansion |p|^2 - 2 p.a + |a|^2 is
not used: it cancels, and at 1e3 m coordinates its squared distances are
off by up to about 2e-9 m^2.
Column views are contiguous when points is column-major, as in
`solver.grid_search`; any other layout gives the same bits, more slowly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sum_sq_range_residuals", "sum_sq_tdoa_residuals"]


def _distances(points: np.ndarray, a, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|p - a| for every row p of points, written into out (tmp is a work buffer)."""
    np.subtract(points[:, 0], a[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, points.shape[1]):
        np.subtract(points[:, k], a[k], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def sum_sq_range_residuals(points: np.ndarray, anchors: np.ndarray,
                           dists: np.ndarray) -> np.ndarray:
    """Sum over anchors of (|p - anchor| - dist)^2 for each row p of points.

    points: (N, D) float64; anchors: (M, D); dists: (M,). Returns (N,).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    total = np.zeros(n)
    r = np.empty(n)
    tmp = np.empty(n)
    for a, d in zip(anchors, dists):
        _distances(points, a, r, tmp)
        np.subtract(r, d, out=r)
        np.multiply(r, r, out=r)
        np.add(total, r, out=total)
    return total


def sum_sq_tdoa_residuals(points: np.ndarray, receivers: np.ndarray,
                          deltas: np.ndarray) -> np.ndarray:
    """Sum over k >= 1 of (|p - r0| - |p - rk| - deltas[k-1])^2 per row of points.

    receivers[0] is the reference; deltas holds the range differences for the
    remaining receivers in order. Returns (N,).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    total = np.zeros(n)
    r = np.empty(n)
    tmp = np.empty(n)
    d_ref = _distances(points, receivers[0], np.empty(n), tmp)
    for k in range(1, receivers.shape[0]):
        _distances(points, receivers[k], r, tmp)
        np.subtract(d_ref, r, out=r)
        np.subtract(r, deltas[k - 1], out=r)
        np.multiply(r, r, out=r)
        np.add(total, r, out=total)
    return total
