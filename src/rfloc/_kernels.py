"""Hot numeric kernels: batch objective evaluation for the solvers' oracles.

One numpy implementation per kernel; `perfbench/run.py` measures their
throughput (`kernels.*_mnodes_per_s`) on the verification lattices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sum_sq_range_residuals", "sum_sq_tdoa_residuals"]


def sum_sq_range_residuals(points: np.ndarray, anchors: np.ndarray,
                           dists: np.ndarray) -> np.ndarray:
    """Sum over anchors of (|p - anchor| - dist)^2 for each row p of points.

    points: (N, D) float64; anchors: (M, D); dists: (M,). Returns (N,).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    total = np.zeros(points.shape[0])
    for a, d in zip(anchors, dists):
        r = np.sqrt(((points - a) ** 2).sum(axis=1)) - d
        total += r * r
    return total


def sum_sq_tdoa_residuals(points: np.ndarray, receivers: np.ndarray,
                          deltas: np.ndarray) -> np.ndarray:
    """Sum over k >= 1 of (|p - r0| - |p - rk| - deltas[k-1])^2 per row of points.

    receivers[0] is the reference; deltas holds the range differences for the
    remaining receivers in order. Returns (N,).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    d_ref = np.sqrt(((points - receivers[0]) ** 2).sum(axis=1))
    total = np.zeros(points.shape[0])
    for k in range(1, receivers.shape[0]):
        r = d_ref - np.sqrt(((points - receivers[k]) ** 2).sum(axis=1)) - deltas[k - 1]
        total += r * r
    return total
