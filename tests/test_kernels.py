"""The batch objective kernels against direct numpy and the residual functions."""

import numpy as np
import pytest

from rfloc import (
    Point,
    RangeDifferenceSet,
    TrilaterationProblem,
    hyperbolic_objective,
    hyperbolic_residuals,
    trilateration_objective,
    trilateration_residuals,
)
from rfloc import _kernels, solver


def _batch(rng, n=512, dim=3, span=1000.0):
    return rng.uniform(-span, span, size=(n, dim))


def _dists(points, anchors):
    """Distances from each point to each anchor, (N, M), by broadcasting."""
    return np.sqrt(((points[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2))


def test_active_path_matches_numpy_range():
    rng = np.random.default_rng(51)
    for dim in (2, 3):
        points = _batch(rng, dim=dim)
        anchors = rng.uniform(-500, 500, size=(3, dim))
        dists = rng.uniform(0, 800, size=3)
        ref = ((_dists(points, anchors) - dists) ** 2).sum(axis=1)
        got = _kernels.sum_sq_range_residuals(points, anchors, dists)
        assert got == pytest.approx(ref, rel=1e-12)


def test_active_path_matches_numpy_tdoa():
    rng = np.random.default_rng(52)
    for dim in (2, 3):
        points = _batch(rng, dim=dim)
        receivers = rng.uniform(-500, 500, size=(3, dim))
        deltas = rng.uniform(-300, 300, size=2)
        d = _dists(points, receivers)
        ref = ((d[:, :1] - d[:, 1:] - deltas) ** 2).sum(axis=1)
        got = _kernels.sum_sq_tdoa_residuals(points, receivers, deltas)
        assert got == pytest.approx(ref, rel=1e-12)


def test_trilat_objective_matches_residuals():
    problem = TrilaterationProblem(
        (Point.of(0, 0, 0), Point.of(500, 0, 0), Point.of(0, 500, 0)),
        (300.0, 400.0, 500.0), 3)
    objective = trilateration_objective(problem)
    rng = np.random.default_rng(54)
    points = _batch(rng, n=64)
    values = objective(points)
    for row, value in zip(points, values):
        r = trilateration_residuals(problem, Point.of(*row))
        assert value == pytest.approx(float(r @ r), rel=1e-12, abs=1e-12)


def test_tdoa_objective_matches_residuals():
    receivers = (Point.of(0, 0), Point.of(100, 0), Point.of(0, 100))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, -17.0), (2, 12.5)], 3e8)
    objective = hyperbolic_objective(receivers, rd)
    rng = np.random.default_rng(55)
    points = _batch(rng, n=64, dim=2)
    values = objective(points)
    for row, value in zip(points, values):
        r = hyperbolic_residuals(receivers, rd, Point.of(*row))
        assert value == pytest.approx(float(r @ r), rel=1e-12, abs=1e-12)


def _row_sum_range(points, anchors, dists):
    """The range objective with numpy's row sum, on a C-ordered copy of points."""
    points = np.ascontiguousarray(points)
    total = np.zeros(points.shape[0])
    for a, d in zip(anchors, dists):
        r = np.sqrt(((points - a) ** 2).sum(axis=1)) - d
        total += r * r
    return total


def _row_sum_tdoa(points, receivers, deltas):
    """The TDOA objective with numpy's row sum, on a C-ordered copy of points."""
    points = np.ascontiguousarray(points)
    d_ref = np.sqrt(((points - receivers[0]) ** 2).sum(axis=1))
    total = np.zeros(points.shape[0])
    for k in range(1, receivers.shape[0]):
        r = d_ref - np.sqrt(((points - receivers[k]) ** 2).sum(axis=1)) - deltas[k - 1]
        total += r * r
    return total


def _layouts(points):
    return {"C": points, "F": np.asfortranarray(points), "strided": points[::2]}


def _columns(rng, dim):
    """Coordinate columns as grid_search's bounded search passes them to
    GridObjective.evaluate, each with its nodes in order: the center nodes
    of 8 boxes as (8,) columns, then two chunks of C leaves of L nodes per
    axis as (C, L, 1) and (C, 1, L) columns (in 3D (C, L, 1, 1), ...), the
    second larger than the first."""
    leaf = solver._GRID_LEVELS[dim][1]
    axes = [np.sort(rng.uniform(-1000, 1000, 40)) for _ in range(dim)]
    index = [rng.integers(0, 40, 8) for _ in axes]
    out = [([a[i] for a, i in zip(axes, index)],
            np.column_stack([a[i] for a, i in zip(axes, index)]))]
    for count in (3, 11):
        columns = []
        for k, a in enumerate(axes):
            nodes = rng.integers(0, 40 - leaf, count)[:, None] + np.arange(leaf)
            columns.append(a[nodes].reshape((count,) + tuple(leaf if j == k else 1
                                                             for j in range(dim))))
        shape = np.broadcast(*columns).shape
        out.append((columns, np.column_stack([np.broadcast_to(c, shape).ravel()
                                              for c in columns])))
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_range_kernel_bit_identical_to_row_sum(dim):
    rng = np.random.default_rng(56 + dim)
    points = _batch(rng, n=4097, dim=dim)
    anchors = rng.uniform(-500, 500, size=(3, dim))
    dists = rng.uniform(0, 800, size=3)
    for layout, pts in _layouts(points).items():
        got = _kernels.sum_sq_range_residuals(pts, anchors, dists)
        assert np.array_equal(got, _row_sum_range(pts, anchors, dists)), layout
    evaluate = _kernels.GridObjective(anchors, dists, tdoa=False).evaluate
    for columns, nodes in _columns(rng, dim):
        got = evaluate(columns)
        assert got.shape == np.broadcast(*columns).shape
        assert np.array_equal(got.ravel(), _row_sum_range(nodes, anchors, dists))


@pytest.mark.parametrize("dim", [2, 3])
def test_tdoa_kernel_bit_identical_to_row_sum(dim):
    rng = np.random.default_rng(58 + dim)
    points = _batch(rng, n=4097, dim=dim)
    receivers = rng.uniform(-500, 500, size=(4, dim))
    deltas = rng.uniform(-300, 300, size=3)
    for layout, pts in _layouts(points).items():
        got = _kernels.sum_sq_tdoa_residuals(pts, receivers, deltas)
        assert np.array_equal(got, _row_sum_tdoa(pts, receivers, deltas)), layout
    evaluate = _kernels.GridObjective(receivers, deltas, tdoa=True).evaluate
    for columns, nodes in _columns(rng, dim):
        got = evaluate(columns)
        assert got.shape == np.broadcast(*columns).shape
        assert np.array_equal(got.ravel(), _row_sum_tdoa(nodes, receivers, deltas))
