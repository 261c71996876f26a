"""Damped Gauss-Newton, finite differences, and the grid-search oracle."""

import math

import numpy as np
import pytest

from rfloc import (
    Point,
    TrilaterationProblem,
    SolverOptions,
    finite_difference_jacobian,
    gauss_newton,
    grid_search,
    trilateration_objective,
)
from rfloc import solver
from rfloc.errors import BudgetExceeded, NoConvergence, ValidationError


def _linear_residual(x):
    return np.array([x[0] - 3.0, x[1] + 1.0])


def _linear_jacobian(_x):
    return np.eye(2)


def test_linear_residuals_one_shot():
    # A linear system falls to the pure Gauss-Newton step immediately.
    out = gauss_newton(_linear_residual, _linear_jacobian, Point.of(0, 0))
    assert out.iterations <= 2
    assert out.converged
    assert out.estimate.coords == pytest.approx((3.0, -1.0), abs=1e-9)


def test_sphere_residual_along_ray():
    def residual(x):
        return np.array([np.linalg.norm(x) - 5.0])

    def jacobian(x):
        return (x / np.linalg.norm(x)).reshape(1, 3)

    out = gauss_newton(residual, jacobian, Point.of(1, 0, 0))
    assert out.estimate.coords == pytest.approx((5.0, 0.0, 0.0), abs=1e-9)


def test_reference_trilateration_residuals():
    anchors = np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0], [0.0, 500.0, 0.0]])
    dists = np.array([300.0, 400.0, 500.0])

    def residual(x):
        return np.linalg.norm(x - anchors, axis=1) - dists

    def jacobian(x):
        diff = x - anchors
        return diff / np.linalg.norm(diff, axis=1)[:, None]

    init = anchors.mean(axis=0) + 1.0
    out = gauss_newton(residual, jacobian, init)
    expected = (180.0, 90.0, math.sqrt(49500.0))
    assert out.estimate.coords == pytest.approx(expected, abs=1e-6)


def test_init_at_solution_single_iteration():
    out = gauss_newton(_linear_residual, _linear_jacobian, Point.of(3, -1))
    assert out.iterations <= 1
    assert out.residual_norm == 0.0


def test_no_convergence_carries_best_iterate():
    anchors = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    dists = np.array([50.0, 60.0, 70.0])

    def residual(x):
        return np.linalg.norm(x - anchors, axis=1) - dists

    def jacobian(x):
        diff = x - anchors
        return diff / np.linalg.norm(diff, axis=1)[:, None]

    opts = SolverOptions(max_iterations=1)
    with pytest.raises(NoConvergence) as exc:
        gauss_newton(residual, jacobian, np.array([1e4, 1e4]), opts)
    best = exc.value.best
    assert best is not None and not best.converged
    # the accepted iterate already improved on the start
    start_norm = float(np.linalg.norm(residual(np.array([1e4, 1e4]))))
    assert best.residual_norm < start_norm


def test_final_norm_never_exceeds_initial():
    rng = np.random.default_rng(41)
    for _ in range(50):
        anchors = rng.uniform(-100, 100, size=(4, 2))
        dists = rng.uniform(10, 150, size=4)

        def residual(x):
            return np.linalg.norm(x - anchors, axis=1) - dists

        def jacobian(x):
            diff = x - anchors
            norms = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
            return diff / norms[:, None]

        x0 = rng.uniform(-200, 200, size=2)
        start = float(np.linalg.norm(residual(x0)))
        try:
            out = gauss_newton(residual, jacobian, x0)
        except NoConvergence as exc:
            out = exc.best
        assert out.residual_norm <= start + 1e-12


def test_solver_options_validation():
    with pytest.raises(ValidationError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValidationError):
        SolverOptions(step_tolerance=0.0)


def test_fd_jacobian_quadratic():
    def residual(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    J = finite_difference_jacobian(residual, np.array([2.0, 3.0]), h=1e-6)
    assert J == pytest.approx(np.array([[4.0, 0.0], [3.0, 2.0]]), abs=1e-6)


def test_fd_jacobian_linear_exact():
    A = np.array([[2.0, 1.0], [1.0, -3.0]])

    def residual(x):
        return A @ x

    for h in (0.5, 1.0, 2.0):
        J = finite_difference_jacobian(residual, np.array([1.0, 2.0]), h=h)
        assert np.array_equal(J, A)


def test_fd_jacobian_requires_positive_h():
    with pytest.raises(ValueError):
        finite_difference_jacobian(lambda x: x, np.array([1.0, 2.0]), h=0.0)


def test_grid_exact_lattice_minimum():
    target = np.array([180.0, 90.0, 222.0])

    def objective(points):
        return ((points - target) ** 2).sum(axis=1)

    node, value = grid_search(objective, [(170, 190), (80, 100), (212, 232)], 1.0)
    assert node.coords == (180.0, 90.0, 222.0)
    assert value == 0.0


def test_grid_constant_objective_tie_break():
    def objective(points):
        return np.zeros(points.shape[0])

    node, value = grid_search(objective, [(-3, 3), (2, 5)], 1.0)
    assert node.coords == (-3.0, 2.0)  # lexicographically smallest node
    assert value == 0.0


def test_grid_includes_endpoints():
    seen = []

    def objective(points):
        seen.append(points.copy())
        return points[:, 0] + points[:, 1]

    grid_search(objective, [(0, 1), (0, 1)], 0.25)
    nodes = np.vstack(seen)
    assert nodes.shape[0] == 25
    assert nodes[:, 0].max() == 1.0 and nodes[:, 0].min() == 0.0


def test_grid_budget():
    def objective(points):
        return np.zeros(points.shape[0])

    with pytest.raises(BudgetExceeded):
        grid_search(objective, [(0, 1000), (0, 1000)], 0.001, node_budget=10_000)


def test_grid_rejects_bad_inputs():
    obj = lambda pts: np.zeros(pts.shape[0])
    with pytest.raises(ValueError):
        grid_search(obj, [(0, 1), (0, 1)], 0.0)
    with pytest.raises(ValueError):
        grid_search(obj, [], 0.1)
    with pytest.raises(ValueError):
        grid_search(obj, [(1, 0), (0, 1)], 0.1)


@pytest.mark.parametrize("chunk", [7, solver._GRID_CHUNK])
@pytest.mark.parametrize("nan_at", [
    lambda p: (p[:, 0] == 0) & (p[:, 1] == 0),  # one node, the lattice's first
    lambda p: p[:, 0] < 2,                      # whole rows: 7-node chunks all NaN
], ids=["origin", "rows"])
def test_grid_skips_nan_values(monkeypatch, chunk, nan_at):
    monkeypatch.setattr(solver, "_GRID_CHUNK", chunk)

    def objective(points):
        values = (points[:, 0] - 3.0) ** 2 + (points[:, 1] - 4.0) ** 2
        values[nan_at(points)] = np.nan
        return values

    node, value = grid_search(objective, [(0, 10), (0, 10)], 1.0)
    assert node.coords == (3.0, 4.0)
    assert value == 0.0


def test_grid_all_nan_raises():
    with pytest.raises(ValueError, match="no finite value"):
        grid_search(lambda p: np.full(p.shape[0], np.nan), [(0, 10), (0, 10)], 1.0)


def _brute_force(objective, bounds, resolution):
    """First argmin over the whole lattice, built at once in lexicographic order."""
    axes = [lo + np.arange(math.floor((hi - lo) / resolution + 1e-9) + 1) * resolution
            for lo, hi in bounds]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(bounds))
    values = objective(nodes)
    pos = int(np.argmin(values))
    return tuple(float(v) for v in nodes[pos]), float(values[pos]), nodes


def _recording(objective, dim, calls):
    """objective, asserting the chunk contract and keeping every chunk it sees."""
    def wrapped(points):
        assert isinstance(points, np.ndarray) and points.dtype == np.float64
        assert points.ndim == 2 and points.shape[1] == dim
        assert 0 < points.shape[0] <= solver._GRID_CHUNK
        calls.append(points.copy())
        return objective(points)
    return wrapped


_LATTICES = [
    ([(-2.0, 3.0), (1.0, 1.0)], 0.1),                    # degenerate last axis
    ([(0.5, 0.5), (-3.0, 9.0)], 0.05),                   # one row, longer than a chunk
    ([(-1.0, 1.0), (2.0, 2.0), (0.0, 1.5)], 0.1),        # degenerate middle axis
    ([(0.0, 0.3), (-0.2, 0.2), (-5.0, 5.0)], 0.1),       # rows longer than a chunk
]


@pytest.mark.parametrize("chunk", [7, 64, solver._GRID_CHUNK])
@pytest.mark.parametrize("bounds, resolution", _LATTICES)
def test_grid_matches_brute_force(monkeypatch, chunk, bounds, resolution):
    monkeypatch.setattr(solver, "_GRID_CHUNK", chunk)
    dim = len(bounds)
    anchors = (Point.of(0, 0, 0), Point.of(4, 1, 0), Point.of(1, 5, 2))
    problem = TrilaterationProblem(tuple(Point.of(*a.coords[:dim]) for a in anchors),
                                   (3.0, 4.5, 5.0), dim)
    objective = trilateration_objective(problem)
    calls = []
    node, value = grid_search(_recording(objective, dim, calls), bounds, resolution)
    want_node, want_value, nodes = _brute_force(objective, bounds, resolution)
    assert node.coords[:dim] == want_node
    assert value == want_value
    assert np.array_equal(np.vstack(calls), nodes)  # every node once, in order


@pytest.mark.parametrize("bounds, ties", [
    ([(0.0, 9.0), (0.0, 9.0)], [(2.0, 0.0), (1.0, 9.0)]),            # across rows
    ([(0.0, 0.0), (0.0, 99.0)], [(0.0, 25.0), (0.0, 24.0)]),          # inside a split row
    ([(0.0, 2.0), (0.0, 1.0), (0.0, 9.0)], [(1.0, 0.0, 0.0), (0.0, 1.0, 9.0)]),
])
def test_grid_tie_across_chunk_boundary_goes_to_earlier_node(monkeypatch, bounds, ties):
    # 25-node chunks: two 10-node rows, or 25-node pieces of a 100-node row, so
    # each pair of tied nodes sits on either side of a chunk boundary.
    monkeypatch.setattr(solver, "_GRID_CHUNK", 25)
    dim = len(bounds)
    tied = np.array(ties)

    def objective(points):
        hit = (points[:, None, :] == tied[None, :, :]).all(axis=2).any(axis=1)
        return np.where(hit, 0.0, 1.0)

    calls = []
    node, value = grid_search(_recording(objective, dim, calls), bounds, 1.0)
    first = min(ties)
    assert node.coords[:dim] == first and value == 0.0
    assert _brute_force(objective, bounds, 1.0)[0] == first
    starts = np.cumsum([0] + [len(c) for c in calls])
    nodes = np.vstack(calls)
    index = [int(np.flatnonzero((nodes == t).all(axis=1))[0]) for t in sorted(ties)]
    assert any(index[0] < s <= index[1] for s in starts)  # the tie straddles a boundary


def test_grid_long_row_is_split(monkeypatch):
    monkeypatch.setattr(solver, "_GRID_CHUNK", 1000)
    calls = []
    objective = lambda p: (p[:, 1] - 1234.56) ** 2
    bounds = [(0.0, 0.0), (0.0, 2000.0)]
    node, value = grid_search(_recording(objective, 2, calls), bounds, 0.1)
    assert [len(c) for c in calls] == [1000] * 20 + [1]
    want_node, want_value, _ = _brute_force(objective, bounds, 0.1)
    assert node.coords == want_node and value == want_value

