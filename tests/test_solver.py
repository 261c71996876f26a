"""Damped Gauss-Newton, finite differences, and the grid-search oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_grid_scan

from rfloc import (
    Point,
    RangeDifferenceSet,
    TrilaterationProblem,
    distance,
    finite_difference_jacobian,
    grid_search,
    hyperbolic_objective,
    trilaterate_lsq,
    trilateration_objective,
    trilateration_residuals,
)
from rfloc import _kernels, solver, tdoa, trilat
from rfloc.errors import BudgetExceeded, NoConvergence


def _linear_residual(x):
    return np.array([x[0] - 3.0, x[1] + 1.0])


def _linear_jacobian(_x):
    return np.eye(2)


def test_linear_residuals_one_shot():
    # A linear system falls to the pure Gauss-Newton step immediately.
    x, _, iterations, converged = solver.gauss_newton_raw(
        _linear_residual, _linear_jacobian, np.array([0.0, 0.0]))
    assert iterations <= 2
    assert converged
    assert tuple(x) == pytest.approx((3.0, -1.0), abs=1e-9)


def test_sphere_residual_along_ray():
    def residual(x):
        return np.array([np.linalg.norm(x) - 5.0])

    def jacobian(x):
        return (x / np.linalg.norm(x)).reshape(1, 3)

    x = solver.gauss_newton_raw(residual, jacobian, np.array([1.0, 0.0, 0.0]))[0]
    assert tuple(x) == pytest.approx((5.0, 0.0, 0.0), abs=1e-9)


def test_reference_trilateration_residuals():
    anchors = np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0], [0.0, 500.0, 0.0]])
    dists = np.array([300.0, 400.0, 500.0])

    def residual(x):
        return np.linalg.norm(x - anchors, axis=1) - dists

    def jacobian(x):
        diff = x - anchors
        return diff / np.linalg.norm(diff, axis=1)[:, None]

    init = anchors.mean(axis=0) + 1.0
    x = solver.gauss_newton_raw(residual, jacobian, init)[0]
    expected = (180.0, 90.0, math.sqrt(49500.0))
    assert tuple(x) == pytest.approx(expected, abs=1e-6)


def test_init_at_solution_single_iteration():
    _, norm, iterations, _ = solver.gauss_newton_raw(
        _linear_residual, _linear_jacobian, np.array([3.0, -1.0]))
    assert iterations <= 1
    assert norm == 0.0


def test_no_convergence_carries_best_iterate(monkeypatch):
    problem = TrilaterationProblem((Point.of(0, 0), Point.of(100, 0), Point.of(0, 100)),
                                   (50.0, 60.0, 70.0), 2)
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence) as exc:
        trilaterate_lsq(problem, np.array([1e4, 1e4]))
    best = exc.value.best
    assert best is not None and not best.converged
    # the accepted iterate already improved on the start
    start_norm = float(np.linalg.norm(trilateration_residuals(problem, Point.of(1e4, 1e4))))
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
        norm = solver.gauss_newton_raw(residual, jacobian, x0)[1]
        assert norm <= start + 1e-12


def test_singular_normal_equations_take_the_damping_ladder():
    # r(x) = [x.x - 25] from (1, 0): J^T J = 4 x x^T is singular at every
    # iterate, so the pure Gauss-Newton rung of each iteration is a NaN step
    # from the stacked solve, rejected like the damped rungs that fail.
    x, norm, iterations, converged = solver.gauss_newton_raw(
        lambda x: np.array([x @ x - 25.0]), lambda x: 2.0 * x[None, :], np.array([1.0, 0.0]))
    assert (x.tolist(), iterations, converged) == ([5.000000000000126, 0.0], 5, True)
    assert norm < 1e-11


def test_solve_gives_nan_for_a_singular_system():
    # np.linalg.solve raises on a singular matrix; _solve gives NaN instead,
    # and a regular system the bits of np.linalg.solve.
    b = np.array([3.0, 4.0])
    assert np.isnan(solver._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), b)).all()
    for a in ([[2.0, 1.0], [1.0, 3.0]], [[4.0, 1.0], [0.5, 2.0]]):
        a = np.array(a)
        assert solver._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.lists(
    st.lists(_FINITE, min_size=dim, max_size=dim), min_size=1, max_size=8)))
def test_centroid_is_numpys_mean_or_a_finite_mean(rows):
    # Where a coordinate's sum is finite, np.mean's bits; where it overflows,
    # a finite value within that coordinate's range.
    got = solver._centroid(rows)
    array = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        sums, means = np.add.reduce(array, axis=0), np.mean(array, axis=0)
    assert len(got) == array.shape[1]
    for value, total, mean, column in zip(got, sums, means, array.T):
        if math.isfinite(total):
            assert np.float64(value).tobytes() == mean.tobytes()
        else:
            assert math.isfinite(value) and column.min() <= value <= column.max()


def _nudged(rows: np.ndarray) -> np.ndarray:
    """rows, then rows with their first column moved up by one ulp."""
    nudged = rows.copy()
    nudged[:, 0] = np.nextafter(nudged[:, 0], math.inf)
    return np.concatenate([rows, nudged])


def test_candidate_order_survives_a_one_ulp_nudge():
    # Both roots of a noise-free two-root solve fit the data to rounding, so
    # their residual norms tie and a last-bit change can reorder them; the
    # candidate order must not follow it. Tight drone clusters over far
    # ground emitters (TDOA), and mirror pairs about anchors near the ground
    # (3D trilateration), each row solved as given and with one range
    # difference, or one range, one ulp larger.
    rng = np.random.default_rng(7)
    results = []
    for _ in range(60):
        center = np.array([*rng.uniform(-50, 50, 2), rng.uniform(100, 250)])
        recv = center + rng.uniform(-0.25, 0.25, size=(3, 3))
        angle, radius = rng.uniform(0.0, 2 * math.pi), rng.uniform(4000, 10000)
        emitter = center + (radius * math.cos(angle), radius * math.sin(angle), -center[2])
        d = np.linalg.norm(emitter - recv, axis=1)
        fix = tdoa._fixes(recv, _nudged(np.array([d[:1] - d[1:]])), 0.0, 3)[1]
        results.append((fix(0), fix(1)))
    for _ in range(60):
        anchors = np.column_stack([rng.uniform(-500, 500, (3, 2)), rng.uniform(0, 50, 3)])
        p = np.array([*rng.uniform(-500, 500, 2), rng.uniform(100, 300)])
        fix = trilat._batch(anchors, _nudged(np.linalg.norm(p - anchors, axis=1)[None]))[1]
        results.append((fix(0), fix(1)))
    two = 0
    for plain, nudged in results:
        for result in (plain, nudged):
            assert result.estimate == result.candidates[0][0]
            assert result.residual_norm == result.candidates[0][1]
        if len(plain.candidates) == 2 == len(nudged.candidates):
            two += 1
            (p, _), (q, _) = plain.candidates
            for i, (r, _) in enumerate(nudged.candidates):
                assert (distance(r, p) < distance(r, q)) == (i == 0)
    assert two >= 60


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
    # An infinite h gave an all-NaN Jacobian with a RuntimeWarning, and "x"
    # raised a bare TypeError.
    for h in (0.0, -1e-6, math.inf, math.nan, "x", None, True, 10 ** 400):
        with pytest.raises(ValueError, match="step h must be a positive finite number"):
            finite_difference_jacobian(lambda x: x, np.array([1.0, 2.0]), h=h)


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
    # A plain objective has no bound, so every one of the 25 nodes is
    # evaluated (some more than once), the endpoints of both axes included.
    seen = []

    def objective(points):
        seen.append(points.copy())
        return points[:, 0] + points[:, 1]

    grid_search(objective, [(0, 1), (0, 1)], 0.25)
    nodes = np.unique(np.vstack(seen), axis=0)
    assert nodes.shape[0] == 25
    assert (nodes.min(axis=0) == 0.0).all() and (nodes.max(axis=0) == 1.0).all()


def _never_called(points):
    raise AssertionError("the lattice should be refused before any node is evaluated")


_UNIT_OBJECTIVE = _kernels.GridObjective(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                                         np.ones(3), tdoa=False)


def test_grid_budget(monkeypatch):
    default = solver._GRID_BUDGET
    for bounds, resolution, budget in [
        ([(0, 1000), (0, 1000)], 0.001, 10_000),
        ([(0, 4294967295)] * 2, 1.0, default),      # 2^64 nodes: an int64 product wraps to 0
        ([(0, 1), (0, 1e20)], 0.5, default),        # 6e20 nodes: an int64 count overflows
        ([(-1e308, 1e308), (0, 1)], 0.5, default),  # the span itself overflows to inf
    ]:
        monkeypatch.setattr(solver, "_GRID_BUDGET", budget)
        for objective in (_never_called, _UNIT_OBJECTIVE):
            with pytest.raises(BudgetExceeded):
                grid_search(objective, bounds, resolution)


def test_grid_objective_without_differences_is_zero_everywhere():
    # One receiver and no range differences: a sum of no terms, 0.0 at every
    # node and bounded by 0.0 on every box, so the lattice's first node wins.
    objective = hyperbolic_objective([Point.of(3, 4)], RangeDifferenceSet(0, ()))
    node, value = grid_search(objective, [(-1.0, 2.0), (5.0, 9.0)], 0.5)
    assert node.coords == (-1.0, 5.0) and value.hex() == (0.0).hex()
    assert objective(np.array([[0.0, 0.0], [1e300, -1e300]])).tolist() == [0.0, 0.0]


def test_grid_rejects_bad_inputs():
    for bounds, resolution in [
        ([(0, 1), (0, 1)], 0.0),
        ([(0, 1), (0, 1)], math.inf),
        ([(0, 1), (0, 1)], math.nan),
        ([], 0.1),
        ([(0, 1)], 0.1),
        ([(1, 0), (0, 1)], 0.1),
        ([(0, math.nan), (0, 1)], 0.1),
        ([(0, 1), (math.nan, 1)], 0.1),
        ([(0, math.inf), (0, 1)], 0.1),
        ([(-math.inf, 0), (0, 1)], 0.1),
    ]:
        for objective in (_never_called, _UNIT_OBJECTIVE):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no cast warning on the way
                with pytest.raises(ValueError):
                    grid_search(objective, bounds, resolution)


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
    """objective as a plain callable, asserting the call contract of one
    (at most _GRID_CHUNK nodes, or one leaf if more) and keeping every call's
    nodes."""
    def wrapped(points):
        assert isinstance(points, np.ndarray) and points.dtype == np.float64
        assert points.ndim == 2 and points.shape[1] == dim
        assert 0 < points.shape[0] <= max(solver._GRID_CHUNK, solver._GRID_LEVELS[dim][1] ** dim)
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
    assert np.array_equal(np.unique(np.vstack(calls), axis=0), nodes)  # every node, no other
    assert _hexes(node, value) == _hexes(*reference_grid_scan(objective, bounds, resolution))
    # The bare objective goes through its evaluator, never the point kernel,
    # to the same node and value, bit for bit.
    monkeypatch.setattr(_kernels, "sum_sq_range_residuals", None)
    assert _hexes(*grid_search(objective, bounds, resolution)) == _hexes(node, value)


@pytest.mark.parametrize("bounds, ties", [
    ([(0.0, 9.0), (0.0, 9.0)], [(2.0, 0.0), (1.0, 9.0)]),            # across rows
    ([(0.0, 0.0), (0.0, 99.0)], [(0.0, 24.0), (0.0, 23.0)]),          # inside one row
    ([(0.0, 2.0), (0.0, 1.0), (0.0, 9.0)], [(1.0, 0.0, 0.0), (0.0, 1.0, 9.0)]),
])
def test_grid_tie_across_chunk_boundary_goes_to_earlier_node(monkeypatch, bounds, ties):
    # 25-node chunks, less than a leaf: one leaf per call. Each pair of tied
    # nodes lies in two leaves, so no call holds both, and the smaller node
    # wins across calls.
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
    assert max(len(c) for c in calls) == solver._GRID_LEVELS[dim][1] ** dim
    holds = [[(c == t).all(axis=1).any() for c in calls] for t in tied]
    assert all(any(h) for h in holds)
    assert not any(a and b for a, b in zip(*holds))  # the tie straddles a boundary


def test_grid_long_row_is_split(monkeypatch):
    # A 20,001-node row goes through in calls of at most 1000 nodes.
    monkeypatch.setattr(solver, "_GRID_CHUNK", 1000)
    calls = []
    objective = lambda p: (p[:, 1] - 1234.56) ** 2
    bounds = [(0.0, 0.0), (0.0, 2000.0)]
    node, value = grid_search(_recording(objective, 2, calls), bounds, 0.1)
    assert max(len(c) for c in calls) <= 1000 < sum(len(c) for c in calls)
    want_node, want_value, nodes = _brute_force(objective, bounds, 0.1)
    assert np.array_equal(np.unique(np.vstack(calls), axis=0), nodes)
    assert node.coords == want_node and value == want_value



def _hexes(node, value):
    return [v.hex() for v in (*node.coords, value)]


def _random_case(rng, dim, tdoa):
    """A range or TDOA GridObjective with 3-4 anchors around a random source,
    and a lattice near it whose axes are degenerate, short, a leaf long give
    or take one node, longer than a tile, or a tile and a leaf and one node
    long, so that partial leaves fall inside partial tiles."""
    anchors = rng.uniform(-20.0, 20.0, size=(rng.integers(3, 5), dim))
    source = rng.uniform(-10.0, 10.0, dim)
    dists = np.linalg.norm(anchors - source, axis=1) + rng.normal(0.0, 0.3, len(anchors))
    targets = dists[0] - dists[1:] if tdoa else dists
    objective = _kernels.GridObjective(anchors, targets, tdoa)
    tile, leaf = solver._GRID_LEVELS[dim]
    resolution = float(rng.choice([0.05, 0.1, 0.25]))
    bounds = []
    for _ in range(dim):
        nodes = int(rng.choice([1, rng.integers(2, tile), rng.integers(tile + 1, 3 * tile),
                                leaf - 1, leaf, leaf + 1, tile + leaf + 1]))
        lo = float(source[len(bounds)] + rng.uniform(-0.7, -0.3) * nodes * resolution)
        bounds.append((lo, lo + (nodes - 1) * resolution))
    return objective, bounds, resolution


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tdoa", [False, True], ids=["range", "tdoa"])
def test_bounded_search_matches_exhaustive_scan(dim, tdoa):
    # The bare GridObjective is pruned by its bound; the same objective
    # behind a plain callable has none. Both give the reference scan's bits.
    rng = np.random.default_rng(90 + 2 * dim + tdoa)
    for _ in range(25):
        objective, bounds, resolution = _random_case(rng, dim, tdoa)
        scanned = _hexes(*reference_grid_scan(objective, bounds, resolution))
        for candidate in (objective, lambda p: objective(p)):
            assert _hexes(*grid_search(candidate, bounds, resolution)) == scanned, \
                (bounds, resolution)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bounded_search_matches_exhaustive_scan_on_drawn_lattices(data):
    dim = data.draw(st.sampled_from([2, 3]))
    tdoa = data.draw(st.booleans())
    tile, leaf = solver._GRID_LEVELS[dim]
    coord = st.floats(-20.0, 20.0, allow_nan=False)
    anchors = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                          min_size=3, max_size=4)))
    source = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
    noise = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(anchors),
                                        max_size=len(anchors))))
    dists = np.linalg.norm(anchors - source, axis=1) + noise
    objective = _kernels.GridObjective(anchors, dists[0] - dists[1:] if tdoa else dists, tdoa)
    resolution = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
    bounds = []
    for k in range(dim):
        nodes = data.draw(st.integers(1, 3 * tile + leaf))
        lo = float(source[k]) - data.draw(st.floats(0.0, 1.0)) * nodes * resolution
        bounds.append((lo, lo + (nodes - 1) * resolution))
    bounded = grid_search(objective, bounds, resolution)
    assert _hexes(*bounded) == _hexes(*reference_grid_scan(objective, bounds, resolution))


class _Recording(_kernels.GridObjective):
    """A GridObjective whose evaluator() keeps every node it evaluates."""

    __slots__ = ("calls",)

    def evaluator(self):
        self.calls = []
        evaluate = super().evaluator()

        def recorded(coords):
            values = evaluate(coords)
            self.calls.append(np.column_stack([np.broadcast_to(c, values.shape).ravel()
                                               for c in coords]))
            return values

        return recorded

    def nodes(self):
        """Every node evaluated, (N, D); a node evaluated twice appears twice."""
        return np.vstack(self.calls)


@pytest.mark.parametrize("plain", [False, True], ids=["bare", "lambda"])
def test_bounded_search_tie_between_mirror_nodes_goes_to_smaller_node(monkeypatch, plain):
    # Anchors on the line x = y make the objective symmetric under swapping x
    # and y, bit for bit (dx*dx + dy*dy commutes). Its zeros are (0, 4) and
    # (4, 0). Along y a tile boundary, so a leaf boundary, falls between 0
    # and 4: the two lie in different leaves, and (4, 0)'s comes first in
    # the gathered leaves. Both are evaluated, in one call or, at one leaf
    # per call, in two, and the smaller node index wins: through the bare
    # objective's bound and evaluator, and through a plain callable.
    tile, leaf = solver._GRID_LEVELS[2]
    anchors = np.array([[0.0, 0.0], [4.0, 4.0], [-3.0, -3.0]])
    bounds = [(-2.0, 10.0), (1.0 - tile, 10.0)]
    lo = np.array([b[0] for b in bounds])
    mirrors = [(0.0, 4.0), (4.0, 0.0)]
    leaves = [tuple((np.array(m) - lo).astype(int) // leaf) for m in mirrors]
    assert leaves[0] != leaves[1]
    for chunk in (solver._GRID_CHUNK, leaf ** 2):
        monkeypatch.setattr(solver, "_GRID_CHUNK", chunk)
        objective = _Recording(anchors, np.array([4.0, 4.0, math.sqrt(58.0)]), tdoa=False)
        calls = []
        node, value = grid_search(_recording(objective, 2, calls) if plain else objective,
                                  bounds, 1.0)
        assert node.coords == mirrors[0] and value == 0.0
        evaluated = np.vstack(calls) if plain else objective.nodes()
        assert all((evaluated == m).all(axis=1).any() for m in mirrors)
        assert _hexes(node, value) == _hexes(*reference_grid_scan(objective, bounds, 1.0))


@pytest.mark.parametrize("tdoa", [False, True], ids=["range", "tdoa"])
def test_bounded_search_with_no_finite_value_raises_as_the_scan_does(tdoa):
    # Squared offsets of 1e200 overflow: every range value is +inf, every
    # range difference inf - inf, NaN.
    for dim in (2, 3):
        anchors = np.full((3, dim), 1e200) * np.arange(1, 4)[:, None]
        objective = _kernels.GridObjective(anchors, np.ones(2 if tdoa else 3), tdoa)
        bounds = [(0.0, 7.0)] * dim
        errors = []
        for search in (grid_search, lambda f, *a: grid_search(lambda p: f(p), *a),
                       reference_grid_scan):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError) as caught:
                search(objective, bounds, 0.1)
            errors.append(str(caught.value))
        assert errors == ["objective has no finite value on the lattice"] * 3


class _HalfNanBound(_kernels.GridObjective):
    """A GridObjective whose bound is NaN on every box bounded at or below the
    median of its call, tiles and leaves alike: the boxes that hold the
    minimum among them."""

    __slots__ = ()

    def bound(self, lo, hi):
        bound = super().bound(lo, hi)
        return np.where(bound <= np.median(bound), np.nan, bound)


def test_bounded_search_evaluates_tiles_whose_bound_is_nan():
    rng = np.random.default_rng(97)
    for dim in (2, 3):
        for tdoa in (False, True):
            base, bounds, resolution = _random_case(rng, dim, tdoa)
            objective = _HalfNanBound(base.anchors, base.targets, tdoa)
            assert (_hexes(*grid_search(objective, bounds, resolution))
                    == _hexes(*grid_search(base, bounds, resolution)))


class _InfAtOddX(_Recording):
    """A recording GridObjective that is +inf at every node whose first
    coordinate is odd."""

    __slots__ = ()

    def __call__(self, points):
        return np.where(points[:, 0] % 2 == 1, math.inf, super().__call__(points))

    def evaluator(self):
        evaluate = super().evaluator()

        def masked(coords):
            values = evaluate(coords)
            values[np.broadcast_to(coords[0] % 2 == 1, values.shape)] = math.inf
            return values

        return masked


def test_bounded_search_prunes_nothing_when_every_probe_is_inf():
    # Along x the lattice is two whole tiles from 0 by 1, so every tile and
    # leaf has an even first and an odd center node: every probe reads +inf,
    # the cut stays +inf, and every node is evaluated.
    rng = np.random.default_rng(98)
    for dim in (2, 3):
        tile = solver._GRID_LEVELS[dim][0]
        for tdoa in (False, True):
            anchors = rng.uniform(0.0, 2.0 * tile, size=(4, dim))
            dists = np.linalg.norm(anchors - rng.uniform(0.0, 2.0 * tile, dim), axis=1)
            objective = _InfAtOddX(anchors, dists[0] - dists[1:] if tdoa else dists, tdoa)
            bounds = [(0.0, 2.0 * tile - 1.0)] + [(0.0, 20.0)] * (dim - 1)
            node, value = grid_search(objective, bounds, 1.0)
            assert len(np.unique(objective.nodes(), axis=0)) == 2 * tile * 21 ** (dim - 1)
            assert node.x % 2 == 0 and value < math.inf
            assert _hexes(node, value) == _hexes(*reference_grid_scan(objective, bounds, 1.0))


class _NanBound(_kernels.GridObjective):
    """A GridObjective whose bound is NaN on every box: nothing is pruned."""

    __slots__ = ()

    def bound(self, lo, hi):
        return np.full(np.broadcast(*lo, *hi).shape, math.nan)


def test_bounded_search_memory_stays_bounded_when_nothing_prunes():
    # 3163^2 = 1.0e7 nodes, all evaluated; an (N,) float64 array of them
    # alone is 80 MB, so the nodes must go through in chunks.
    problem = TrilaterationProblem((Point.of(0, 0), Point.of(10, 0), Point.of(5, 10)),
                                   (5.0, 5.0, 5.0), 2)
    base = trilateration_objective(problem)
    objective = _NanBound(base.anchors, base.targets, base.tdoa)
    bounds = [(-10.0, 21.62), (-10.0, 21.62)]
    tracemalloc.start()
    try:
        node, value = grid_search(objective, bounds, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert _hexes(node, value) == _hexes(*reference_grid_scan(base, bounds, 0.01))


def _random_boxes(rng, dim, scale):
    """Boxes with 1-6 random nodes per axis: (lo, hi, [per-axis node arrays])."""
    for _ in range(60):
        axes = [np.sort(rng.uniform(-scale, scale, rng.integers(1, 7))) for _ in range(dim)]
        yield np.array([a[0] for a in axes]), np.array([a[-1] for a in axes]), axes


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tdoa", [False, True], ids=["range", "tdoa"])
def test_bound_is_below_every_node_value_in_the_box(dim, tdoa):
    rng = np.random.default_rng(70 + 2 * dim + tdoa)
    for scale, overflow in ((30.0, False), (1e154, True)):
        anchors = rng.uniform(-scale, scale, size=(4, dim))
        targets = rng.uniform(-scale, scale, 3) if tdoa else rng.uniform(0.0, 2 * scale, 4)
        objective = _kernels.GridObjective(anchors, targets, tdoa)
        evaluate = objective.evaluator()
        boxes = list(_random_boxes(rng, dim, scale))
        bounds = objective.bound(np.array([b[0] for b in boxes]).T,
                                 np.array([b[1] for b in boxes]).T)
        assert bounds.shape == (len(boxes),)
        for (lo, hi, axes), bound in zip(boxes, bounds):
            assert np.array_equal(objective.bound(lo, hi), bound, equal_nan=True)
            columns = [a.reshape([-1 if j == k else 1 for j in range(dim)])
                       for k, a in enumerate(axes)]
            with np.errstate(over="ignore", invalid="ignore"):
                values = evaluate(columns)
            values = values[~np.isnan(values)]
            assert bound <= values.min(initial=math.inf) or overflow and math.isnan(bound)
        if not overflow:
            assert not np.isnan(bounds).any() and (bounds > 0.0).any()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tdoa", [False, True], ids=["range", "tdoa"])
def test_bound_of_a_product_of_intervals_is_each_box_bound(dim, tdoa):
    # (T0, 1) and (1, T1) edges, as _bounded_search passes its tiles, give
    # each box the bits of its own bound.
    rng = np.random.default_rng(80 + 2 * dim + tdoa)
    anchors = rng.uniform(-30.0, 30.0, size=(4, dim))
    targets = rng.uniform(-30.0, 30.0, 3) if tdoa else rng.uniform(0.0, 60.0, 4)
    objective = _kernels.GridObjective(anchors, targets, tdoa)
    edges = [np.sort(rng.uniform(-40.0, 40.0, (2, 9)), axis=0) for _ in range(dim)]
    shapes = [[-1 if j == k else 1 for j in range(dim)] for k in range(dim)]
    product = objective.bound([e[0].reshape(s) for e, s in zip(edges, shapes)],
                              [e[1].reshape(s) for e, s in zip(edges, shapes)])
    assert product.shape == (9,) * dim
    for index in np.ndindex(product.shape):
        box = objective.bound([e[0][i] for e, i in zip(edges, index)],
                              [e[1][i] for e, i in zip(edges, index)])
        assert product[index].hex() == float(box).hex()


def test_bounded_search_evaluates_few_nodes_of_the_criterion_2_lattice():
    # The 0.01 m lattice over [-10, 20]^2 of the inconsistent 2D fixture.
    problem = TrilaterationProblem((Point.of(0, 0), Point.of(10, 0), Point.of(5, 10)),
                                   (5.0, 5.0, 5.0), 2)
    base = trilateration_objective(problem)
    counts = []
    for _ in range(2):
        objective = _Recording(base.anchors, base.targets, base.tdoa)
        node, value = grid_search(objective, [(-10.0, 20.0), (-10.0, 20.0)], 0.01)
        counts.append(len(objective.nodes()))
    assert node.x == 5.0 and value == pytest.approx(4.6557, abs=1e-4)
    assert counts[0] == counts[1] and 0 < counts[0] < 9_006_001 // 1000


def test_bounded_search_evaluates_few_nodes_of_a_far_emitter_tdoa_lattice():
    # 2.8 km from a 300 m receiver triangle the range differences vary
    # slowly, and the bound at the box center catches that: distance
    # intervals alone leave about 98 % of this lattice's nodes to evaluate.
    receivers = np.array([[0.0, 0.0], [300.0, 0.0], [100.0, 250.0]])
    emitter = np.array([2500.0, 1200.0])
    d = np.linalg.norm(receivers - emitter, axis=1)
    objective = _Recording(receivers, d[0] - d[1:], tdoa=True)
    bounds = [(2490.0, 2510.0), (1190.0, 1210.0)]
    node, value = grid_search(objective, bounds, 0.01)
    assert node.coords == (2500.0, 1200.0) and value == 0.0
    assert len(objective.nodes()) < 20_000
