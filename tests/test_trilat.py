"""Closed-form and least-squares trilateration, plus the team resection."""

import itertools
import math

import numpy as np
import pytest

from conftest import consistent_trilat_case
from rfloc import (
    Point,
    RangeDifferenceSet,
    SolveResult,
    distance,
    finite_difference_jacobian,
    grid_search,
    locate_emitter,
    team_relative_position,
    trilaterate,
    trilaterate_lsq,
    trilateration_jacobian,
    trilateration_objective,
    trilateration_residuals,
)
from rfloc.errors import (
    DimensionError,
    GeometryDegenerate,
    Inconsistent,
    NoConvergence,
    ValidationError,
)
from rfloc.trilat import TrilaterationProblem, _batch

REF_EMITTERS = (Point.of(0, 0, 0), Point.of(500, 0, 0), Point.of(0, 500, 0))
REF_DISTANCES = (300.0, 400.0, 500.0)
REF_Z = math.sqrt(49500.0)

# The worked 2D fixture with three mutually inconsistent circles: no point
# satisfies all three range equations, so it exercises candidate selection.
DEMO_EMITTERS = (Point.of(0, 0), Point.of(10, 0), Point.of(5, 10))
DEMO_DISTANCES = (5.0, 5.0, 5.0)


def _ref_problem():
    return TrilaterationProblem(REF_EMITTERS, REF_DISTANCES, 3)


def _demo_problem():
    return TrilaterationProblem(DEMO_EMITTERS, DEMO_DISTANCES, 2)


def test_residuals_zero_on_circles():
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(10, 0), Point.of(0, 10)),
        (5.0, math.sqrt(65.0), math.sqrt(45.0)), 2)
    res = trilateration_residuals(problem, Point.of(3, 4))
    assert np.max(np.abs(res)) < 1e-12


def test_residuals_demo_fixture():
    res = trilateration_residuals(_demo_problem(), Point.of(5, 5))
    r = math.sqrt(50.0) - 5.0
    assert res == pytest.approx([r, r, 0.0], abs=1e-12)
    assert r == pytest.approx(2.0710678118654755, abs=1e-12)


def test_residuals_reference_point():
    res = trilateration_residuals(_ref_problem(), Point.of(180, 90, REF_Z))
    assert np.max(np.abs(res)) < 1e-9


def test_2d_recovery():
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(10, 0), Point.of(0, 10)),
        (5.0, math.sqrt(65.0), math.sqrt(45.0)), 2)
    result = trilaterate(problem)
    assert distance(result.estimate, Point.of(3, 4)) < 1e-9
    assert result.converged and "inconsistent" not in result.flags


def test_2d_demo_candidates_and_selection():
    result = trilaterate(_demo_problem())
    # both quadratic roots surface as candidates, on the x = 5 line
    ys = sorted(round(p.y, 9) for p, _ in result.candidates)
    assert ys == [5.0, 15.0]
    assert all(p.x == pytest.approx(5.0, abs=1e-9) for p, _ in result.candidates)
    assert result.estimate.y == pytest.approx(5.0, abs=1e-9)
    # squared residuals: ~8.58 for (5,5) vs ~233.77 for (5,15)
    ssq = sorted(n * n for _, n in result.candidates)
    assert ssq[0] == pytest.approx(8.578643762690485, rel=1e-9)
    assert ssq[1] == pytest.approx(233.77223398316206, rel=1e-9)
    assert "inconsistent" in result.flags
    assert result.residual_norm > 1.0


def test_2d_collinear():
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(5, 0), Point.of(10, 0)), (1.0, 2.0, 3.0), 2)
    with pytest.raises(GeometryDegenerate):
        trilaterate(problem)


def test_2d_residual_norm_overflow_is_inconsistent():
    # Equal huge ranges to anchors 0 and 1 put the radical line on their
    # bisector, and the unit circle about anchor 2 meets it at two roots
    # about 1 m from every anchor. The squared ranges, 1.69e308, and the
    # radicand fit in a float64, but both roots have residuals of -1.3e154
    # against ranges 0 and 1, whose plain sum of squares overflows.
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(2, 0), Point.of(1, 1)), (1.3e154, 1.3e154, 1.0), 2)
    with pytest.raises(Inconsistent, match="residual norm overflows"):
        trilaterate(problem)


@pytest.mark.parametrize("anchors, ranges", [
    # A squared range of inf makes the radicand inf, not a tangent root.
    ([(0, 0), (500, 0), (0, 500)], (100.0, 100.0, 1e308)),
    # Every squared range inf: inf - inf leaves the radicand NaN.
    ([(0, 0), (500, 0), (0, 500)], (1e200, 1e200, 1e200)),
    ([(0, 0), (2, 0), (1, 1)], (1.5e308, 1.5e308, 1.0)),
    ([(0, 0, 0), (500, 0, 0), (0, 500, 0)], (300.0, 400.0, 1e155)),
])
def test_radicand_overflow_is_inconsistent(anchors, ranges):
    emitters = tuple(Point.of(*a) for a in anchors)
    with pytest.raises(Inconsistent, match="the radicand overflows float64"):
        trilaterate(TrilaterationProblem(emitters, ranges, len(anchors[0])))
    # A row that solves beside it keeps its result.
    solvable = [math.dist((0.3, 0.4, 0.5)[:len(a)], a) for a in anchors]
    closed, fix = _batch(anchors, [ranges, solvable])
    assert closed[0] is None and closed[1] is not None
    with pytest.raises(Inconsistent, match="the radicand overflows float64"):
        fix(0)


def test_every_anchor_order_gets_the_tdoa_verdict():
    # Twice the area is 5e-11, below 1e-12 times the squared diameter (10 m):
    # the one triangle rule refuses the anchors in every order, as
    # locate_emitter refuses them as receivers. A scale taken from the two
    # sides at the first anchor would solve the orders with (5, 0) first.
    anchors = [(0.0, 0.0), (5.0, 0.0), (10.0, 1e-11)]
    truth = (4.0, 3.0)
    for order in itertools.permutations(anchors):
        ranges = [math.dist(truth, a) for a in order]
        with pytest.raises(GeometryDegenerate, match="emitters are collinear"):
            trilaterate(TrilaterationProblem(tuple(Point.of(*a) for a in order), ranges, 2))
        rd = RangeDifferenceSet.from_range_differences(
            0, [(1, ranges[0] - ranges[1]), (2, ranges[0] - ranges[2])], 1.0)
        with pytest.raises(GeometryDegenerate, match="receivers are collinear"):
            locate_emitter([Point.of(*a) for a in order], rd)


@pytest.mark.parametrize("dim", [2, 3])
def test_anchors_too_far_apart_for_float64_are_degenerate(dim):
    # Sides of 2e154 m square past the float range: the triangle's diameter
    # overflows, and the message says so, not "collinear".
    anchors = [(-1e154, 0.0, 0.0), (1e154, 0.0, 0.0), (0.0, 1e154, 1.0)]
    emitters = tuple(Point.of(*a[:dim]) for a in anchors)
    with pytest.raises(GeometryDegenerate, match="emitters' triangle overflows float64"):
        trilaterate(TrilaterationProblem(emitters, (1e154,) * 3, dim))


def test_2d_inconsistent_when_circle_unreachable():
    # third circle too small to reach the radical line of the first two
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(10, 0), Point.of(8, 1000)), (5.0, 5.0, 1.0), 2)
    with pytest.raises(Inconsistent):
        trilaterate(problem)


def test_3d_reference_scenario():
    result = trilaterate(_ref_problem())
    assert result.estimate.x == pytest.approx(180.0, abs=1e-9)
    assert result.estimate.y == pytest.approx(90.0, abs=1e-9)
    assert result.estimate.z == pytest.approx(REF_Z, abs=1e-6)
    assert "mirror_ambiguity" in result.flags
    mirror = [p for p, _ in result.candidates if p.z < 0]
    assert len(mirror) == 1
    assert mirror[0].z == pytest.approx(-REF_Z, abs=1e-6)


def test_3d_derived_case():
    problem = TrilaterationProblem(
        REF_EMITTERS, (math.sqrt(52500.0), 450.0, math.sqrt(102500.0)), 3)
    result = trilaterate(problem)
    assert result.estimate.coords == pytest.approx((100.0, 200.0, 50.0), abs=1e-9)
    zs = sorted(p.z for p, _ in result.candidates)
    assert zs == pytest.approx([-50.0, 50.0], abs=1e-9)


def test_3d_point_on_anchor_plane():
    truth = Point.of(250, 250, 0)
    dists = tuple(distance(truth, e) for e in REF_EMITTERS)
    result = trilaterate(TrilaterationProblem(REF_EMITTERS, dists, 3))
    assert result.estimate.z == 0.0
    assert "mirror_ambiguity" not in result.flags
    assert len(result.candidates) == 1


def test_3d_collinear():
    problem = TrilaterationProblem(
        (Point.of(0, 0, 0), Point.of(1, 0, 0), Point.of(2, 0, 0)),
        (1.0, 1.0, 1.0), 3)
    with pytest.raises(GeometryDegenerate):
        trilaterate(problem)


def test_3d_inconsistent_radicand():
    problem = TrilaterationProblem(REF_EMITTERS, (1.0, 1.0, 1.0), 3)
    with pytest.raises(Inconsistent):
        trilaterate(problem)


def test_trilaterate_takes_its_dimension_from_the_problem():
    # One solve for both dimensions: 2D points from a 2D problem, a 3D mirror
    # pair from a 3D one, and exactly three anchors in either.
    flat = trilaterate(_demo_problem())
    assert {p.dim for p, _ in flat.candidates} == {2} and "mirror_ambiguity" not in flat.flags
    raised = trilaterate(_ref_problem())
    assert {p.dim for p, _ in raised.candidates} == {3} and "mirror_ambiguity" in raised.flags
    with pytest.raises(ValueError, match="exactly 3 emitters"):
        trilaterate(TrilaterationProblem(REF_EMITTERS + (Point.of(0, 0, 50),), (1.0,) * 4, 3))


def test_consistent_data_exactness_seeded():
    # 1000 seeded non-degenerate trials: closed forms recover the true point
    # (or its mirror) within 1e-9 m.
    rng = np.random.default_rng(71)
    for trial in range(1000):
        dim = 2 if trial % 2 == 0 else 3
        emitters, dists, truth = consistent_trilat_case(rng, dim)
        problem = TrilaterationProblem(emitters, dists, dim)
        result = trilaterate(problem)
        best = min(distance(p, truth) for p, _ in result.candidates)
        assert best < 1e-9, f"trial {trial}: best {best}"


def test_batch_rows_equal_scalar_solves():
    # Each row of one batched call has the bits of its own scalar solve; the
    # noisy rows include ones whose circles (spheres) do not meet.
    rng = np.random.default_rng(72)
    rejected_rows = 0
    for trial in range(60):
        dim = 2 if trial % 2 == 0 else 3
        emitters, dists, _ = consistent_trilat_case(rng, dim)
        ranges = np.maximum(np.array(dists) + rng.normal(0.0, [[0.0], [1e-6], [1.0], [30.0]],
                                                         size=(4, 3)), 0.0)
        closed, fix = _batch([p.coords for p in emitters], ranges)
        for k, row in enumerate(ranges):
            problem = TrilaterationProblem(emitters, tuple(row), dim)
            if closed[k] is None:
                rejected_rows += 1
                with pytest.raises(Inconsistent) as raised:
                    trilaterate(problem)
                with pytest.raises(Inconsistent) as batched:
                    fix(k)
                assert repr(batched.value) == repr(raised.value)
                continue
            result = trilaterate(problem)
            assert fix(k) == result
            assert closed[k] == (result.estimate.coords, result.residual_norm)
    assert rejected_rows > 0
    closed, fix = _batch([[0, 0], [1, 0], [2, 0]], [[1.0, 1.0, 1.0], [1.0, math.inf, 1.0]])
    assert closed == [None, None]
    for k, error in enumerate([GeometryDegenerate, ValidationError]):
        with pytest.raises(error):
            fix(k)


def test_lsq_reference_scenario():
    centroid = np.mean([e.coords for e in REF_EMITTERS], axis=0)
    result = trilaterate_lsq(_ref_problem(), centroid + 1.0)
    assert result.estimate.coords == pytest.approx((180.0, 90.0, REF_Z), abs=1e-6)
    assert result.converged


def test_lsq_init_at_solution():
    problem = TrilaterationProblem(
        (Point.of(0, 0), Point.of(10, 0), Point.of(0, 10)),
        (5.0, math.sqrt(65.0), math.sqrt(45.0)), 2)
    result = trilaterate_lsq(problem, Point.of(3, 4))
    assert result.iterations <= 1
    assert result.residual_norm < 1e-12


def test_lsq_from_a_non_finite_start_has_no_best_iterate():
    # The run cannot move from a NaN start: a typed error, not a Point that
    # refuses its coordinates.
    with pytest.raises(NoConvergence, match="the iterate is not finite$") as exc:
        trilaterate_lsq(_demo_problem(), [math.nan, 0.0])
    assert exc.value.best is None


def test_lsq_matches_grid_minimizer_on_demo():
    result = trilaterate_lsq(_demo_problem(), Point.of(5, 5))
    objective = trilateration_objective(_demo_problem())
    node, value = grid_search(objective, [(0, 10), (0, 8)], 0.01)
    assert abs(result.estimate.x - node.x) <= 0.01 + 1e-9
    assert abs(result.estimate.y - node.y) <= 0.01 + 1e-9
    solver_obj = float(objective(np.array([result.estimate.coords]))[0])
    assert solver_obj <= value + 1e-12


def test_lsq_demo_embedded_at_z0():
    # Embedding the 2D fixture at z = 0 makes the Jacobian z-column zero;
    # the damping ladder has to cope with the singular normal equations.
    emitters = tuple(Point.of(e.x, e.y, 0.0) for e in DEMO_EMITTERS)
    problem = TrilaterationProblem(emitters, DEMO_DISTANCES, 3)
    result = trilaterate_lsq(problem, Point.of(5.0, 5.0, 0.0))
    flat = trilaterate_lsq(_demo_problem(), Point.of(5.0, 5.0))
    assert result.estimate.z == 0.0
    assert result.estimate.x == pytest.approx(flat.estimate.x, abs=1e-8)
    assert result.estimate.y == pytest.approx(flat.estimate.y, abs=1e-8)


def test_lsq_agrees_with_closed_form_seeded():
    rng = np.random.default_rng(72)
    for trial in range(200):
        dim = 2 if trial % 2 == 0 else 3
        emitters, dists, truth = consistent_trilat_case(rng, dim)
        problem = TrilaterationProblem(emitters, dists, dim)
        algebraic = trilaterate(problem)
        init = np.array(truth.coords) + rng.uniform(-20, 20, size=dim)
        lsq = trilaterate_lsq(problem, init)
        best = min(distance(p, lsq.estimate) for p, _ in algebraic.candidates)
        assert best < 1e-6


def test_estimate_residual_optimality():
    result = trilaterate(_demo_problem())
    assert all(result.residual_norm <= n + 1e-12 for _, n in result.candidates)


def test_rigid_motion_covariance():
    rng = np.random.default_rng(73)
    for _ in range(100):
        emitters, dists, _truth = consistent_trilat_case(rng, 2)
        problem = TrilaterationProblem(emitters, dists, 2)
        base = trilaterate(problem)
        # translation
        v = rng.uniform(-500, 500, size=2)
        moved = TrilaterationProblem(
            tuple(Point.of(e.x + v[0], e.y + v[1]) for e in emitters), dists, 2)
        shifted = trilaterate(moved)
        for (p, _), (q, _) in zip(base.candidates, shifted.candidates):
            assert q.x == pytest.approx(p.x + v[0], abs=1e-7)
            assert q.y == pytest.approx(p.y + v[1], abs=1e-7)
        # rotation
        ang = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = TrilaterationProblem(
            tuple(Point.of(*(R @ np.array(e.coords))) for e in emitters), dists, 2)
        rot = trilaterate(rotated)
        got = sorted((round(p.x, 6), round(p.y, 6)) for p, _ in rot.candidates)
        want = sorted((round(float((R @ np.array(p.coords))[0]), 6),
                       round(float((R @ np.array(p.coords))[1]), 6))
                      for p, _ in base.candidates)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-5)


def test_mirror_candidates_have_equal_norms():
    rng = np.random.default_rng(74)
    for _ in range(100):
        emitters, dists, _truth = consistent_trilat_case(rng, 3)
        result = trilaterate(TrilaterationProblem(emitters, dists, 3))
        if "mirror_ambiguity" in result.flags:
            norms = [n for _, n in result.candidates]
            assert abs(norms[0] - norms[1]) < 1e-6


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(75)
    problem = _ref_problem()

    def residual(x):
        return trilateration_residuals(problem, Point.of(*x))

    for _ in range(20):
        q = rng.uniform(-600, 600, size=3)
        if min(np.linalg.norm(q - np.array(e.coords)) for e in REF_EMITTERS) < 1e-3:
            continue
        J = trilateration_jacobian(problem, Point.of(*q))
        J_fd = finite_difference_jacobian(residual, q, h=1e-5)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) < 1e-5


def _fix(*roots):
    """An emitter fix whose candidates are roots, all with residual 0."""
    cands = tuple((p, 0.0) for p in roots)
    return SolveResult(cands)


def _along(origin, beacon, scale):
    """The point scale of the way from origin to beacon, on the plane z = 0."""
    return Point.of(origin.x + scale * (beacon.x - origin.x),
                    origin.y + scale * (beacon.y - origin.y), 0.0)


TEAM_BEACONS = (Point.of(5000, 0, 0), Point.of(-3000, 4000, 0), Point.of(0, -6000, 0))


def test_team_position_coincident_drones():
    # Three drones at one point: their centroid is that point. Each fix has
    # its true root at the wrong range (the range is what a tight cluster
    # does not measure) and a companion root off the bearing; the resection
    # keeps the true roots and lands on the drones, at their altitude.
    truth = Point.of(120, -40, 60)
    drones = (truth, truth, truth)
    true_roots = [_along(truth, b, scale) for b, scale in zip(TEAM_BEACONS, (0.3, 2.5, 0.3))]
    companions = [Point.of(b.y / 2, -b.x / 3, 0.0) for b in TEAM_BEACONS]
    fixes = [_fix(true_roots[0], companions[0]), _fix(companions[1], true_roots[1]),
             _fix(true_roots[2], companions[2])]
    team, selected = team_relative_position(drones, fixes, TEAM_BEACONS)
    assert distance(team.estimate, truth) < 1e-9
    assert team.estimate.z == truth.z
    assert team.iterations == 0 and team.converged and not team.flags
    assert team.candidates == ((team.estimate, team.residual_norm),)
    assert selected == tuple(true_roots)


def test_team_position_validation():
    drone = Point.of(0, 0, 100)
    fixes = [_fix(Point.of(*b.coords)) for b in TEAM_BEACONS]
    with pytest.raises(ValidationError):
        team_relative_position((), fixes, TEAM_BEACONS)
    for n in (0, 1, 2, 4):
        with pytest.raises(ValidationError, match="3 beacons"):
            team_relative_position((drone,), (fixes * 2)[:n], (TEAM_BEACONS * 2)[:n])
    with pytest.raises(ValidationError, match="3 beacons"):
        team_relative_position((drone,), fixes[:2], TEAM_BEACONS)
    with pytest.raises(DimensionError):
        team_relative_position((Point.of(0, 0),), fixes, TEAM_BEACONS)
    with pytest.raises(DimensionError):
        team_relative_position((drone,), [_fix(Point.of(1, 2))] + fixes[1:], TEAM_BEACONS)


def test_team_position_degenerate_lines_are_flagged():
    # A root at the drones' planar centroid has no bearing and gives no line;
    # two lines left still meet.
    drones = (Point.of(10, 20, 100), Point.of(12, 20, 101), Point.of(11, 23, 102))
    center = Point.of(11, 21, 0)
    fixes = [_fix(_along(center, b, 0.5)) for b in TEAM_BEACONS]
    team, selected = team_relative_position(drones, [_fix(center)] + fixes[1:], TEAM_BEACONS)
    assert math.dist(team.estimate.coords[:2], center.coords[:2]) < 1e-9
    assert not team.flags and selected[0] == center
    # Beacons on one line through the team: the lines coincide, and the point
    # is the one on them nearest the beacons' centroid.
    beacons = (Point.of(1011, 21, 0), Point.of(-1989, 21, 0), Point.of(4011, 21, 0))
    fixes = [_fix(_along(center, b, 0.5)) for b in beacons]
    team, _ = team_relative_position(drones, fixes, beacons)
    assert team.flags == {"ill_conditioned"}
    assert team.estimate.coords[:2] == pytest.approx((1011.0, 21.0), abs=1e-9)
    # No line at all: the beacons' centroid.
    team, _ = team_relative_position(drones, [_fix(center)] * 3, beacons)
    assert team.flags == {"ill_conditioned"} and team.residual_norm == 0.0
    assert team.estimate.coords == pytest.approx((1011.0, 21.0, 101.0))


def test_team_position_is_the_least_squares_point_of_its_lines():
    # Noisy bearings whose lines do not meet, two roots per fix. On a
    # lattice around the estimate no node is nearer its lines (in the sum
    # of squared distances), and on one around each root combination's own
    # least-squares point (np.linalg.lstsq) no node is nearer that
    # combination's lines than the estimate is to its own.
    rng = np.random.default_rng(77)
    axis = np.linspace(-2.0, 2.0, 81)
    offsets = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    for _ in range(20):
        center = rng.uniform(-100, 100, 2)
        drones = tuple(Point.of(*(center + rng.uniform(-0.3, 0.3, 2)), 150.0 + k)
                       for k in range(3))
        c0 = np.mean([d.coords[:2] for d in drones], axis=0)
        angles = rng.uniform(0, 2 * np.pi) + np.cumsum(rng.uniform(1.3, 2.3, 3))
        beacons = tuple(Point.of(*(center + r * np.array([np.cos(a), np.sin(a)])), 0.0)
                        for a, r in zip(angles, rng.uniform(4000, 8000, 3)))
        fixes = []
        for b in beacons:
            theta = math.atan2(b.y - c0[1], b.x - c0[0]) + rng.normal(0.0, 0.02)
            roots = [c0 + rng.uniform(500, 9000) * np.array([np.cos(t), np.sin(t)])
                     for t in (theta, theta + rng.uniform(0.2, 1.0))]
            fixes.append(_fix(*(Point.of(*p, 0.0) for p in roots)))
        team, chosen = team_relative_position(drones, fixes, beacons)
        assert not team.flags and team.residual_norm > 1.0

        def lines(combo):
            """Unit normals (3, 2) and offsets (3,) of the combination's lines."""
            u = np.array([p.coords[:2] for p in combo]) - c0
            n = np.column_stack([-u[:, 1], u[:, 0]]) / np.linalg.norm(u, axis=1)[:, None]
            return n, (n * [b.coords[:2] for b in beacons]).sum(axis=1)

        def ssq(points, combo):
            n, d = lines(combo)
            return ((points @ n.T - d) ** 2).sum(axis=-1)

        est = np.array(team.estimate.coords[:2])
        assert team.residual_norm == pytest.approx(math.sqrt(ssq(est, chosen)), rel=1e-9)
        assert ssq(est + offsets, chosen).min() >= team.residual_norm ** 2 * (1 - 1e-9)
        for idx in np.ndindex(2, 2, 2):
            combo = tuple(f.candidates[i][0] for f, i in zip(fixes, idx))
            own = np.linalg.lstsq(*lines(combo), rcond=None)[0]
            assert ssq(own + offsets, combo).min() >= team.residual_norm ** 2 * (1 - 1e-9)


def test_problem_validation():
    with pytest.raises(ValidationError):
        TrilaterationProblem((Point.of(0, 0), Point.of(1, 0)), (1.0, 1.0), 2)
    with pytest.raises(ValidationError):
        TrilaterationProblem(DEMO_EMITTERS, (1.0, 1.0), 2)
    with pytest.raises(ValidationError):
        TrilaterationProblem(DEMO_EMITTERS, (1.0, 1.0, -3.0), 2)
    with pytest.raises(DimensionError):
        TrilaterationProblem(DEMO_EMITTERS, (1.0, 1.0, 1.0), 3)
    with pytest.raises(DimensionError, match="dimension must be 2 or 3, got 4"):
        TrilaterationProblem(DEMO_EMITTERS, (1.0, 1.0, 1.0), 4)
    with pytest.raises(ValueError):
        trilaterate(TrilaterationProblem(
            (Point.of(0, 0), Point.of(10, 0), Point.of(0, 10), Point.of(10, 10)),
            (5.0, 5.0, 5.0, 5.0), 2))
    # Each distance was passed to float() before the check: "5" and True
    # were taken as 5.0 and 1.0, and the rest raised a bare ValueError,
    # TypeError or OverflowError.
    for d in ("5", True, "x", None, 10 ** 400, math.inf, 5 + 0j):
        with pytest.raises(ValidationError, match="^distances must be finite and >= 0$") as info:
            TrilaterationProblem(DEMO_EMITTERS, (5.0, d, 5.0), 2)
        assert info.value.field == "distances"


def test_problem_stores_its_distances_as_floats():
    problem = TrilaterationProblem(DEMO_EMITTERS, [5, np.float32(5.0), np.int64(5)], 2)
    assert problem.distances == (5.0, 5.0, 5.0)
    assert all(type(d) is float for d in problem.distances)


def test_point_and_start_must_match_the_problem_dimension():
    problem = TrilaterationProblem(DEMO_EMITTERS, DEMO_DISTANCES, 2)
    for evaluate in (trilateration_residuals, trilateration_jacobian):
        with pytest.raises(DimensionError, match="point is 3D, problem is 2D"):
            evaluate(problem, Point.of(1, 2, 3))
    with pytest.raises(DimensionError, match="init is 3D, problem is 2D"):
        trilaterate_lsq(problem, Point.of(1, 2, 3))
    for init in ([1.0], (1.0, 2.0, 3.0)):
        with pytest.raises(DimensionError, match=f"init has {len(init)} coordinates"):
            trilaterate_lsq(problem, init)


def test_team_position_overflow_is_total():
    # Roots whose offsets from the drones overflow give no line; the one line
    # left gives its point nearest the beacons' centroid. A position beyond
    # the float range is GeometryDegenerate, not an infinite point.
    drones = (Point.of(-1e308, 0, 0),) * 3
    beacons = (Point.of(1e308, 1e308, 0), Point.of(1e308, -1e308, 0), Point.of(-1e308, 1e308, 0))
    roots = (Point.of(1.5e308, 1e308, 0), beacons[1], beacons[2])
    team, selected = team_relative_position(drones, [_fix(p) for p in roots], beacons)
    assert team.flags == {"ill_conditioned"} and selected == roots
    assert team.estimate.coords == (-1e308, 1e308 / 3, 0.0)
    beacons = (Point.of(1.7e308, 1e307, 0), Point.of(1.7e308, -1e307, 0),
               Point.of(-1.7e308, 1.6e308, 0))
    with pytest.raises(GeometryDegenerate, match="overflows"):
        team_relative_position((Point.of(0, 0, 0),), [_fix(b) for b in beacons], beacons)
