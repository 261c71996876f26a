"""Arrival differences, hyperbolic residuals, and emitter localization."""

import math

import numpy as np
import pytest

from conftest import tdoa_roundtrip_case
from rfloc import (
    ArrivalSet,
    Point,
    RangeDifferenceSet,
    Scenario,
    SolverOptions,
    arrival_deltas,
    average_direction,
    combined_direction,
    direction_unit,
    distance,
    finite_difference_jacobian,
    grid_search,
    hyperbolic_jacobian,
    hyperbolic_objective,
    hyperbolic_residuals,
    locate_emitter_2d,
    locate_emitter_3d,
    simulate_arrivals,
)
from rfloc.errors import (
    DegenerateDirection,
    GeometryDegenerate,
    InsufficientReceivers,
    NoConvergence,
    ValidationError,
)

C = 3e8

RECV_2D = (Point.of(0, 0), Point.of(100, 0), Point.of(0, 100))


def _deltas_from_truth(receivers, emitter):
    d = [distance(r, emitter) for r in receivers]
    return RangeDifferenceSet.from_range_differences(
        0, [(k, d[0] - d[k]) for k in range(1, len(receivers))], C)


def test_deltas_equidistant_zero():
    s = Scenario(emitters=(Point.of(50, 80),),
                 receivers=(Point.of(0, 0), Point.of(100, 0)), c=C)
    rd = arrival_deltas(simulate_arrivals(s), 0, 0, C)
    assert rd.deltas[0].delta_t == 0.0
    assert rd.deltas[0].delta_d == 0.0


def test_deltas_forward_simulated():
    s = Scenario(emitters=(Point.of(40, 30),),
                 receivers=(Point.of(0, 0), Point.of(100, 0)), c=C)
    rd = arrival_deltas(simulate_arrivals(s), 0, 0, C)
    # d_ref - d_other = 50 - sqrt(4500)
    assert rd.deltas[0].delta_d == pytest.approx(-17.082039324993687, abs=1e-9)


def test_deltas_direct_arithmetic():
    arrivals = ArrivalSet(np.array([[2e-7], [1e-7]]))
    rd = arrival_deltas(arrivals, 0, 0, C)
    assert rd.deltas[0].delta_t == pytest.approx(1e-7, rel=1e-12)
    assert rd.deltas[0].delta_d == pytest.approx(30.0, rel=1e-12)


def test_deltas_insufficient_receivers():
    with pytest.raises(InsufficientReceivers):
        arrival_deltas(ArrivalSet(np.array([[1e-7]])), 0, 0, C)


def test_deltas_reference_excluded():
    arrivals = ArrivalSet(np.array([[1e-7], [2e-7], [3e-7]]))
    rd = arrival_deltas(arrivals, 0, 1, C)
    assert rd.reference_index == 1
    assert [d.other_index for d in rd.deltas] == [0, 2]


def test_emission_time_invariance_exact_dyadic():
    # Dyadic timestamps and shifts stay exactly representable, so the
    # differences are reproduced bit-for-bit.
    base = np.array([[0.25], [0.5], [0.125]])
    for shift in (0.5, 4.0, 1024.0):
        a = arrival_deltas(ArrivalSet(base), 0, 0, C)
        b = arrival_deltas(ArrivalSet(base + shift), 0, 0, C)
        assert a == b


def test_emission_time_invariance_general():
    rng = np.random.default_rng(61)
    times = rng.uniform(1e-7, 5e-7, size=(3, 1))
    a = arrival_deltas(ArrivalSet(times), 0, 0, C)
    b = arrival_deltas(ArrivalSet(times + 0.125), 0, 0, C)
    for da, db in zip(a.deltas, b.deltas):
        assert db.delta_d == pytest.approx(da.delta_d, abs=1e-6)


def test_residuals_zero_at_truth():
    emitter = Point.of(40, 30)
    rd = _deltas_from_truth(RECV_2D, emitter)
    res = hyperbolic_residuals(RECV_2D, rd, emitter)
    assert np.max(np.abs(res)) < 1e-9


def test_residuals_perpendicular_bisector():
    receivers = (Point.of(0, 0), Point.of(100, 0))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 0.0)], C)
    res = hyperbolic_residuals(receivers, rd, Point.of(50, 77))
    assert res[0] == 0.0


def test_residuals_hand_value():
    receivers = (Point.of(0, 0), Point.of(100, 0))
    rd = RangeDifferenceSet.from_range_differences(
        0, [(1, -17.082039324993687)], C)
    res = hyperbolic_residuals(receivers, rd, Point.of(0, 0))
    assert res[0] == pytest.approx(-82.91796067500631, abs=1e-9)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(62)
    rd = _deltas_from_truth(RECV_2D, Point.of(40, 30))

    def residual(x):
        return hyperbolic_residuals(RECV_2D, rd, Point.of(*x))

    for _ in range(20):
        q = rng.uniform(-300, 300, size=2)
        if min(np.linalg.norm(q - np.array(r.coords)) for r in RECV_2D) < 1e-3:
            continue
        J = hyperbolic_jacobian(RECV_2D, rd, Point.of(*q))
        J_fd = finite_difference_jacobian(residual, q, h=1e-5)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) < 1e-5


def test_locate_2d_roundtrip_reference_case():
    emitter = Point.of(40, 30)
    rd = _deltas_from_truth(RECV_2D, emitter)
    result = locate_emitter_2d(RECV_2D, rd)
    assert distance(result.estimate, emitter) < 1e-6
    assert result.converged
    # grid-search oracle agrees
    objective = hyperbolic_objective(RECV_2D, rd)
    node, value = grid_search(objective, [(0, 100), (0, 100)], 0.5)
    assert distance(node, emitter) <= 0.5 * math.sqrt(2.0) + 1e-9
    solver_obj = float(objective(np.array([result.estimate.coords]))[0])
    assert solver_obj <= value + 1e-12


def test_locate_2d_zero_deltas_circumcenter():
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 0.0), (2, 0.0)], C)
    result = locate_emitter_2d(RECV_2D, rd)
    dists = [distance(result.estimate, r) for r in RECV_2D]
    assert max(dists) - min(dists) < 1e-9
    assert result.estimate.coords == pytest.approx((50.0, 50.0), abs=1e-6)


def test_locate_2d_collinear_receivers():
    receivers = (Point.of(0, 0), Point.of(50, 0), Point.of(100, 0))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 1.0), (2, 2.0)], C)
    with pytest.raises(GeometryDegenerate):
        locate_emitter_2d(receivers, rd)


def test_locate_2d_roundtrip_seeded_trials():
    # Noise-free: the true emitter appears among the candidates within 1e-6 m.
    rng = np.random.default_rng(63)
    for _ in range(200):
        receivers, emitter, pairs = tdoa_roundtrip_case(rng)
        rd = RangeDifferenceSet.from_range_differences(0, pairs, C)
        result = locate_emitter_2d(receivers, rd)
        best = min(distance(p, emitter) for p, _ in result.candidates)
        assert best < 1e-6


def test_locate_2d_deterministic():
    emitter = Point.of(-320, 210)
    rd = _deltas_from_truth(RECV_2D, emitter)
    a = locate_emitter_2d(RECV_2D, rd)
    b = locate_emitter_2d(RECV_2D, rd)
    assert a == b


def test_locate_2d_scaling_covariance():
    emitter = Point.of(40, 30)
    rd = _deltas_from_truth(RECV_2D, emitter)
    scale = 7.5
    scaled_recv = tuple(Point.of(r.x * scale, r.y * scale) for r in RECV_2D)
    scaled_rd = RangeDifferenceSet.from_range_differences(
        0, [(d.other_index, d.delta_d * scale) for d in rd.deltas], C)
    base = locate_emitter_2d(RECV_2D, rd)
    scaled = locate_emitter_2d(scaled_recv, scaled_rd)
    assert scaled.estimate.x == pytest.approx(base.estimate.x * scale, abs=1e-6)
    assert scaled.estimate.y == pytest.approx(base.estimate.y * scale, abs=1e-6)


DRONES = (Point.of(0, 0, 100), Point.of(400, 0, 120), Point.of(0, 400, 140))


def test_locate_3d_ground_plane():
    emitter = Point.of(200, 150, 0)
    rd = _deltas_from_truth(DRONES, emitter)
    result = locate_emitter_3d(DRONES, rd, emitter_plane_z=0.0)
    assert result.estimate.z == 0.0
    assert distance(result.estimate, emitter) < 1e-4
    # grid-search oracle on the plane
    objective = hyperbolic_objective(DRONES, rd)
    node, value = grid_search(objective, [(100, 300), (50, 250), (0, 0)], 1.0)
    assert abs(node.x - 200) <= 1.0 and abs(node.y - 150) <= 1.0
    solver_obj = float(objective(np.array([result.estimate.coords]))[0])
    assert solver_obj <= value + 1e-12


def test_locate_3d_equidistant_emitter():
    # All deltas zero; the true point gives an exactly zero objective.
    emitter = Point.of(1000.0, 1000.0, 0.0)
    base = np.array([1000.0, 1000.0])
    drones = tuple(Point.of(base[0] + dx, base[1] + dy, 100.0)
                   for dx, dy in ((200, 0), (-100, 173.2050807568877),
                                  (-100, -173.2050807568877)))
    d = [distance(r, emitter) for r in drones]
    assert max(d) - min(d) < 1e-9
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 0.0), (2, 0.0)], C)
    res = hyperbolic_residuals(drones, rd, emitter)
    assert np.max(np.abs(res)) < 1e-9
    result = locate_emitter_3d(drones, rd, emitter_plane_z=0.0)
    assert distance(result.estimate, emitter) < 1e-6


def test_locate_3d_free_z_flagged():
    emitter = Point.of(200, 150, 0)
    rd = _deltas_from_truth(DRONES, emitter)
    result = locate_emitter_3d(DRONES, rd, emitter_plane_z=None)
    assert "under_determined" in result.flags
    res = hyperbolic_residuals(DRONES, rd, result.estimate)
    assert np.max(np.abs(res)) < 1e-6


def test_locate_3d_collinear():
    drones = (Point.of(0, 0, 100), Point.of(100, 0, 100), Point.of(200, 0, 100))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 1.0), (2, 2.0)], C)
    with pytest.raises(GeometryDegenerate):
        locate_emitter_3d(drones, rd)


def test_combined_direction_far_field():
    receivers = (Point.of(-1, 0), Point.of(1, 0))
    v = combined_direction(receivers, Point.of(0, 1e9))
    assert v.components == pytest.approx((0.0, 1.0), abs=1e-9)


def test_combined_direction_composition():
    emitter = Point.of(40, 30)
    expected = average_direction([direction_unit(r, emitter) for r in RECV_2D])
    assert combined_direction(RECV_2D, emitter) == expected


def test_combined_direction_single_receiver():
    v = combined_direction((Point.of(0, 0),), Point.of(3, 4))
    assert v.components == (0.6, 0.8)


def test_combined_direction_coincident():
    with pytest.raises(DegenerateDirection):
        combined_direction(RECV_2D, Point.of(0, 0))


def test_range_difference_set_validation():
    with pytest.raises(ValueError):
        RangeDifferenceSet(0, ((0, 1e-7, 30.0),))  # reference as "other"
    with pytest.raises(ValueError):
        RangeDifferenceSet(0, ((1, 1e-7, 30.0), (1, 2e-7, 60.0)))


def test_range_difference_set_non_finite_is_a_package_error():
    # An overflowing timing jitter reaches here; cli.run embeds the error.
    for delta in ((1, 1e300, math.inf), (1, math.nan, math.nan)):
        with pytest.raises(ValidationError) as info:
            RangeDifferenceSet(0, (delta,))
        assert info.value.field == "deltas"


def test_locate_2d_returns_both_branch_intersections():
    # The branches cross twice; both crossings reproduce the differences.
    emitter = Point.of(150, -60)
    rd = _deltas_from_truth(RECV_2D, emitter)
    result = locate_emitter_2d(RECV_2D, rd)
    assert len(result.candidates) == 2
    for p, norm in result.candidates:
        assert norm < 1e-9
        assert np.max(np.abs(hyperbolic_residuals(RECV_2D, rd, p))) < 1e-9
    assert min(distance(p, emitter) for p, _ in result.candidates) < 1e-9
    assert distance(result.candidates[0][0], result.candidates[1][0]) > 1.0
    # The primary estimate is the crossing nearer the receiver centroid.
    centroid = Point.of(100 / 3, 100 / 3)
    assert result.estimate == min((p for p, _ in result.candidates),
                                  key=lambda p: distance(p, centroid))


def test_locate_3d_far_field_candidates_distinct():
    # A 0.4 m drone cluster and emitters 5-6 km out (scenarios/pipeline_demo.json).
    # Far-field roots are ill-conditioned: each must be listed once, not as
    # near-copies, and the true emitter must be among at most two roots.
    drones = (Point.of(10.12, -4.91, 149.8), Point.of(9.87, -5.2, 150.0),
              Point.of(10.05, -4.77, 150.2))
    for emitter in (Point.of(5200, 1400, 0), Point.of(-4100, 4800, 0),
                    Point.of(-900, -6300, 0)):
        result = locate_emitter_3d(drones, _deltas_from_truth(drones, emitter))
        points = [p for p, _ in result.candidates]
        assert 1 <= len(points) <= 2
        if len(points) == 2:
            assert distance(points[0], points[1]) > 1e-6
        assert min(distance(p, emitter) for p in points) < 1e-5
        assert not result.flags


def test_locate_2d_hyperbolas_do_not_meet():
    # |d_1| and |d_2| are within the baselines, so each branch exists, but the
    # squared system's quadratic has a negative discriminant: the branches
    # never cross. The result is the least-squares point reached from the
    # quadratic's vertex, flagged, not an exception.
    receivers = (Point.of(0, 0), Point.of(1000, 0), Point.of(0, 1000))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, -630.0), (2, 810.0)], C)
    result = locate_emitter_2d(receivers, rd)
    assert result.flags == frozenset({"inconsistent"})
    assert result.converged
    assert result.residual_norm > 1.0
    res = hyperbolic_residuals(receivers, rd, result.estimate)
    assert float(np.linalg.norm(res)) == pytest.approx(result.residual_norm, rel=1e-12)
    # A stationary point of the squared residuals.
    J = hyperbolic_jacobian(receivers, rd, result.estimate)
    assert np.linalg.norm(J.T @ res) < 1e-6 * result.residual_norm
    assert result.candidates == ((result.estimate, result.residual_norm),)


def test_locate_2d_diverging_branches_keep_bearing():
    # Here the branches diverge: the squared residuals have no finite
    # minimizer and fall toward their infimum along the bearing u that best
    # fits the far-field differences d_k ~ (s_k - s_0) . u, i.e. (-1, 1)/sqrt(2).
    # The fallback run leaves the runaway radius along it: no estimate, but
    # the failure's best iterate keeps the bearing.
    receivers = (Point.of(0, 0), Point.of(1000, 0), Point.of(0, 1000))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, -720.0), (2, 720.0)], C)
    with pytest.raises(NoConvergence) as info:
        locate_emitter_2d(receivers, rd)
    result = info.value.best
    assert result.flags == frozenset({"inconsistent"}) and not result.converged
    far = np.array([result.estimate.x, result.estimate.y])
    assert np.linalg.norm(far) > 1e6
    assert far / np.linalg.norm(far) == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)],
                                                      abs=1e-3)


def test_locate_3d_far_field_branches_just_miss():
    # A 0.4 m drone cluster, an emitter ~8 km out and 3 mm of range noise:
    # the branches miss each other and the least-squares point lies tens of
    # km out along the emitter's bearing. A run from the quadratic's vertex
    # crawls along that valley and runs out of iterations; the run from the
    # point with the least far-field residual reaches it. The estimate comes
    # back flagged, at the noise level, on the emitter's bearing.
    drones = (Point.of(-41.719631020401685, 19.70410940598606, 191.4913272433419),
              Point.of(-41.83544315262567, 20.06958624297445, 191.68846925445155),
              Point.of(-41.77661741131997, 19.96450386822809, 191.88561126556118))
    rd = RangeDifferenceSet.from_range_differences(
        0, [(1, -0.3907613165884266), (2, -0.2702241153720354)], C)
    result = locate_emitter_3d(drones, rd, emitter_plane_z=0.0)
    assert result.flags == frozenset({"inconsistent"}) and result.converged
    assert result.residual_norm < 0.01
    bearing = math.atan2(result.estimate.y - 19.9, result.estimate.x + 41.8)
    assert bearing == pytest.approx(math.atan2(-7714.9 - 19.9, 2508.0 + 41.8), abs=0.05)


def test_locate_3d_parallel_linearized_rows():
    # Drones in one vertical plane with d_2 = 2 d_1: the two squared equations
    # have parallel rows, so there is no closed-form line to search. The
    # fallback run starts from the drone centroid and its least-squares
    # point comes back flagged.
    drones = (Point.of(0, 0, 100), Point.of(100, 0, 150), Point.of(200, 0, 120))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 10.0), (2, 20.0)], C)
    result = locate_emitter_3d(drones, rd, emitter_plane_z=0.0)
    assert result.flags == frozenset({"inconsistent"})
    assert result.estimate.z == 0.0 and result.residual_norm > 1.0
    res = hyperbolic_residuals(drones, rd, result.estimate)
    assert float(np.linalg.norm(res)) == pytest.approx(result.residual_norm, rel=1e-12)


def test_locate_2d_near_tangent_limit():
    # Branches crossing almost tangentially (Jacobian sigma_min ~ 9e-8) 10 km
    # out. Rounding the differences to float64 moves the exact root along the
    # branches by ~ulp / sigma_min: the returned root reproduces the given
    # differences to the residual floor but lies 5.5e-6 m from the emitter
    # they were computed from, beyond criterion 3's 1e-6 m. About 1 in 4,500
    # random round-trip cases are like this one; the distance is bounded by
    # the conditioning, not by the solver.
    receivers = (Point.of(-25.814673143228674, 709.0416618385482),
                 Point.of(-478.2913255998525, 758.5592218065922),
                 Point.of(267.06328842875496, -539.9102004661636))
    emitter = Point.of(2488.009657003277, -10009.236275003837)
    rd = RangeDifferenceSet.from_range_differences(
        0, [(1, -159.77828150915775), (2, 1282.8321216788809)], C)
    result = locate_emitter_2d(receivers, rd)
    sigma_min = np.linalg.svd(hyperbolic_jacobian(receivers, rd, emitter))[1][-1]
    floor = 8 * np.finfo(float).eps * 1e4   # a few ulps of the coordinates
    err = min(distance(p, emitter) for p, _ in result.candidates)
    assert result.residual_norm <= floor and not result.flags
    assert err <= floor / sigma_min
