"""Arrival differences, hyperbolic residuals, and emitter localization."""

import math

import numpy as np
import pytest

from conftest import pipeline_raw_scenario, sample_triangle_2d, tdoa_roundtrip_case
from rfloc import tdoa
from rfloc import (
    ArrivalSet,
    Point,
    RangeDifferenceSet,
    Scenario,
    arrival_deltas,
    distance,
    finite_difference_jacobian,
    grid_search,
    hyperbolic_jacobian,
    hyperbolic_objective,
    hyperbolic_residuals,
    locate_emitter,
    simulate_arrivals,
)
from rfloc.errors import (
    DimensionError,
    GeometryDegenerate,
    InsufficientReceivers,
    NoConvergence,
    RflocError,
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


def test_deltas_emitter_index_out_of_range():
    # Checked like the reference index: -1 is refused, not read as the last emitter.
    arrivals = ArrivalSet(np.array([[1e-7, 4e-7], [2e-7, 5e-7], [3e-7, 6e-7]]))
    for index in (-1, -2, 2):
        with pytest.raises(IndexError, match="emitter index"):
            arrival_deltas(arrivals, index, 0, C)
    for index in (-1, 3):
        with pytest.raises(IndexError, match="reference index"):
            arrival_deltas(arrivals, 0, index, C)


@pytest.mark.parametrize("emitters", [1, 2])
@pytest.mark.parametrize("field", ["emitter_index", "reference_index"])
@pytest.mark.parametrize("index", [1.0, 0.5, True, np.True_, "0", None], ids=repr)
def test_arrival_deltas_refuses_an_index_that_is_not_an_integer(index, field, emitters):
    # 1.0 raised a bare TypeError from slicing and 0.5 numpy's IndexError;
    # True was a boolean mask with two emitters and "out of range" with one.
    arrivals = ArrivalSet(np.arange(1.0, 1.0 + 3 * emitters).reshape(3, emitters) * 1e-7)
    args = {"emitter_index": 0, "reference_index": 0, field: index}
    with pytest.raises(ValidationError, match=f"^{field} must be an integer") as info:
        arrival_deltas(arrivals, args["emitter_index"], args["reference_index"], C)
    assert info.value.field == field


def test_arrival_deltas_takes_numpy_integer_indices():
    arrivals = ArrivalSet(np.array([[1e-7, 4e-7], [2e-7, 5e-7], [3e-7, 6e-7]]))
    assert arrival_deltas(arrivals, np.int64(1), np.uint8(2), C) == \
        arrival_deltas(arrivals, 1, 2, C)


_RECEIVERS_2D = (Point.of(0, 0), Point.of(100, 0), Point.of(0, 100))
_RD = RangeDifferenceSet.from_range_differences(0, [(1, -17.0), (2, 12.5)], C)


@pytest.mark.parametrize("receivers, rd, at, error, match", [
    ((Point.of(0, 0), Point.of(100, 0), Point.of(0, 100, 5)), _RD, Point.of(1, 1),
     DimensionError, "receivers must share one dimension"),
    (_RECEIVERS_2D, RangeDifferenceSet.from_range_differences(3, [(1, -17.0)], C),
     Point.of(1, 1), IndexError, "reference index 3"),
    (_RECEIVERS_2D, RangeDifferenceSet.from_range_differences(0, [(1, -17.0), (3, 1.0)], C),
     Point.of(1, 1), IndexError, "receiver index 3"),
    (_RECEIVERS_2D, _RD, Point.of(1, 1, 1), DimensionError, "point 3D, receivers 2D"),
], ids=["mixed-dims", "reference", "other", "point-dim"])
def test_receiver_checks_of_residuals_and_jacobian(receivers, rd, at, error, match):
    for evaluate in (hyperbolic_residuals, hyperbolic_jacobian):
        with pytest.raises(error, match=match):
            evaluate(receivers, rd, at)


def test_no_receivers_is_the_reference_index_error():
    # receivers[0] was read before the index checks: a bare IndexError.
    rd = RangeDifferenceSet(0, ())
    for evaluate in (lambda: hyperbolic_residuals([], rd, Point.of(1, 1)),
                     lambda: hyperbolic_jacobian([], rd, Point.of(1, 1)),
                     lambda: hyperbolic_objective([], rd)):
        with pytest.raises(IndexError, match="^reference index 0 out of range$"):
            evaluate()


def test_locate_emitter_needs_three_receivers_and_two_differences():
    with pytest.raises(ValueError, match="exactly 3 receivers, got 2"):
        locate_emitter(_RECEIVERS_2D[:2], RangeDifferenceSet.from_range_differences(
            0, [(1, -17.0)], C))
    with pytest.raises(ValueError, match="exactly 2 receiver pairs"):
        locate_emitter(_RECEIVERS_2D, RangeDifferenceSet.from_range_differences(
            0, [(1, -17.0)], C))


def test_arrival_deltas_equal_the_batched_rule():
    # arrival_deltas is the batched rule c (t_ref - t_k) of the CLI's sweeps,
    # read for one emitter: the same bits for every reference receiver, and
    # delta_t is the rule with c = 1.
    rng = np.random.default_rng(63)
    for n_receivers in (2, 3, 5):
        times = rng.uniform(1e-7, 5e-5, size=(n_receivers, 4)) * \
            rng.choice([1.0, 1e3], size=(n_receivers, 1))
        c = float(rng.uniform(1e8, 3e8))
        for ref in range(n_receivers):
            batched = tdoa._range_differences(times, c, ref)
            delays = tdoa._range_differences(times, 1.0, ref)
            others = [k for k in range(n_receivers) if k != ref]
            for e in range(times.shape[1]):
                rd = arrival_deltas(ArrivalSet(times), e, ref, c)
                assert [d.other_index for d in rd.deltas] == others
                assert np.array([d.delta_d for d in rd.deltas]).tobytes() == \
                    batched[e].tobytes()
                assert np.array([d.delta_t for d in rd.deltas]).tobytes() == \
                    delays[e].tobytes()
                assert [d.delta_t for d in rd.deltas] == \
                    [times[ref, e] - times[k, e] for k in others]


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


@pytest.mark.parametrize("plane", [0.0, 0.5, -3.0])
def test_plane_and_3d_jacobians_match_finite_differences(plane):
    # The solvers iterate the plane-pinned model of _closures; its Jacobian
    # and the 3D hyperbolic_jacobian it is cut from, against drone triangles
    # with heights, at criterion 6's 1e-5 relative bound.
    rng = np.random.default_rng(63)
    for _ in range(20):
        recv = np.column_stack((rng.uniform(-400, 400, (3, 2)), rng.uniform(50, 250, 3)))
        emitter = np.array([*rng.uniform(-2000, 2000, 2), plane])
        d = np.linalg.norm(recv - emitter, axis=1)
        deltas = d[:1] - d[1:]
        residual, jacobian = tdoa._closures(recv, deltas, plane)
        q = rng.uniform(-2000, 2000, 2)
        J, J_fd = jacobian(q), finite_difference_jacobian(residual, q, h=1e-5)
        assert J.shape == (2, 2)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) < 1e-5

        receivers = tuple(Point.of(*r) for r in recv)
        rd = RangeDifferenceSet.from_range_differences(0, [(1, deltas[0]), (2, deltas[1])], C)
        q3 = np.array([*q, rng.uniform(-300, 300)])
        if min(np.linalg.norm(q3 - r) for r in recv) < 1.0:
            continue
        J3 = hyperbolic_jacobian(receivers, rd, Point.of(*q3))
        J3_fd = finite_difference_jacobian(
            lambda x: hyperbolic_residuals(receivers, rd, Point.of(*x)), q3, h=1e-5)
        assert np.linalg.norm(J3 - J3_fd) / np.linalg.norm(J3) < 1e-5
        assert np.array_equal(jacobian(q), hyperbolic_jacobian(
            receivers, rd, Point.of(*q, plane))[:, :2])


def test_locate_2d_roundtrip_reference_case():
    emitter = Point.of(40, 30)
    rd = _deltas_from_truth(RECV_2D, emitter)
    result = locate_emitter(RECV_2D, rd)
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
    result = locate_emitter(RECV_2D, rd)
    dists = [distance(result.estimate, r) for r in RECV_2D]
    assert max(dists) - min(dists) < 1e-9
    assert result.estimate.coords == pytest.approx((50.0, 50.0), abs=1e-6)


def test_locate_2d_collinear_receivers():
    receivers = (Point.of(0, 0), Point.of(50, 0), Point.of(100, 0))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 1.0), (2, 2.0)], C)
    with pytest.raises(GeometryDegenerate):
        locate_emitter(receivers, rd)


def test_locate_2d_roundtrip_seeded_trials():
    # Noise-free: the true emitter appears among the candidates within 1e-6 m.
    rng = np.random.default_rng(63)
    for _ in range(200):
        receivers, emitter, pairs = tdoa_roundtrip_case(rng)
        rd = RangeDifferenceSet.from_range_differences(0, pairs, C)
        result = locate_emitter(receivers, rd)
        best = min(distance(p, emitter) for p, _ in result.candidates)
        assert best < 1e-6


def test_locate_2d_deterministic():
    emitter = Point.of(-320, 210)
    rd = _deltas_from_truth(RECV_2D, emitter)
    a = locate_emitter(RECV_2D, rd)
    b = locate_emitter(RECV_2D, rd)
    assert a == b


def test_locate_2d_scaling_covariance():
    emitter = Point.of(40, 30)
    rd = _deltas_from_truth(RECV_2D, emitter)
    scale = 7.5
    scaled_recv = tuple(Point.of(r.x * scale, r.y * scale) for r in RECV_2D)
    scaled_rd = RangeDifferenceSet.from_range_differences(
        0, [(d.other_index, d.delta_d * scale) for d in rd.deltas], C)
    base = locate_emitter(RECV_2D, rd)
    scaled = locate_emitter(scaled_recv, scaled_rd)
    assert scaled.estimate.x == pytest.approx(base.estimate.x * scale, abs=1e-6)
    assert scaled.estimate.y == pytest.approx(base.estimate.y * scale, abs=1e-6)


DRONES = (Point.of(0, 0, 100), Point.of(400, 0, 120), Point.of(0, 400, 140))


def test_locate_3d_ground_plane():
    emitter = Point.of(200, 150, 0)
    rd = _deltas_from_truth(DRONES, emitter)
    result = locate_emitter(DRONES, rd, emitter_plane_z=0.0)
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
    result = locate_emitter(drones, rd, emitter_plane_z=0.0)
    assert distance(result.estimate, emitter) < 1e-6


def test_locate_3d_refuses_a_free_height():
    # Two range differences cannot fix three coordinates: the plane is
    # required, and anything but a finite number is a typed input error,
    # an int beyond the float range included.
    rd = _deltas_from_truth(DRONES, Point.of(200, 150, 0))
    for plane in (None, math.nan, math.inf, "0", 10**400, -10**400):
        with pytest.raises(ValidationError) as info:
            locate_emitter(DRONES, rd, emitter_plane_z=plane)
        assert isinstance(info.value, RflocError) and info.value.field == "emitter_plane_z"


def test_locate_2d_receivers_take_only_the_plane_z0():
    # 2D receivers are solved on the plane z = 0: any zero names that plane,
    # and another plane, None or a bool is refused rather than ignored.
    rd = _deltas_from_truth(RECV_2D, Point.of(40, 30))
    base = locate_emitter(RECV_2D, rd)
    assert base.estimate.dim == 2 and all(p.dim == 2 for p, _ in base.candidates)
    for plane in (0, 0.0, -0.0, np.float64(0.0)):
        assert locate_emitter(RECV_2D, rd, plane) == base
    for plane in (1.0, -3, None, math.nan, False, True):
        with pytest.raises(ValidationError) as info:
            locate_emitter(RECV_2D, rd, emitter_plane_z=plane)
        assert info.value.field == "emitter_plane_z"


def test_locate_3d_refuses_a_bool_plane():
    # True is not the plane z = 1, nor False the ground.
    rd = _deltas_from_truth(DRONES, Point.of(200, 150, 1))
    for plane in (True, False, np.bool_(True)):
        with pytest.raises(ValidationError) as info:
            locate_emitter(DRONES, rd, emitter_plane_z=plane)
        assert info.value.field == "emitter_plane_z"
    result = locate_emitter(DRONES, rd, 1)
    assert result.estimate.z == 1.0 and distance(result.estimate, Point.of(200, 150, 1)) < 1e-4


def test_locate_3d_collinear():
    drones = (Point.of(0, 0, 100), Point.of(100, 0, 100), Point.of(200, 0, 100))
    rd = RangeDifferenceSet.from_range_differences(0, [(1, 1.0), (2, 2.0)], C)
    with pytest.raises(GeometryDegenerate):
        locate_emitter(drones, rd)


def test_range_difference_set_validation():
    with pytest.raises(ValueError):
        RangeDifferenceSet(0, ((0, 1e-7, 30.0),))  # reference as "other"
    with pytest.raises(ValueError):
        RangeDifferenceSet(0, ((1, 1e-7, 30.0), (1, 2e-7, 60.0)))


@pytest.mark.parametrize("reference, other", [(0, 1.5), (0, 1.0), (1.0, 0), (0, True),
                                              (False, 1), (0, "1"), (0, None)])
def test_range_difference_set_refuses_an_index_that_is_not_an_integer(reference, other):
    # 1.5 was truncated to receiver 1, and a reference of 1.0 was stored and
    # failed later with a TypeError.
    for build in (lambda: RangeDifferenceSet(reference, ((other, 1e-7, 30.0),)),
                  lambda: RangeDifferenceSet.from_range_differences(reference, [(other, 30.0)],
                                                                    C)):
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.field == "deltas"


@pytest.mark.parametrize("values, deltas", [
    *(pytest.param("delta_t, delta_d", d, id=repr(d)) for d in (
        ((1, 2.0),), (1, 2, 3), ((1, 1e-8, 3.0, 9),), ((1, "x", 3.0),), ((1, None, 3.0),),
        ((1, True, 3.0),), ((1, 1e-8, False),), ((1, 1e-8, 3.0 + 0j),), (None,), ("abc",))),
    *(pytest.param("delta_d", p, id=f"pairs={p!r}") for p in (
        [(1,)], [(1, "x")], [5], [(1, None)], [(1, True)], [(1, 2.0, 3.0)], ["ab"])),
])
def test_range_difference_set_refuses_a_malformed_entry(values, deltas):
    # Entries are exactly (integer index, real delta_t, real delta_d), and the
    # pairs of from_range_differences (integer index, real delta_d). A short
    # entry raised a bare IndexError, a flat set of numbers a bare TypeError,
    # a string or None a bare ValueError or TypeError; a fourth item was
    # dropped and a bool stored as 1.0. A pair was unpacked and divided before
    # any check: a short one raised a bare ValueError, a string or a bare
    # number a bare TypeError.
    with pytest.raises(ValidationError, match=rf"is not \(index, {values}\)") as info:
        if values == "delta_d":
            RangeDifferenceSet.from_range_differences(0, deltas, C)
        else:
            RangeDifferenceSet(0, deltas)
    assert info.value.field == "deltas"


def test_range_difference_set_takes_lists_and_numpy_numbers():
    rd = RangeDifferenceSet(0, ([1, np.float32(0.5), np.float64(2.0)], (2, 1, -3)))
    assert rd.deltas == ((1, 0.5, 2.0), (2, 1.0, -3.0))
    assert all(type(v) is float for d in rd.deltas for v in d[1:])


def test_range_difference_set_takes_numpy_integer_indices():
    rd = RangeDifferenceSet(np.int64(1), ((np.int32(0), 1e-7, 30.0), (np.uint8(2), 0.0, 0.0)))
    assert (rd.reference_index, [d.other_index for d in rd.deltas]) == (1, [0, 2])
    assert rd == RangeDifferenceSet(1, ((0, 1e-7, 30.0), (2, 0.0, 0.0)))
    recv = (Point.of(0, 0), Point.of(100, 0), Point.of(0, 100))
    assert hyperbolic_residuals(recv, rd, Point.of(3, 4)).tolist() == \
        hyperbolic_residuals(recv, RangeDifferenceSet(1, rd.deltas), Point.of(3, 4)).tolist()


def test_range_difference_set_non_finite_is_a_package_error():
    # An overflowing timing jitter reaches here; cli.run embeds the error. A
    # pair's int past the float range raised a bare OverflowError when divided.
    for build in (lambda: RangeDifferenceSet(0, ((1, 1e300, math.inf),)),
                  lambda: RangeDifferenceSet(0, ((1, math.nan, math.nan),)),
                  lambda: RangeDifferenceSet(0, ((1, 1e-8, 10 ** 400),)),
                  *(lambda dd=dd: RangeDifferenceSet.from_range_differences(0, [(1, dd)], C)
                    for dd in (math.inf, math.nan, 10 ** 400))):
        with pytest.raises(ValidationError, match="^non-finite range difference$") as info:
            build()
        assert info.value.field == "deltas"


@pytest.mark.parametrize("c", [0.0, -3e8, math.inf, math.nan, True, "3e8", None, 3e8 + 0j,
                               10 ** 400])
def test_public_constructors_refuse_a_speed_scenario_refuses(c):
    # A zero c divided by zero, a negative one flipped every delta_t and a
    # zero one made every difference 0; True simulated at 1 m/s, and a
    # string, None, a complex or an int beyond the float range raised a bare
    # TypeError or OverflowError. Each is now Scenario's ValidationError.
    arrivals = ArrivalSet(np.array([[2e-7], [1e-7]]))
    for build in (lambda: RangeDifferenceSet.from_range_differences(0, [(1, 5.0)], c),
                  lambda: arrival_deltas(arrivals, 0, 0, c)):
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.field == "c"
    with pytest.raises(ValidationError) as info:
        Scenario(emitters=(Point.of(1, 2),), receivers=(Point.of(0, 0),), c=c)
    assert info.value.field == "c"


def test_locate_2d_returns_both_branch_intersections():
    # The branches cross twice; both crossings reproduce the differences.
    emitter = Point.of(150, -60)
    rd = _deltas_from_truth(RECV_2D, emitter)
    result = locate_emitter(RECV_2D, rd)
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
        result = locate_emitter(drones, _deltas_from_truth(drones, emitter))
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
    result = locate_emitter(receivers, rd)
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
        locate_emitter(receivers, rd)
    result = info.value.best
    assert result.flags == frozenset({"inconsistent"}) and not result.converged
    far = np.array([result.estimate.x, result.estimate.y])
    assert np.linalg.norm(far) > 1e6
    assert far / np.linalg.norm(far) == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)],
                                                      abs=1e-3)


def test_roots_and_fallback_share_one_runaway_center(monkeypatch):
    # A root's runaway radius is measured from the receivers' planar
    # centroid, as the fallback's iterate is. With a radius of 2 diameters
    # (2.83), this emitter is 2.64 from the centroid but 3.11 from
    # receiver 0: the closed-form root is admissible.
    monkeypatch.setattr(tdoa, "_RUNAWAY_DIAMS", 2.0)
    receivers = (Point.of(0, 0), Point.of(1, 0), Point.of(0, 1))
    truth = Point.of(2.2, 2.2)
    radius = 2.0 * math.sqrt(2.0)
    assert distance(truth, Point.of(1 / 3, 1 / 3)) < radius < distance(truth, receivers[0])
    result = locate_emitter(receivers, _deltas_from_truth(receivers, truth))
    assert result.iterations == 0 and result.converged
    assert distance(result.estimate, truth) < 1e-9


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
    result = locate_emitter(drones, rd, emitter_plane_z=0.0)
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
    result = locate_emitter(drones, rd, emitter_plane_z=0.0)
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
    result = locate_emitter(receivers, rd)
    sigma_min = np.linalg.svd(hyperbolic_jacobian(receivers, rd, emitter))[1][-1]
    floor = 8 * np.finfo(float).eps * 1e4   # a few ulps of the coordinates
    err = min(distance(p, emitter) for p, _ in result.candidates)
    assert result.residual_norm <= floor and not result.flags
    assert err <= floor / sigma_min


def _lift(recv):
    """2D receivers (3, 2) as the 3D rows a 2D solve uses, on the plane z = 0."""
    return np.column_stack((recv, np.zeros(len(recv))))


def _batch_rows(recv, deltas, fixed_z, dim):
    """Each row of one _fixes call and of a call on that row alone, as the
    repr of its closed-form estimate and of what fix(k) gives: the
    SolveResult, or the error's type name, message and best iterate. Returns
    each row's closed-form root count, 0 for a row that runs the fallback."""
    def meaning(closed, fix, k):
        try:
            outcome = fix(k)
        except RflocError as exc:
            outcome = (type(exc).__name__, str(exc), getattr(exc, "best", None))
        return repr((closed[k], outcome)), outcome

    closed, fix = tdoa._fixes(recv, deltas, fixed_z, dim)
    counts = []
    for k in range(len(deltas)):
        together, outcome = meaning(closed, fix, k)
        assert together == meaning(*tdoa._fixes(recv, deltas[k:k + 1], fixed_z, dim), 0)[0], k
        counts.append(0 if closed[k] is None else len(outcome.candidates))
    return counts


def test_plane_batch_rows_equal_single_row_solves():
    # One _fixes call over many rows gives each row the bits of a call on
    # that row alone: roots in candidate order and their norms, or the
    # Gauss-Newton fallback's result or error for rows with no root, which
    # shows that each picked the start it would pick alone. The rows mix exact, noisy, diverging and overflowing
    # differences.
    rng = np.random.default_rng(97)
    counts = []
    for trial in range(12):
        recv = rng.uniform(-1000, 1000, size=(3, 2))
        emitters = recv.mean(axis=0) + rng.uniform(-2e4, 2e4, size=(40, 2)) * \
            rng.choice([0.01, 0.1, 1.0], size=(40, 1))
        d = np.linalg.norm(emitters[:, None] - recv, axis=2)
        deltas = d[:, :1] - d[:, 1:] + rng.normal(0.0, 1.0, (40, 1)) * \
            rng.choice([0.0, 1e-3, 1.0, 100.0], size=(40, 1))
        counts += _batch_rows(_lift(recv), deltas, 0.0, 2)
    # The near-tangent row, branches that do not meet, branches that
    # diverge, all-zero and overflowing differences.
    recv = np.array([[-25.814673143228674, 709.0416618385482],
                     [-478.2913255998525, 758.5592218065922],
                     [267.06328842875496, -539.9102004661636]])
    counts += _batch_rows(_lift(recv), np.array([[-159.77828150915775, 1282.8321216788809],
                                                 [0.0, 0.0], [1e300, -3.0]]), 0.0, 2)
    square = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]])
    counts += _batch_rows(_lift(square), np.array([[-630.0, 810.0], [-720.0, 720.0],
                                                   [100.0, 50.0], [1e300, 1e300]]), 0.0, 2)
    assert {0, 1, 2} <= set(counts)


def test_plane_batch_rows_equal_single_row_solves_3d():
    # Receivers above the emitter plane: drone clusters of several sizes over
    # ground emitters (plane 0 or 0.5), and drones in one vertical plane whose
    # linearized rows are parallel (no line, the centroid as start).
    rng = np.random.default_rng(98)
    counts = []
    for trial in range(12):
        spread = [0.25, 5.0, 300.0][trial % 3]
        recv = np.array([0.0, 0.0, 150.0]) + rng.uniform(-spread, spread, size=(3, 3))
        plane = [0.0, 0.5][trial % 2]
        emitters = np.column_stack([rng.uniform(-8000, 8000, size=(30, 2)),
                                    np.full(30, plane)])
        d = np.linalg.norm(emitters[:, None] - recv, axis=2)
        deltas = d[:, :1] - d[:, 1:] + rng.normal(0.0, 1.0, (30, 1)) * \
            rng.choice([0.0, 1e-4, 1e-2, 1.0], size=(30, 1))
        counts += _batch_rows(recv, deltas, plane, 3)
    drones = np.array([[0.0, 0.0, 100.0], [100.0, 0.0, 150.0], [200.0, 0.0, 120.0]])
    counts += _batch_rows(drones, np.array([[10.0, 20.0], [10.0, 5.0], [1e300, 0.0]]), 0.0, 3)
    assert {0, 1, 2} <= set(counts)


def test_batched_fixes_equal_public_solves():
    # _fixes over many rows returns what locate_emitter gives each row.
    rng = np.random.default_rng(99)
    recv = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]])
    emitters = rng.uniform(-3000, 3000, size=(10, 2))
    d = np.linalg.norm(emitters[:, None] - recv, axis=2)
    deltas = d[:, :1] - d[:, 1:] + rng.normal(0.0, 30.0, (10, 2))
    receivers = tuple(Point.of(*r) for r in recv)
    closed, fix = tdoa._fixes(_lift(recv), deltas, 0.0, 2)
    assert len(closed) == len(deltas)
    for k, row in enumerate(deltas):
        rd = RangeDifferenceSet.from_range_differences(0, [(1, row[0]), (2, row[1])], C)
        result = fix(k)
        assert result == locate_emitter(receivers, rd)
        if closed[k] is not None:
            assert closed[k] == (result.estimate.coords, result.residual_norm)


def test_batched_fixes_equal_public_solves_3d():
    # The same for 3D receivers over a raised emitter plane: each row of
    # _fixes is what locate_emitter gives, a 3D point on that plane or the
    # same error.
    rng = np.random.default_rng(98)
    recv = np.array([[10.0, -5.0, 150.0], [400.0, 3.0, 160.0], [-20.0, 380.0, 140.0]])
    plane = 12.5
    emitters = np.column_stack([rng.uniform(-3000, 3000, size=(20, 2)), np.full(20, plane)])
    d = np.linalg.norm(emitters[:, None] - recv, axis=2)
    noise = np.tile([0.0, 1.0, 30.0, 300.0], 5)[:, None]
    deltas = d[:, :1] - d[:, 1:] + rng.normal(0.0, 1.0, (20, 2)) * noise
    receivers = tuple(Point.of(*r) for r in recv)
    _closed, fix = tdoa._fixes(recv, deltas, plane, 3)
    kinds = set()
    for k, row in enumerate(deltas):
        rd = RangeDifferenceSet.from_range_differences(0, [(1, row[0]), (2, row[1])], C)
        alone = _planar_outcome(lambda: locate_emitter(receivers, rd, plane))
        assert _planar_outcome(lambda: fix(k)) == alone
        if alone[0] == "ok":
            assert alone[1][2] == plane.hex()
        kinds.add(alone[0])
    assert kinds == {"ok", "NoConvergence"}


def _roundtrip_geometries(rng):
    """Noise-free problems as (recv (3, 3), deltas (N, 2), dim), N emitters on
    the plane z = 0 each: criterion-3 triangles, the same triangles with
    receiver heights of 0-300 m, and pipeline clusters."""
    for heights in (False, True):
        for _ in range(100):
            recv = _lift(sample_triangle_2d(rng))
            if heights:
                recv[:, 2] = rng.uniform(0.0, 300.0, 3)
            diam = max(np.linalg.norm(recv[i] - recv[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            theta = rng.uniform(0.0, 2.0 * np.pi, 10)
            radius = rng.uniform(0.0, 10.0, 10) * diam
            emitters = np.zeros((10, 3))
            emitters[:, :2] = recv[:, :2].mean(axis=0) + radius[:, None] * np.column_stack(
                (np.cos(theta), np.sin(theta)))
            yield recv, emitters, 3 if heights else 2
    for _ in range(300):
        raw = pipeline_raw_scenario(rng)["scenario"]
        yield np.array(raw["receivers"]), np.array(raw["emitters"]), 3


def test_closed_form_roots_reach_the_rounding_floor():
    # Without a Newton polish, every root of a noise-free round trip is the
    # closed form's own: each candidate fits the differences to 1e-7 m (about
    # 1e-8 m at most over 1e6 such solves), and none is flagged inconsistent.
    rng = np.random.default_rng(2026)
    solves = 0
    for recv, emitters, dim in _roundtrip_geometries(rng):
        d = np.linalg.norm(emitters[:, None] - recv, axis=2)
        deltas = d[:, :1] - d[:, 1:]
        closed, fix = tdoa._fixes(recv, deltas, 0.0, dim)
        for k in range(len(deltas)):
            result = fix(k)
            assert closed[k] is not None and not result.flags
            assert max(norm for _, norm in result.candidates) <= 1e-7
            solves += 1
    assert solves == 2900


def _planar_outcome(solve):
    """A solve's result or error as the hex of what a 2D solve and the same
    solve on the plane z = 0 share: every point's x, y and z, the norms,
    iterations, convergence and flags, and an error's type, message and
    best iterate."""
    def result(r):
        def xyz(p):
            return (p.x.hex(), p.y.hex(), p.z.hex())
        return (xyz(r.estimate), [(xyz(p), n.hex()) for p, n in r.candidates],
                r.residual_norm.hex(), r.iterations, r.converged, sorted(r.flags))
    try:
        return ("ok",) + result(solve())
    except NoConvergence as exc:
        return ("NoConvergence", str(exc), None if exc.best is None else result(exc.best))
    except RflocError as exc:
        return (type(exc).__name__, str(exc))


def test_locate_2d_equals_the_plane_z0_solve():
    # A 2D solve is the 3D solve of the same receivers lifted to z = 0 with
    # the emitter on that plane, to the bit: roots, no-root fallbacks and
    # diverging rows alike, from exact differences to 100 m of noise.
    rng = np.random.default_rng(71)
    kinds = set()
    for _ in range(300):
        scale = 10.0 ** rng.uniform(0.0, 5.0)
        recv = rng.uniform(-scale, scale, size=(3, 2))
        emitter = recv.mean(axis=0) + rng.uniform(-3.0, 3.0, size=2) * scale
        d = np.linalg.norm(emitter - recv, axis=1)
        deltas = d[0] - d[1:] + rng.normal(0.0, 1.0, 2) * rng.choice([0.0, 1e-3, 1.0, 100.0])
        rd = RangeDifferenceSet.from_range_differences(
            0, [(1, float(deltas[0])), (2, float(deltas[1]))], C)
        flat = tuple(Point.of(*r) for r in recv)
        lifted = tuple(Point.of(*r, 0.0) for r in recv)
        alone = _planar_outcome(lambda: locate_emitter(flat, rd))
        assert alone == _planar_outcome(lambda: locate_emitter(lifted, rd, 0.0))
        kinds.add(alone[0] if alone[0] != "ok" else
                  "inconsistent" if alone[-1] else f"{len(alone[2])} roots")
    assert kinds == {"1 roots", "2 roots", "inconsistent", "NoConvergence"}
