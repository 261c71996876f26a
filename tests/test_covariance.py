"""Symmetries of the closed forms, checked on seeded noise-free geometries.

Rotating receivers and emitters about the z axis rotates the candidate set
of every solve: locate_emitter with 2D receivers and with 3D receivers over
an emitter plane, trilaterate in 2D and 3D, and team_relative_position on
criterion-4 formations. Swapping the two range differences of receivers
set mirror-symmetrically about x = 0 mirrors the emitter (the sign and
index convention of RangeDifferenceSet).

The rotated problem is another set of floats, so its roots move by the
rounding of its coordinates, and a far root by more (its range is poorly
conditioned). The tolerance was fixed before these tests ran: 1e-5 m plus
1e-8 of the candidate's distance from the receivers' (or anchors') centroid.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import consistent_trilat_case, pipeline_raw_scenario, tdoa_roundtrip_case
from rfloc import (Point, RangeDifferenceSet, TrilaterationProblem, locate_emitter,
                   team_relative_position, trilaterate)

C = 3e8


def _rotate(points, angle):
    """points rotated by angle (radians) about the z axis through the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return tuple(Point.of(c * p.x - s * p.y, s * p.x + c * p.y, *p.coords[2:]) for p in points)


def _assert_moved(before, after, move, around):
    """The candidates after are those before moved by move, one for one,
    within 1e-5 m plus 1e-8 of their distance from the centroid of around."""
    expected = move([p for p, _ in before.candidates])
    got = [p for p, _ in after.candidates]
    assert len(got) == len(expected)
    center = np.mean([p.coords for p in around], axis=0)
    tol = [1e-5 + 1e-8 * math.dist(q.coords, center) for q in expected]
    assert any(all(math.dist(q.coords, p.coords) <= t for q, p, t in zip(expected, order, tol))
               for order in itertools.permutations(got)), (expected, got)


def _differences(receivers, emitter):
    """The exact range differences of emitter at receivers, reference 0."""
    d = [math.dist(r.coords, emitter) for r in receivers]
    return RangeDifferenceSet.from_range_differences(0, [(1, d[0] - d[1]), (2, d[0] - d[2])], C)


def _rotated_locate(receivers, rd, plane, angle):
    before = locate_emitter(receivers, rd, plane)
    turned = _rotate(receivers, angle)
    _assert_moved(before, locate_emitter(turned, rd, plane),
                  lambda points: _rotate(points, angle), turned)


def test_rotation_rotates_the_2d_emitter_roots():
    rng = np.random.default_rng(3101)
    for _ in range(150):
        receivers, _, pairs = tdoa_roundtrip_case(rng)
        rd = RangeDifferenceSet.from_range_differences(0, pairs, C)
        _rotated_locate(receivers, rd, 0.0, rng.uniform(0.0, 2.0 * math.pi))


def test_rotation_rotates_the_emitter_roots_on_a_plane():
    # Drone clusters of several sizes over emitters on the ground or on a
    # raised plane: the plane z = const is its own image.
    rng = np.random.default_rng(3102)
    for trial in range(150):
        doc = pipeline_raw_scenario(rng, spread=[0.25, 5.0, 300.0][trial % 3])
        receivers = tuple(Point.of(*r) for r in doc["scenario"]["receivers"])
        plane = [0.0, 35.0][trial % 2]
        x, y, _ = doc["scenario"]["emitters"][trial % 3]
        rd = _differences(receivers, (x, y, plane))
        _rotated_locate(receivers, rd, plane, rng.uniform(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("dim", [2, 3])
def test_rotation_rotates_the_trilateration_roots(dim):
    # In 3D both mirror roots about the anchor plane come back, rotated.
    rng = np.random.default_rng(3103 + dim)
    for _ in range(150):
        anchors, ranges, _ = consistent_trilat_case(rng, dim)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        turned = _rotate(anchors, angle)
        _assert_moved(trilaterate(TrilaterationProblem(anchors, ranges, dim)),
                      trilaterate(TrilaterationProblem(turned, ranges, dim)),
                      lambda points: _rotate(points, angle), turned)


def test_rotation_rotates_the_team_and_its_roots():
    # Criterion-4 formations: the team's position, and the root of each
    # emitter fix that it rests on, turn with the drones and the beacons.
    rng = np.random.default_rng(3104)
    for _ in range(40):
        doc = pipeline_raw_scenario(rng)
        drones = tuple(Point.of(*r) for r in doc["scenario"]["receivers"])
        beacons = tuple(Point.of(*e) for e in doc["scenario"]["emitters"])
        deltas = [_differences(drones, b.coords) for b in beacons]
        angle = rng.uniform(0.0, 2.0 * math.pi)

        def team(drones, beacons):
            return team_relative_position(
                drones, [locate_emitter(drones, rd) for rd in deltas], beacons)

        (before, roots), turned = team(drones, beacons), _rotate(drones, angle)
        after, turned_roots = team(turned, _rotate(beacons, angle))
        _assert_moved(before, after, lambda points: _rotate(points, angle), turned)
        center = np.mean([d.coords for d in turned], axis=0)
        for p, q in zip(_rotate(roots, angle), turned_roots):
            assert math.dist(p.coords, q.coords) <= 1e-5 + 1e-8 * math.dist(p.coords, center)


@pytest.mark.parametrize("heights", [None, (120.0, 150.0)], ids=["2d", "3d"])
def test_swapped_differences_locate_the_mirror_emitter(heights):
    # Receivers at (0, 0), (a, b) and (-a, b), 2D or at heights h0, h, h
    # above the emitter plane z = 0: receiver 1 sees the mirror emitter
    # (-x, y) as receiver 2 sees (x, y), so swapping their range differences
    # mirrors every candidate, and the mirror of the truth is one of them.
    rng = np.random.default_rng(3105)
    for _ in range(100):
        a, b = rng.uniform(50.0, 1000.0), rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 1000.0)
        planar = [(0.0, 0.0), (a, b), (-a, b)]
        if heights is None:
            receivers = tuple(Point.of(*p) for p in planar)
        else:
            h0, h = heights
            receivers = tuple(Point.of(*p, z) for p, z in zip(planar, (h0, h, h)))
        x, y = rng.uniform(-5000.0, 5000.0, size=2)
        truth = (x, y) if heights is None else (x, y, 0.0)
        rd = _differences(receivers, truth)
        swapped = RangeDifferenceSet.from_range_differences(
            0, [(1, rd.deltas[1].delta_d), (2, rd.deltas[0].delta_d)], C)

        def mirror(points):
            return tuple(Point.of(-p.x, *p.coords[1:]) for p in points)

        before, after = locate_emitter(receivers, rd), locate_emitter(receivers, swapped)
        _assert_moved(before, after, mirror, receivers)
        image = mirror([Point.of(*truth)])[0]
        center = np.mean([r.coords for r in receivers], axis=0)
        assert min(math.dist(p.coords, image.coords) for p, _ in after.candidates) \
            <= 1e-5 + 1e-8 * math.dist(image.coords, center)
