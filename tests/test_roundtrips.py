"""Noise-free round trips over random non-degenerate geometries.

Hypothesis draws the anchors or receivers, the truth and, for
trilaterate_lsq, the start; each solve must give the truth back among its
candidates. Every triangle has its smallest angle above 15 degrees
(criterion 3's rule) and every side above 1 m. A trilateration
truth stays at least 5 m off the tangency configuration, where the two roots
coalesce (the anchor plane in 3D, the line through the third anchor along
the first side in 2D), as tests/conftest.py's consistent_trilat_case and
perfbench's _trilat_geometry require. A TDOA emitter lies within 10 triangle
diameters of the receivers' planar centroid, as in criterion 3.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from rfloc import (
    Point,
    RangeDifferenceSet,
    TrilaterationProblem,
    distance,
    locate_emitter,
    trilaterate,
    trilaterate_lsq,
)

C = 3e8
# Criterion 3's tolerance, for every solve: a noise-free truth is recovered
# within 1e-6 m. About 1 in 4,500 random TDOA cases miss it near tangency
# (test_tdoa.py::test_locate_2d_near_tangent_limit).
TOL = 1e-6
MIN_SEPARATION = 5.0  # meters from the tangency configuration
ROUNDTRIP = settings(derandomize=True, max_examples=50, deadline=None, database=None)


def _coords(n: int, span: float):
    return st.lists(st.floats(-span, span), min_size=n, max_size=n).map(np.array)


@st.composite
def _triangle(draw, dim: int, span: float) -> np.ndarray:
    """Three points (3, dim) within [-span, span] on a circle of radius 2 m
    to span / 2, in a plane of any orientation in 3D, with arcs of at least
    31 degrees between them: every angle is at least 15.5 degrees (above 15
    after rounding) and every side above 1 m."""
    arc = math.radians(31.0)
    first = draw(st.floats(0.0, 2.0 * math.pi))
    a1 = draw(st.floats(arc, 2.0 * math.pi - 2.0 * arc))
    a2 = draw(st.floats(arc, 2.0 * math.pi - arc - a1))
    phis = first + np.array([0.0, a1, a1 + a2])
    circle = draw(st.floats(2.0, span / 2)) * np.column_stack([np.cos(phis), np.sin(phis)])
    center = draw(_coords(dim, span / 2))
    if dim == 2:
        return center + circle
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    basis = np.array([[math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                       -math.sin(theta)], [-math.sin(phi), math.cos(phi), 0.0]])
    return center + circle @ basis


@st.composite
def _trilat_case(draw, dim: int):
    """(problem, truth): anchors in [-500, 500], exact ranges to a truth in
    [-1000, 1000] at least MIN_SEPARATION from the tangency configuration."""
    anchors = draw(_triangle(dim, 500.0))
    truth = draw(_coords(dim, 1000.0))
    v1, v2 = anchors[1] - anchors[0], anchors[2] - anchors[0]
    if dim == 2:
        u = np.array([-v1[1], v1[0]]) / np.linalg.norm(v1)
        separation = abs(float((anchors[2] - truth) @ u))
    else:
        n = np.cross(v1, v2)
        separation = abs(float((truth - anchors[0]) @ (n / np.linalg.norm(n))))
    assume(separation >= MIN_SEPARATION)
    ranges = np.linalg.norm(anchors - truth, axis=1)
    problem = TrilaterationProblem(tuple(Point.of(*row) for row in anchors),
                                   tuple(ranges.tolist()), dim)
    return problem, Point.of(*truth)


@st.composite
def _tdoa_case(draw, plane):
    """(receivers, differences, truth): a receiver triangle in [-1000, 1000]
    (its planar projection, when the receivers are 3D drones at 50-300 m
    over the plane z = plane), and exact range differences from an emitter
    within 10 triangle diameters of the planar centroid, on that plane."""
    planar = draw(_triangle(2, 1000.0))
    diam = max(np.linalg.norm(planar[i] - planar[i - 1]) for i in range(3))
    radius = draw(st.floats(0.0, 10.0)) * diam
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    x, y = planar.mean(axis=0) + radius * np.array([math.cos(theta), math.sin(theta)])
    if plane is None:
        receivers = tuple(Point.of(*row) for row in planar.tolist())
        truth = Point.of(x, y)
    else:
        heights = draw(st.lists(st.floats(50.0, 300.0), min_size=3, max_size=3))
        receivers = tuple(Point.of(px, py, plane + h)
                          for (px, py), h in zip(planar.tolist(), heights))
        truth = Point.of(x, y, plane)
    d = [distance(r, truth) for r in receivers]
    rd = RangeDifferenceSet.from_range_differences(0, [(1, d[0] - d[1]), (2, d[0] - d[2])], C)
    return receivers, rd, truth


def _recovered(result, truth) -> bool:
    return min(distance(p, truth) for p, _ in result.candidates) <= TOL


@ROUNDTRIP
@given(case=st.sampled_from([2, 3]).flatmap(_trilat_case))
def test_trilaterate_recovers_the_truth(case):
    problem, truth = case
    assert _recovered(trilaterate(problem), truth)


@ROUNDTRIP
@given(case=_tdoa_case(None))
def test_locate_emitter_2d_recovers_the_truth(case):
    receivers, rd, truth = case
    assert _recovered(locate_emitter(receivers, rd), truth)


@ROUNDTRIP
@given(plane=st.sampled_from([0.0, 35.0]), data=st.data())
def test_locate_emitter_3d_recovers_the_truth_on_its_plane(plane, data):
    receivers, rd, truth = data.draw(_tdoa_case(plane))
    assert _recovered(locate_emitter(receivers, rd, emitter_plane_z=plane), truth)


@ROUNDTRIP
@given(case=st.sampled_from([2, 3]).flatmap(_trilat_case), data=st.data())
def test_trilaterate_lsq_recovers_the_truth_from_a_start_within_10_m(case, data):
    # In 3D the truth's mirror in the anchor plane fits the ranges exactly
    # too, so the start is drawn on the truth's side of that plane.
    problem, truth = case
    start = np.array(truth.coords) + data.draw(_coords(problem.dimension,
                                                      10.0 / math.sqrt(problem.dimension)))
    if problem.dimension == 3:
        anchors = problem.anchor_array
        n = np.cross(anchors[1] - anchors[0], anchors[2] - anchors[0])
        assume((start - anchors[0]) @ n * ((np.array(truth.coords) - anchors[0]) @ n) > 0.0)
    assert _recovered(trilaterate_lsq(problem, start), truth)
