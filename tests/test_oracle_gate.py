"""The exact grid oracle as a gate over random inconsistent solves, local half.

A converged least-squares estimate is a local minimum of its objective: no
node of a lattice around it may fall below the objective at the estimate by
more than SLACK * (1 + f). The lattice is +-1 m at 0.01 m in 2D and
+-0.3 m at 0.02 m in 3D; a 3D TDOA point, pinned to its emitter plane, is
checked on the 2D lattice in x and y on that plane. The slack was fixed
before the first run.
"""

import math

import numpy as np

from conftest import sample_triangle_2d
from rfloc import (Point, RangeDifferenceSet, grid_search, hyperbolic_objective,
                   locate_emitter, trilaterate_lsq, trilateration_objective)
from rfloc.errors import NoConvergence
from rfloc.trilat import TrilaterationProblem

SLACK = 1e-9
_LATTICE = {2: (1.0, 0.01), 3: (0.3, 0.02)}  # dim -> (half width, resolution), meters


def _lattice_low(objective, coords) -> tuple[float, float]:
    """(f, low): the objective at coords and its least value on the lattice
    around them."""
    half, step = _LATTICE[len(coords)]
    f = float(objective(np.array([coords]))[0])
    _, low = grid_search(objective, [(v - half, v + half) for v in coords], step)
    return f, low


def test_noisy_lsq_estimates_are_lattice_local_minima():
    # 2D and 3D, 3 to 5 anchors, sigma = 2 m of range noise, a start 10 m
    # (rms per axis) from the truth.
    rng = np.random.default_rng(16)
    below, checked = [], 0
    for dim in (2, 3):
        for n in (3, 4, 5):
            for _ in range(10):
                anchors = rng.uniform(-500.0, 500.0, size=(n, dim))
                truth = rng.uniform(-500.0, 500.0, size=dim)
                ranges = np.abs(np.linalg.norm(anchors - truth, axis=1)
                                + rng.normal(0.0, 2.0, n))
                problem = TrilaterationProblem([Point.of(*a) for a in anchors],
                                               ranges.tolist(), dim)
                try:
                    result = trilaterate_lsq(problem, truth + rng.normal(0.0, 10.0, dim))
                except NoConvergence:
                    continue
                f, low = _lattice_low(trilateration_objective(problem), result.estimate.coords)
                checked += 1
                if low < f - SLACK * (1.0 + f):
                    below.append((dim, n, f, low))
    assert checked == 60 and below == []


def test_tdoa2d_fallback_points_are_lattice_local_minima():
    # Range differences with noise of 5 % of the triangle's diameter, an
    # emitter within 3 diameters of the receiver centroid: the rows whose
    # branches do not meet and whose Gauss-Newton fallback converges within
    # 3,000 m of the centroid are checked.
    rng = np.random.default_rng(16)
    below, checked = [], 0
    for _ in range(400):
        recv = sample_triangle_2d(rng)
        receivers = [Point.of(*p) for p in recv]
        centroid = recv.mean(axis=0)
        diam = max(math.dist(recv[i], recv[j]) for i in range(3) for j in range(i))
        emitter = centroid + rng.uniform(-3.0 * diam, 3.0 * diam, 2)
        d = np.linalg.norm(recv - emitter, axis=1)
        rd = RangeDifferenceSet.from_range_differences(
            0, [(k, float(d[0] - d[k] + rng.normal(0.0, 0.05 * diam))) for k in (1, 2)], 3e8)
        try:
            result = locate_emitter(receivers, rd)
        except NoConvergence:
            continue
        # A closed-form root takes no iterations; only the fallback iterates.
        if result.iterations == 0 or math.dist(result.estimate.coords, centroid) > 3000.0:
            continue
        f, low = _lattice_low(hyperbolic_objective(receivers, rd), result.estimate.coords)
        checked += 1
        if low < f - SLACK * (1.0 + f):
            below.append((f, low))
    assert checked >= 40 and below == []


def test_tdoa3d_fallback_points_are_plane_lattice_local_minima():
    # Drone triangles 5, 50 and 300 m wide about 150 m over the emitter plane
    # z = 0 or 35, an emitter on it within 3 diameters of the drones' planar
    # centroid, and range differences with noise of 5 % of the diameter: the
    # rows whose branches do not meet and whose Gauss-Newton fallback
    # converges within 10 diameters of that centroid are checked on the
    # lattice (x +- 1, y +- 1, plane) at 0.01 m.
    rng = np.random.default_rng(16)
    below, checked = [], 0
    for trial in range(400):
        width, plane = (5.0, 50.0, 300.0)[trial % 3], (0.0, 35.0)[trial % 2]
        recv = np.array([0.0, 0.0, plane + 150.0]) + rng.uniform(-width / 2, width / 2, (3, 3))
        receivers = [Point.of(*p) for p in recv]
        centroid = recv[:, :2].mean(axis=0)
        diam = max(math.dist(recv[i], recv[j]) for i in range(3) for j in range(i))
        emitter = np.append(centroid + rng.uniform(-3.0 * diam, 3.0 * diam, 2), plane)
        d = np.linalg.norm(recv - emitter, axis=1)
        rd = RangeDifferenceSet.from_range_differences(
            0, [(k, float(d[0] - d[k] + rng.normal(0.0, 0.05 * diam))) for k in (1, 2)], 3e8)
        try:
            result = locate_emitter(receivers, rd, plane)
        except NoConvergence:
            continue
        x, y, z = result.estimate.coords
        assert z == plane
        if result.iterations == 0 or math.dist((x, y), centroid) > 10.0 * diam:
            continue
        objective = hyperbolic_objective(receivers, rd)
        f = float(objective(np.array([[x, y, z]]))[0])
        _, low = grid_search(objective, [(x - 1.0, x + 1.0), (y - 1.0, y + 1.0), (z, z)], 0.01)
        checked += 1
        if low < f - SLACK * (1.0 + f):
            below.append((trial, f, low))
    assert checked >= 40 and below == []
