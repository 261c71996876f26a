"""Points and distance."""

import numpy as np
import pytest

from rfloc import Point, distance
from rfloc.errors import DimensionError


def test_distance_identity():
    assert distance(Point.of(0, 0, 0), Point.of(0, 0, 0)) == 0.0


def test_distance_axis():
    assert distance(Point.of(0, 0, 0), Point.of(500, 0, 0)) == 500.0


def test_distance_hand_expansion():
    # 400^2 + 200^2 + 50^2 = 202500 = 450^2
    assert distance(Point.of(100, 200, 50), Point.of(500, 0, 0)) == 450.0


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        distance(Point.of(0, 0), Point.of(0, 0, 0))


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q, r = (Point.of(*rng.uniform(-1e4, 1e4, size=3)) for _ in range(3))
        assert distance(p, q) == distance(q, p)
        slack = 1e-9 * (distance(p, q) + distance(q, r) + 1.0)
        assert distance(p, r) <= distance(p, q) + distance(q, r) + slack


def test_distance_zero_iff_equal():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = Point.of(*rng.uniform(-100, 100, size=2))
        assert distance(p, p) == 0.0
        q = Point.of(p.x + 1e-12, p.y)
        assert distance(p, q) > 0.0


def test_point_validation():
    with pytest.raises(ValueError):
        Point.of(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point.of(0.0, float("inf"), 1.0)
    with pytest.raises(DimensionError):
        Point.of(1.0)
    with pytest.raises(DimensionError):
        Point(1.0, 2.0, 3.0, dim=2)  # 2D points carry z == 0
