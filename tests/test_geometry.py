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
    with pytest.raises(DimensionError, match="dim must be 2 or 3, got 4"):
        Point(1.0, 2.0, 3.0, dim=4)
    # A coordinate is a finite real number other than a bool, checked before
    # float(): a string, a bool, None, a complex or an int past the float
    # range is the ValueError that NaN is, naming the coordinate, never
    # float()'s value or a bare TypeError or OverflowError.
    for bad in ("1", True, None, 10**400, 1j, float("-inf")):
        for coords, name in (((bad, 2), "'x'"), ((0, bad), "'y'"), ((0, 1, bad), "'z'")):
            with pytest.raises(ValueError, match=name):
                Point.of(*coords)
    with pytest.raises(ValueError, match="'x'"):
        Point(True, 2.0, 0.0, 2)
    with pytest.raises(ValueError, match="'z'"):
        Point(1.0, 2.0, "0", 3)
    for value in (3, np.float64(3.0), np.int32(3), np.float32(3.0)):  # stored as floats
        assert [type(c) for c in Point.of(value, value, value).coords] == [float] * 3
