"""Geometric primitives shared by every solver.

All coordinates are meters in a local Cartesian frame. 2D positions are
stored as 3D with z = 0 plus a dimension tag, so distance and residual math
has a single code path while dimension mismatches stay detectable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DimensionError

__all__ = ["Point", "distance"]


def _finite_real(x) -> bool:
    """Whether x is a finite real number other than a bool (an int past floats is not)."""
    if type(x) is float:  # the common case, without the costlier numbers.Real check
        return math.isfinite(x)
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _float(c):
    """c as a float if it is a finite real number other than a bool, else c
    itself for Point to refuse: float() alone takes "1" and True."""
    return c if type(c) is float else float(c) if _finite_real(c) else c


@dataclass(frozen=True)
class Point:
    """A 2D or 3D position in meters, each coordinate a finite real number
    other than a bool (else ValueError). For dim == 2 the z field is exactly 0."""

    x: float
    y: float
    z: float
    dim: int

    def __post_init__(self):
        if not (_finite_real(self.x) and _finite_real(self.y) and _finite_real(self.z)):
            name = next(n for n in ("x", "y", "z") if not _finite_real(getattr(self, n)))
            raise ValueError(f"non-finite coordinate {name!r}")
        if self.dim not in (2, 3):
            raise DimensionError(f"dim must be 2 or 3, got {self.dim}")
        if self.dim == 2 and self.z != 0.0:
            raise DimensionError("2D points must have z == 0")

    @classmethod
    def of(cls, *coords: float) -> "Point":
        """Build a point from 2 or 3 coordinates; the count sets the dimension."""
        if len(coords) == 2:
            return cls(_float(coords[0]), _float(coords[1]), 0.0, 2)
        if len(coords) == 3:
            return cls(_float(coords[0]), _float(coords[1]), _float(coords[2]), 3)
        raise DimensionError(f"expected 2 or 3 coordinates, got {len(coords)}")

    @property
    def coords(self) -> tuple[float, ...]:
        """The dim-length coordinate tuple."""
        return (self.x, self.y) if self.dim == 2 else (self.x, self.y, self.z)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance in meters between two points of equal dimension."""
    if p.dim != q.dim:
        raise DimensionError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return math.dist(p.coords, q.coords)
