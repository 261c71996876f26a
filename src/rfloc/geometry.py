"""Geometric primitives shared by every solver.

All coordinates are meters in a local Cartesian frame. 2D positions are
stored as 3D with z = 0 plus a dimension tag, so distance and residual math
has a single code path while dimension mismatches stay detectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError

__all__ = ["Point", "distance"]


@dataclass(frozen=True)
class Point:
    """A 2D or 3D position in meters. For dim == 2 the z field is exactly 0."""

    x: float
    y: float
    z: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            name = next(n for n in ("x", "y", "z") if not math.isfinite(getattr(self, n)))
            raise ValueError(f"non-finite coordinate {name!r}")
        if self.dim not in (2, 3):
            raise DimensionError(f"dim must be 2 or 3, got {self.dim}")
        if self.dim == 2 and self.z != 0.0:
            raise DimensionError("2D points must have z == 0")

    @classmethod
    def of(cls, *coords: float) -> "Point":
        """Build a point from 2 or 3 coordinates; the count sets the dimension."""
        if len(coords) == 2:
            return cls(float(coords[0]), float(coords[1]), 0.0, 2)
        if len(coords) == 3:
            return cls(float(coords[0]), float(coords[1]), float(coords[2]), 3)
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
