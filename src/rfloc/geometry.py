"""Geometric primitives shared by every solver.

All coordinates are meters in a local Cartesian frame. 2D positions are
stored as 3D with z = 0 plus a dimension tag, so distance and residual math
has a single code path while dimension mismatches stay detectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateDirection, DimensionError, EmptyInput

__all__ = [
    "Point",
    "DirectionVector",
    "distance",
    "direction_unit",
    "average_direction",
    "renormalize",
]

_UNIT_NORM_TOL = 1e-12


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

    @classmethod
    def from_array(cls, arr: Sequence[float], dim: int | None = None) -> "Point":
        a = np.asarray(arr, dtype=float).ravel()
        if dim is None:
            dim = a.size
        if dim == 2:
            return cls.of(a[0], a[1])
        if dim == 3:
            return cls.of(a[0], a[1], a[2] if a.size > 2 else 0.0)
        raise DimensionError(f"dim must be 2 or 3, got {dim}")

    @property
    def array(self) -> np.ndarray:
        """Always-3D coordinate array (z = 0 for 2D points)."""
        return np.array([self.x, self.y, self.z])

    @property
    def coords(self) -> tuple[float, ...]:
        """The dim-length coordinate tuple."""
        return (self.x, self.y) if self.dim == 2 else (self.x, self.y, self.z)


@dataclass(frozen=True)
class DirectionVector:
    """A dimensionless 2- or 3-component direction.

    The unit flag records whether the vector was normalized; when set, the
    Euclidean norm is 1 within 1e-12.
    """

    components: tuple[float, ...]
    unit: bool

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(float(c) for c in self.components))
        if len(self.components) not in (2, 3):
            raise DimensionError(
                f"direction needs 2 or 3 components, got {len(self.components)}"
            )
        for c in self.components:
            if not math.isfinite(c):
                raise ValueError("non-finite direction component")
        if self.unit:
            norm = math.hypot(*self.components)
            if abs(norm - 1.0) > _UNIT_NORM_TOL:
                raise ValueError(f"unit flag set but norm is {norm!r}")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.components)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance in meters between two points of equal dimension."""
    if p.dim != q.dim:
        raise DimensionError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return math.dist(p.coords, q.coords)


def direction_unit(origin: Point, target: Point) -> DirectionVector:
    """Unit direction from origin to target.

    Raises DegenerateDirection when the points coincide.
    """
    if origin.dim != target.dim:
        raise DimensionError(f"dimension mismatch: {origin.dim} vs {target.dim}")
    delta = tuple(t - o for o, t in zip(origin.coords, target.coords))
    norm = math.hypot(*delta)
    if norm == 0.0:
        raise DegenerateDirection("coincident points have no direction")
    return DirectionVector(tuple(d / norm for d in delta), unit=True)


def average_direction(dirs: Iterable[DirectionVector]) -> DirectionVector:
    """Component-wise mean of direction vectors.

    The result's unit flag is never set: the mean of unit vectors is in
    general shorter than 1. The mean of n identical vectors is returned
    exactly (short-circuited so no rounding can creep in).
    """
    vecs = list(dirs)
    if not vecs:
        raise EmptyInput("average_direction needs at least one vector")
    dim = vecs[0].dim
    if any(v.dim != dim for v in vecs):
        raise DimensionError("mixed 2D/3D directions")
    first = vecs[0].components
    if all(v.components == first for v in vecs):
        return DirectionVector(first, unit=False)
    n = len(vecs)
    mean = tuple(math.fsum(v.components[k] for v in vecs) / n for k in range(dim))
    return DirectionVector(mean, unit=False)


def renormalize(v: DirectionVector) -> DirectionVector:
    """Rescale a direction to unit length (e.g. an averaged direction).

    Raises DegenerateDirection for the zero vector, which has no direction.
    """
    norm = math.hypot(*v.components)
    if norm == 0.0:
        raise DegenerateDirection("zero vector cannot be normalized")
    return DirectionVector(tuple(c / norm for c in v.components), unit=True)
