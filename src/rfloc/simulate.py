"""Forward scenario simulator: true ranges, arrival timestamps, timing noise.

All receivers timestamp against one shared clock by default; an optional
per-receiver offset list exists to show what breaks when that assumption is
violated. Timing noise is zero-mean Gaussian jitter: one array of standard
normals per seed from numpy's PCG64 generator, scaled by sigma exactly as
Generator.normal scales it, so identical (arrivals, sigma, seed) triples
reproduce bit-identical output on any platform, and one draw serves every
sigma of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidNoise, ValidationError
from .geometry import Point

__all__ = [
    "Scenario",
    "ArrivalSet",
    "DistanceMatrix",
    "true_distance_matrix",
    "simulate_arrivals",
    "perturb_arrivals",
    "perturb_times",
    "perturb_sweep",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Emitter/receiver geometry plus signal and noise parameters.

    Coordinates are meters, times seconds, frequencies hertz. Emitters and
    receivers must share one dimension (all 2D or all 3D).
    """

    emitters: tuple[Point, ...]
    receivers: tuple[Point, ...]
    c: float = 3.0e8
    carrier: float = 1.0e9
    emission_time: float = 0.0
    noise_sigma_t: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "receivers", tuple(self.receivers))
        if len(self.emitters) < 1:
            raise ValidationError("at least one emitter required", field="emitters")
        if len(self.receivers) < 1:
            raise ValidationError("at least one receiver required", field="receivers")
        dims = {p.dim for p in self.emitters} | {p.dim for p in self.receivers}
        if len(dims) != 1:
            raise DimensionError("emitters and receivers must share one dimension")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValidationError("c must be positive", field="c")
        if not (math.isfinite(self.carrier) and self.carrier > 0.0):
            raise ValidationError("carrier must be positive", field="carrier")
        if not math.isfinite(self.emission_time):
            raise ValidationError("emission_time must be finite", field="emission_time")
        if not (math.isfinite(self.noise_sigma_t) and self.noise_sigma_t >= 0.0):
            raise ValidationError("noise_sigma_t must be >= 0", field="noise_sigma_t")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValidationError("seed must be a non-negative integer", field="seed")

    @property
    def dim(self) -> int:
        return self.emitters[0].dim


@dataclass(frozen=True)
class ArrivalSet:
    """Arrival timestamps in seconds, indexed [receiver][emitter]."""

    times: np.ndarray
    clock_model: str | tuple[float, ...] = "shared"

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        if self.times.ndim != 2:
            raise ValidationError("times must be a receiver-by-emitter matrix", field="times")
        if not np.all(np.isfinite(self.times)):
            raise ValidationError("arrival times must be finite", field="times")
        if isinstance(self.clock_model, str):
            if self.clock_model != "shared":
                raise ValidationError("clock_model must be 'shared' or an offset tuple",
                                      field="clock_model")
        else:
            offsets = tuple(float(o) for o in self.clock_model)
            if len(offsets) != self.times.shape[0]:
                raise ValidationError("one clock offset per receiver required",
                                      field="clock_model")
            object.__setattr__(self, "clock_model", offsets)


@dataclass(frozen=True)
class DistanceMatrix:
    """True or measured ranges in meters, indexed [receiver][emitter]."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen_array(self.d))
        if self.d.ndim != 2:
            raise ValidationError("d must be a receiver-by-emitter matrix", field="d")
        if not np.all(np.isfinite(self.d)) or np.any(self.d < 0.0):
            raise ValidationError("distances must be finite and >= 0", field="d")


def true_distance_matrix(scenario: Scenario) -> DistanceMatrix:
    """d[i][j] = Euclidean distance from receiver i to emitter j."""
    recv = np.array([p.array for p in scenario.receivers])
    emit = np.array([p.array for p in scenario.emitters])
    diff = recv[:, None, :] - emit[None, :, :]
    return DistanceMatrix(np.sqrt((diff ** 2).sum(axis=2)))


def simulate_arrivals(scenario: Scenario,
                      clock_offsets: Sequence[float] | None = None) -> ArrivalSet:
    """Noise-free arrivals: times[i][j] = emission_time + d[i][j] / c.

    clock_offsets, when given, adds a fixed per-receiver timestamp offset and
    tags the result accordingly; the default models the shared-clock setup.
    """
    dm = true_distance_matrix(scenario)
    with np.errstate(over="ignore"):  # ArrivalSet refuses an overflowed time
        times = scenario.emission_time + dm.d / scenario.c
    if clock_offsets is None:
        return ArrivalSet(times, clock_model="shared")
    offsets = tuple(float(o) for o in clock_offsets)
    if len(offsets) != len(scenario.receivers):
        raise ValidationError("one clock offset per receiver required", field="clock_offsets")
    times = times + np.array(offsets)[:, None]
    return ArrivalSet(times, clock_model=offsets)


def perturb_arrivals(arrivals: ArrivalSet, sigma_t: float, seed: int) -> ArrivalSet:
    """Add independent zero-mean Gaussian jitter of std sigma_t to every timestamp.

    Deterministic: the jitter comes from numpy's PCG64 bit generator seeded
    with `seed`, so identical inputs give bit-identical outputs. sigma_t = 0
    returns the timestamps unchanged.
    """
    times = perturb_times(arrivals.times, sigma_t, (seed,))[0]
    return ArrivalSet(times, clock_model=arrivals.clock_model)


def perturb_times(times: np.ndarray, sigma_t: float, seeds: Sequence[int]) -> np.ndarray:
    """One jittered copy of times per seed, shape (len(seeds), *times.shape).

    Copy k is what perturb_arrivals gives for seeds[k]: times plus
    N(0, sigma_t) jitter from PCG64(seeds[k]). sigma_t = 0 gives the times
    unchanged, as a read-only broadcast.
    """
    return perturb_sweep(times, (sigma_t,), seeds)[0]


def perturb_sweep(times: np.ndarray, sigmas: Sequence[float],
                  seeds: Sequence[int]) -> list[np.ndarray]:
    """perturb_times(times, sigma_t, seeds) for every sigma_t in sigmas.

    Each seed's standard normals z are drawn once, and only if some sigma_t is
    above 0; every sigma_t then adds 0.0 + sigma_t * z, which is how
    Generator.normal(0.0, sigma_t) turns the same z into jitter, so each copy
    is bit-identical to a draw of its own.
    """
    for sigma_t in sigmas:
        if not (math.isfinite(sigma_t) and sigma_t >= 0.0):
            raise InvalidNoise(f"sigma_t must be >= 0, got {sigma_t!r}")
    shape = (len(seeds),) + times.shape
    if max(sigmas, default=0.0) == 0.0:
        return [np.broadcast_to(times, shape)] * len(sigmas)
    z = np.empty(shape)
    for k, seed in enumerate(seeds):
        np.random.Generator(np.random.PCG64(seed)).standard_normal(out=z[k])
    with np.errstate(over="ignore"):  # as Generator.normal: a huge sigma_t gives inf
        return [times + (0.0 + sigma_t * z) if sigma_t > 0.0 else np.broadcast_to(times, shape)
                for sigma_t in sigmas]
