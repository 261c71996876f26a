"""Forward scenario simulator: true ranges, arrival timestamps, timing noise.

All receivers timestamp against one shared clock. Timing noise is
zero-mean Gaussian jitter: one array of standard normals per seed from
numpy's PCG64 generator, scaled by sigma exactly as Generator.normal scales
it, so identical (arrivals, sigma, seed) triples reproduce bit-identical
output on any platform, and one draw serves every sigma of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidNoise, ValidationError
from .geometry import Point

__all__ = [
    "Scenario",
    "ArrivalSet",
    "simulate_arrivals",
    "perturb_arrivals",
    "perturb_sweep",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Emitter/receiver geometry, propagation speed and emission time.

    Coordinates are meters, times seconds. Emitters and receivers must share
    one dimension (all 2D or all 3D).
    """

    emitters: tuple[Point, ...]
    receivers: tuple[Point, ...]
    c: float = 3.0e8
    emission_time: float = 0.0

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
        if not math.isfinite(self.emission_time):
            raise ValidationError("emission_time must be finite", field="emission_time")


@dataclass(frozen=True)
class ArrivalSet:
    """Arrival timestamps in seconds, indexed [receiver][emitter]."""

    times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        if self.times.ndim != 2:
            raise ValidationError("times must be a receiver-by-emitter matrix", field="times")
        if not np.isfinite(self.times).all():
            raise ValidationError("arrival times must be finite", field="times")


def _distances(scenario: Scenario) -> np.ndarray:
    """d[i][j] from receiver i to emitter j, inf where it overflows; unchecked."""
    recv = np.array([(p.x, p.y, p.z) for p in scenario.receivers])
    emit = np.array([(p.x, p.y, p.z) for p in scenario.emitters])
    diff = recv[:, None, :] - emit[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def simulate_arrivals(scenario: Scenario) -> ArrivalSet:
    """Noise-free arrivals: times[i][j] = emission_time + d[i][j] / c, absolute,
    so each flight time keeps only the float64 spacing of the clock (2.4e-7 s
    at 1.7e9 s; see arrival_deltas). The CLI's clock starts at the emission.
    """
    with np.errstate(over="ignore"):  # an overflowed distance or time is refused
        d = _distances(scenario)
        times = scenario.emission_time + d / scenario.c
    if not np.isfinite(d).all():
        raise ValidationError("distances must be finite and >= 0", field="d")
    return ArrivalSet(times)


def perturb_arrivals(arrivals: ArrivalSet, sigma_t: float, seed: int) -> ArrivalSet:
    """Add independent zero-mean Gaussian jitter of std sigma_t to every timestamp.

    Deterministic: the jitter comes from numpy's PCG64 bit generator seeded
    with `seed`, so identical inputs give bit-identical outputs. sigma_t = 0
    returns arrivals itself.
    """
    if sigma_t == 0.0:
        return arrivals
    times = perturb_sweep(arrivals.times, (sigma_t,), (seed,))[0][0]
    return ArrivalSet(times)


def perturb_sweep(times: np.ndarray, sigmas: Sequence[float],
                  seeds: Sequence[int]) -> list[np.ndarray]:
    """One jittered copy of times per seed, (len(seeds), *times.shape), for
    every sigma_t in sigmas.

    Copy k is what perturb_arrivals gives for seeds[k]: times plus
    N(0, sigma_t) jitter from PCG64(seeds[k]). Each seed's standard normals
    z are drawn once, and only if some sigma_t is above 0; every sigma_t
    then adds 0.0 + sigma_t * z, which is how Generator.normal(0.0, sigma_t)
    turns the same z into jitter, so each copy is bit-identical to a draw of
    its own. sigma_t = 0 gives the times unchanged, as a read-only broadcast.
    """
    return _perturb(times, 0.0, sigmas, seeds)[1:]


def _perturb(times: np.ndarray, lead_sigma: float, sigmas: Sequence[float],
             seeds: Sequence[int]) -> list[np.ndarray]:
    """[lead, *perturb_sweep(times, sigmas, seeds)], where lead is times plus
    N(0, lead_sigma) jitter from the same standard normals of seeds[0] as
    copy 0 of each sigma_t: a sweep file's single epoch, whose seed is its
    trial 0's, so that seed is drawn once."""
    for sigma_t in (lead_sigma, *sigmas):
        if not (math.isfinite(sigma_t) and sigma_t >= 0.0):
            raise InvalidNoise(f"sigma_t must be >= 0, got {sigma_t!r}")
    shape = (len(seeds),) + times.shape
    if max(lead_sigma, *sigmas) == 0.0:
        return [times] + [np.broadcast_to(times, shape)] * len(sigmas)
    z = np.empty(shape)
    for k, seed in enumerate(seeds):
        np.random.Generator(np.random.PCG64(seed)).standard_normal(out=z[k])
    with np.errstate(over="ignore"):  # as Generator.normal: a huge sigma_t gives inf
        lead = times + (0.0 + lead_sigma * z[0]) if lead_sigma > 0.0 else times
        return [lead] + [times + (0.0 + sigma_t * z) if sigma_t > 0.0
                         else np.broadcast_to(times, shape) for sigma_t in sigmas]
