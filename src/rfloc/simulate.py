"""Forward scenario simulator: true ranges, arrival times, timing noise.

All receivers timestamp against one shared clock, which starts at the
emission: an arrival time is a flight time. Timing noise is zero-mean
Gaussian jitter: one array of standard normals per seed from numpy's PCG64
generator, scaled by sigma exactly as Generator.normal scales it, so
identical (arrivals, sigma, seed) triples reproduce bit-identical output on
any platform, and one draw serves every sigma of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidNoise, ValidationError
from .geometry import Point, _natural
from .solver import _finite_real, _norms

__all__ = [
    "Scenario",
    "ArrivalSet",
    "simulate_arrivals",
    "perturb_arrivals",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_speed(c: float) -> None:
    """Refuse a propagation speed c that is not a positive finite real number."""
    if not (_finite_real(c) and c > 0.0):
        raise ValidationError(f"c must be a positive finite number, got {c!r}", field="c")


@dataclass(frozen=True)
class Scenario:
    """Emitter/receiver geometry and propagation speed.

    Coordinates are meters, times seconds. Emitters and receivers must share
    one dimension (all 2D or all 3D).
    """

    emitters: tuple[Point, ...]
    receivers: tuple[Point, ...]
    c: float = 3.0e8

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
        _check_speed(self.c)


@dataclass(frozen=True)
class ArrivalSet:
    """Arrival times in seconds, indexed [receiver][emitter]."""

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
    return _norms(recv[:, None, :] - emit[None, :, :])


def simulate_arrivals(scenario: Scenario) -> ArrivalSet:
    """Noise-free arrivals: the flight times times[i][j] = d[i][j] / c.
    Raises ValidationError when a distance d[i][j] overflows float64."""
    with np.errstate(over="ignore"):  # an overflowed distance or time is refused
        d = _distances(scenario)
        if not np.isfinite(d).all():
            raise ValidationError("a receiver-emitter distance overflows float64")
        return ArrivalSet(d / scenario.c)


def perturb_arrivals(arrivals: ArrivalSet, sigma_t: float, seed: int) -> ArrivalSet:
    """Add independent zero-mean Gaussian jitter of std sigma_t to every time:
    the lead copy of _perturb(arrivals.times, sigma_t, (), (seed,)), bit for
    bit. sigma_t = 0 returns arrivals itself. Raises InvalidNoise for a seed
    that is not an int >= 0 (a bool is not one)."""
    if not _natural(seed):
        raise InvalidNoise(f"seed must be a non-negative integer, got {seed!r}")
    if sigma_t == 0.0:
        return arrivals
    return ArrivalSet(_perturb(arrivals.times, sigma_t, (), (seed,))[0])


def _perturb(times: np.ndarray, lead_sigma: float, sigmas: Sequence[float],
             seeds: Sequence[int]) -> list[np.ndarray]:
    """[lead, *copies]: times plus zero-mean Gaussian jitter, one draw per seed.

    lead is times plus lead_sigma's jitter for seeds[0]; copies holds one
    (len(seeds), *times.shape) array per sigma in sigmas, row k with seeds[k]'s
    jitter. Seed k's standard normals z come from PCG64(seeds[k]), drawn only
    if some sigma is above 0, and a sigma adds 0.0 + sigma * z, as
    Generator.normal(0.0, sigma) does: each row is bit-identical to times +
    normal(0.0, sigma, times.shape) from a generator of its own. A sigma of 0
    leaves times as they are (a copy is then a read-only broadcast). Raises
    InvalidNoise for a sigma that is not a finite real number >= 0.
    """
    for sigma_t in (lead_sigma, *sigmas):
        if not (_finite_real(sigma_t) and sigma_t >= 0.0):
            raise InvalidNoise(f"sigma_t must be >= 0, got {sigma_t!r}")
    shape = (len(seeds),) + times.shape
    if max((lead_sigma, *sigmas)) == 0.0:
        return [times] + [np.broadcast_to(times, shape)] * len(sigmas)
    z = np.empty(shape)
    for k, seed in enumerate(seeds):
        np.random.Generator(np.random.PCG64(seed)).standard_normal(out=z[k])
    with np.errstate(over="ignore"):  # as Generator.normal: a huge sigma_t gives inf
        lead = times + (0.0 + lead_sigma * z[0]) if lead_sigma > 0.0 else times
        return [lead] + [times + (0.0 + sigma_t * z) if sigma_t > 0.0
                         else np.broadcast_to(times, shape) for sigma_t in sigmas]
