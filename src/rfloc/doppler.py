"""Doppler shift magnitude and the idealized single-receiver range formula.

The range formula assumes a stationary pair and negligible relative velocity;
the number it produces is a frequency-derived scale, not a geometric range
measurement. Results therefore carry an `idealized` marker, and positioning
should rely on the TDOA and trilateration modules instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .solver import _finite_real

__all__ = [
    "LIGHT_SPEED_NOMINAL",
    "LIGHT_SPEED_SI",
    "DopplerReading",
    "DopplerRange",
    "doppler_shift",
    "doppler_distance",
]

# Nominal propagation speed used throughout (keeps worked examples exact);
# pass LIGHT_SPEED_SI for the physical constant.
LIGHT_SPEED_NOMINAL = 3.0e8
LIGHT_SPEED_SI = 299792458.0


@dataclass(frozen=True)
class DopplerReading:
    """Emitted and received carrier frequencies in hertz plus propagation speed."""

    f_emitted: float
    f_received: float
    c: float = LIGHT_SPEED_NOMINAL

    def __post_init__(self):
        for name in ("f_emitted", "f_received", "c"):
            value = getattr(self, name)
            if not (_finite_real(value) and value > 0.0):
                raise ValidationError(f"{name} must be strictly positive and finite", field=name)


@dataclass(frozen=True)
class DopplerRange:
    """A range value in meters flagged as an idealized, assumption-laden estimate."""

    meters: float
    idealized: bool = True


def doppler_shift(reading: DopplerReading) -> float:
    """Shift magnitude in hertz: |f_received - f_emitted|."""
    return abs(reading.f_received - reading.f_emitted)


def doppler_distance(reading: DopplerReading) -> DopplerRange:
    """Idealized range estimate (c * shift) / (2 * f_emitted), in meters.

    Valid only under the stationary, negligible-relative-velocity assumption;
    the `idealized` flag on the result records that caveat. Mantissas and
    powers of two are divided apart (math.frexp, math.ldexp), so a product
    that leaves float64's normal range does not spoil a range inside it;
    where the plain formula's product and quotient are normal, these are its
    bits. Raises ValidationError when the range overflows float64.
    """
    (mc, ec), (ms, es), (mf, ef) = map(math.frexp, (reading.c, doppler_shift(reading),
                                                   reading.f_emitted))
    try:
        meters = math.ldexp((mc * ms) / (2.0 * mf), ec + es - ef)
    except OverflowError:
        raise ValidationError("the Doppler range overflows float64") from None
    return DopplerRange(meters=meters, idealized=True)
