"""Doppler shift and the idealized range formula."""

import numpy as np
import pytest

from rfloc import DopplerReading, doppler_distance, doppler_shift
from rfloc.errors import ValidationError


def test_shift_zero():
    assert doppler_shift(DopplerReading(1e9, 1e9, 3e8)) == 0.0


def test_shift_positive_offset():
    assert doppler_shift(DopplerReading(1e9, 1.0000001e9, 3e8)) == 100.0


def test_shift_absolute_value_branch():
    assert doppler_shift(DopplerReading(1e9, 1e9 - 200, 3e8)) == 200.0


def test_distance_tabulated_exact():
    # (c * shift) / (2 * f_emitted), exact for these inputs
    assert doppler_distance(DopplerReading(1e9, 1e9, 3e8)).meters == 0.0
    assert doppler_distance(DopplerReading(1e9, 1.0000001e9, 3e8)).meters == 15.0
    assert doppler_distance(DopplerReading(1e9, 1e9 - 200, 3e8)).meters == 30.0


def test_distance_carries_idealized_marker():
    assert doppler_distance(DopplerReading(1e9, 1.0000001e9, 3e8)).idealized


def test_shift_swap_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(200):
        fe, fr = rng.uniform(1e8, 1e10, size=2)
        assert doppler_shift(DopplerReading(fe, fr)) == doppler_shift(DopplerReading(fr, fe))


def test_distance_scales_linearly_in_c():
    base = DopplerReading(1e9, 1e9 + 500, c=3e8)
    doubled = DopplerReading(1e9, 1e9 + 500, c=6e8)
    assert doppler_distance(doubled).meters == 2.0 * doppler_distance(base).meters


def test_distance_invariant_under_joint_doubling():
    # Doubling f_emitted and the offset together leaves the estimate unchanged.
    rng = np.random.default_rng(22)
    for _ in range(200):
        fe = rng.uniform(1e8, 5e9)
        offset = rng.uniform(1.0, 1e4)
        a = doppler_distance(DopplerReading(fe, fe + offset))
        b = doppler_distance(DopplerReading(2 * fe, 2 * fe + 2 * offset))
        assert b.meters == pytest.approx(a.meters, rel=1e-12)


def test_compositional_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        reading = DopplerReading(rng.uniform(1e8, 1e10), rng.uniform(1e8, 1e10),
                                 rng.uniform(1e8, 1e9))
        expected = reading.c * doppler_shift(reading) / (2.0 * reading.f_emitted)
        assert doppler_distance(reading).meters == expected


def test_reading_validation():
    with pytest.raises(ValidationError) as exc:
        DopplerReading(0.0, 1e9)
    assert exc.value.field == "f_emitted"
    with pytest.raises(ValidationError):
        DopplerReading(1e9, -1.0)
    with pytest.raises(ValidationError):
        DopplerReading(1e9, 1e9, c=float("inf"))
    # True was taken as 1 Hz; a string or None raised a bare TypeError, and
    # an int past the float range a bare OverflowError.
    for field in ("f_emitted", "f_received", "c"):
        for value in (True, "1e9", None, 10 ** 400, 1e9 + 0j):
            with pytest.raises(ValidationError) as exc:
                DopplerReading(**{"f_emitted": 1e9, "f_received": 1e9, "c": 3e8, field: value})
            assert exc.value.field == field


def test_distance_whose_product_overflows_is_still_given():
    # c * shift overflowed float64 although the range fits it: the report
    # read NaN (inf / inf) and Infinity. Carrier 1.7e308 Hz heard at 1e-9 Hz,
    # and 1e9 Hz heard at 1.7e308 Hz.
    assert doppler_distance(DopplerReading(1.7e308, 1e-9, 3e8)).meters == 1.5e8
    assert doppler_distance(DopplerReading(1e9, 1.7e308, 3e8)).meters == 2.5499999999999997e307


@pytest.mark.parametrize("reading", [(1e-300, 1.0000001e9, 1.7e308), (1e-320, 1.0000001e9, 3e8)],
                         ids=["c_1.7e308", "carrier_1e-320"])
def test_distance_beyond_float64_is_refused(reading):
    with pytest.raises(ValidationError, match="the Doppler range overflows float64"):
        doppler_distance(DopplerReading(*reading))
