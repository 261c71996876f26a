"""Forward simulator: distance matrices, arrivals, timing noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfloc import (
    ArrivalSet,
    Point,
    Scenario,
    distance,
    perturb_arrivals,
    simulate_arrivals,
)
from rfloc import cli
from rfloc.errors import DimensionError, InvalidNoise, ValidationError
from rfloc.simulate import _distances, _perturb

C = 3e8


def test_distance_matrix_coincident():
    s = Scenario(emitters=(Point.of(0, 0, 0),), receivers=(Point.of(0, 0, 0),))
    assert _distances(s).tolist() == [[0.0]]


def test_distance_matrix_reference_geometry():
    z = math.sqrt(49500.0)
    s = Scenario(
        emitters=(Point.of(0, 0, 0), Point.of(500, 0, 0), Point.of(0, 500, 0)),
        receivers=(Point.of(180, 90, z),))
    d = _distances(s)
    assert d[0] == pytest.approx([300.0, 400.0, 500.0], abs=1e-9)


def test_distance_matrix_matches_distance_op():
    s = Scenario(
        emitters=(Point.of(0, 0), Point.of(100, 0), Point.of(0, 100)),
        receivers=(Point.of(40, 30),))
    d = _distances(s)
    expected = [distance(s.receivers[0], e) for e in s.emitters]
    assert d[0].tolist() == expected
    assert expected == pytest.approx([50.0, math.sqrt(4500.0), math.sqrt(6500.0)])


def test_arrivals_unit_delay():
    s = Scenario(emitters=(Point.of(0, 0),), receivers=(Point.of(3e8, 0),), c=C)
    assert simulate_arrivals(s).times[0, 0] == 1.0


def test_arrivals_zero_path():
    # The clock starts at the emission: a zero path arrives at 0.0.
    s = Scenario(emitters=(Point.of(7, 7),), receivers=(Point.of(7, 7),))
    assert simulate_arrivals(s).times[0, 0].tobytes() == np.float64(0.0).tobytes()


def test_arrivals_hand_value():
    s = Scenario(emitters=(Point.of(0, 0),), receivers=(Point.of(40, 30),), c=C)
    assert simulate_arrivals(s).times[0, 0] == 50.0 / C


def test_arrivals_refuse_an_overflowed_distance():
    # Receivers at +-1e308: the distance between them and an emitter at the
    # origin is finite, but the one across them overflows. The error names
    # that overflow, not a field of the scenario file: a TDOA or pipeline
    # file has no distances.
    s = Scenario(emitters=(Point.of(0, 0, 0), Point.of(1e308, 0, 0)),
                 receivers=(Point.of(-1e308, 0, 0), Point.of(1e308, 0, 0)))
    with pytest.raises(ValidationError) as info:
        simulate_arrivals(s)
    assert str(info.value) == "a receiver-emitter distance overflows float64"
    assert info.value.field is None


def test_arrivals_deterministic():
    rng = np.random.default_rng(31)
    emitters = tuple(Point.of(*rng.uniform(-500, 500, 3)) for _ in range(2))
    receivers = tuple(Point.of(*rng.uniform(-500, 500, 3)) for _ in range(3))
    s = Scenario(emitters=emitters, receivers=receivers)
    a = simulate_arrivals(s).times
    b = simulate_arrivals(s).times
    assert np.array_equal(a, b)


def test_roundtrip_range_differences():
    # c * (t_i - t_j) reproduces d_i - d_j to 1e-9 relative, noise free.
    rng = np.random.default_rng(32)
    for _ in range(50):
        emitters = tuple(Point.of(*rng.uniform(-2000, 2000, 3)) for _ in range(2))
        receivers = tuple(Point.of(*rng.uniform(-2000, 2000, 3)) for _ in range(3))
        s = Scenario(emitters=emitters, receivers=receivers)
        d = _distances(s)
        t = simulate_arrivals(s).times
        for j in range(len(emitters)):
            for i in range(3):
                for k in range(3):
                    got = s.c * (t[i, j] - t[k, j])
                    want = d[i, j] - d[k, j]
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


def test_perturb_zero_sigma_identity():
    times = np.arange(12, dtype=float).reshape(3, 4) * 1e-7
    a = ArrivalSet(times)
    out = perturb_arrivals(a, 0.0, seed=5)
    assert np.array_equal(out.times, a.times)


@pytest.mark.parametrize("seed", [True, False, -1, 1.5, 2.0, "3", None])
def test_perturb_refuses_a_seed_the_cli_refuses(seed):
    # One seed rule: the CLI's, whatever sigma_t is, as a package error.
    with pytest.raises(ValidationError):
        cli._seed(seed, "seed")
    a = ArrivalSet(np.ones((3, 4)) * 1e-6)
    for sigma_t in (0.0, 1e-9):
        with pytest.raises(InvalidNoise, match="^seed must be a non-negative integer"):
            perturb_arrivals(a, sigma_t, seed)


def test_perturb_seed_determinism():
    a = ArrivalSet(np.ones((3, 4)) * 1e-6)
    x = perturb_arrivals(a, 1e-9, seed=42)
    y = perturb_arrivals(a, 1e-9, seed=42)
    z = perturb_arrivals(a, 1e-9, seed=43)
    assert np.array_equal(x.times, y.times)
    assert not np.array_equal(x.times, z.times)


def test_perturb_sample_std():
    # 10,000 samples: sample std within 5% of the requested sigma.
    a = ArrivalSet(np.zeros((100, 100)))
    out = perturb_arrivals(a, 1e-9, seed=7)
    noise = out.times - a.times
    assert abs(noise.std(ddof=1) - 1e-9) / 1e-9 < 0.05
    assert abs(noise.mean()) < 5e-11


def _drawn(times, seed, sigma):
    """times plus jitter from a generator of its own: the draw rule's reference."""
    return times + np.random.Generator(np.random.PCG64(seed)).normal(0.0, sigma, times.shape)


_SIGMAS = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-12, 1e-9, 1e300]),
                    st.floats(min_value=5e-324, max_value=1e-3))


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=4),
       lead_sigma=_SIGMAS, sigmas=st.lists(_SIGMAS, max_size=3),
       times=st.lists(st.floats(min_value=0.0, max_value=1e-3), min_size=6, max_size=6))
def test_one_draw_matches_a_generator_per_seed_and_sigma(seeds, lead_sigma, sigmas, times):
    # Every copy _perturb returns, the lead and each sigma's, is bit for bit
    # what a fresh PCG64 generator of its seed draws. Flight times are never
    # -0.0, so at sigma = 0 the reference, times + 0.0, is times itself.
    times = np.array(times).reshape(3, 2)
    lead, *copies = _perturb(times, lead_sigma, sigmas, seeds)
    assert lead.tobytes() == _drawn(times, seeds[0], lead_sigma).tobytes()
    assert len(copies) == len(sigmas)
    for sigma, copy in zip(sigmas, copies):
        assert copy.shape == (len(seeds), 3, 2)
        for k, seed in enumerate(seeds):
            assert copy[k].tobytes() == _drawn(times, seed, sigma).tobytes()


def test_perturb_draws_a_single_run_without_sweep_sigmas():
    # A file without a sweep passes no sigmas: only the lead copy comes back.
    times = np.zeros((3, 1))
    assert _perturb(times, 0.0, [], [1, 2])[1:] == []
    [still] = _perturb(times, 0.0, (), range(7, 8))
    assert still is times
    [lead] = _perturb(times, 1e-9, (), range(7, 8))
    assert lead.tobytes() == perturb_arrivals(ArrivalSet(times), 1e-9, seed=7).times.tobytes()


def test_perturb_times_one_copy_per_seed():
    times = np.arange(6, dtype=float).reshape(2, 3) * 1e-6
    seeds = range(40, 45)
    [out] = _perturb(times, 0.0, [1e-9], seeds)[1:]
    assert out.shape == (5, 2, 3)
    for k, seed in enumerate(seeds):
        noise = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 1e-9, size=(2, 3))
        assert np.array_equal(out[k], times + noise)
    assert np.array_equal(out[2], perturb_arrivals(ArrivalSet(times), 1e-9, seed=42).times)
    [still] = _perturb(times, 0.0, [0.0], seeds)[1:]
    assert still.shape == (5, 2, 3) and all(np.array_equal(t, times) for t in still)
    with pytest.raises(InvalidNoise):
        _perturb(times, 0.0, [math.inf], seeds)
    with pytest.raises(InvalidNoise):
        _perturb(times, -1e-9, [], seeds)


@pytest.mark.parametrize("sigma", [5e-324, 1e-12, 1e-9, 1e-7, 1e300])
def test_perturb_sweep_scales_one_draw_bit_for_bit(sigma):
    # Generator.normal(0, sigma) is 0.0 + sigma * z for its standard normal z;
    # the 0.0 matters: it turns a -0.0 product (sigma = 5e-324) into 0.0,
    # which a time of -0.0 then shows.
    times = np.array([[-0.0, -0.0, -0.0], [1e-6, 2e-6, 3e-6]])
    seeds = range(40, 45)
    lead, still, noisy = _perturb(times, sigma, [0.0, sigma], seeds)
    for k, seed in enumerate(seeds):
        z = np.random.Generator(np.random.PCG64(seed)).standard_normal((2, 3))
        noise = np.random.Generator(np.random.PCG64(seed)).normal(0.0, sigma, size=(2, 3))
        assert (0.0 + sigma * z).tobytes() == noise.tobytes()
        assert noisy[k].tobytes() == (times + noise).tobytes()
    assert lead.tobytes() == noisy[0].tobytes()
    assert _perturb(times, 0.0, [sigma], seeds)[1].tobytes() == noisy.tobytes()
    assert still.shape == (5, 2, 3) and all(np.array_equal(t, times) for t in still)
    with pytest.raises(InvalidNoise):
        _perturb(times, 0.0, [sigma, -1e-9], seeds)


def test_perturb_negative_sigma():
    a = ArrivalSet(np.zeros((1, 1)))
    with pytest.raises(InvalidNoise):
        perturb_arrivals(a, -1e-9, seed=0)


@pytest.mark.parametrize("sigma", [True, "1e-9", None, 1e-9 + 0j, 10 ** 400,
                                   False, np.False_, 0j])
def test_perturb_refuses_a_sigma_that_is_not_a_real_number(sigma):
    # True jittered by 1 s; False, np.False_ and 0j compared equal to 0 and
    # returned the arrivals unchecked; the others raised a bare TypeError or
    # OverflowError.
    a = ArrivalSet(np.zeros((1, 1)))
    with pytest.raises(InvalidNoise):
        perturb_arrivals(a, sigma, seed=0)
    with pytest.raises(InvalidNoise):
        _perturb(a.times, 0.0, [1e-9, sigma], [0])


def test_scenario_validation():
    with pytest.raises(ValidationError) as exc:
        Scenario(emitters=(), receivers=(Point.of(0, 0),))
    assert exc.value.field == "emitters"
    with pytest.raises(ValidationError):
        Scenario(emitters=(Point.of(0, 0),), receivers=())
    with pytest.raises(ValidationError):
        Scenario(emitters=(Point.of(0, 0),), receivers=(Point.of(1, 1),), c=0.0)
    with pytest.raises(DimensionError):
        Scenario(emitters=(Point.of(0, 0),), receivers=(Point.of(1, 1, 1),))


def test_arrival_set_validation():
    with pytest.raises(ValidationError):
        ArrivalSet(np.array([[np.inf]]))
    for times in (np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValidationError, match="receiver-by-emitter matrix") as info:
            ArrivalSet(times)
        assert info.value.field == "times"
