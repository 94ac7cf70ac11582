"""The tail percentile rule and the calibration window."""
import pytest

import calibration
import run
from calibration import HostClock


def test_tail_keeps_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert (value, pct) == (90.0, 90.0)
    assert sum(t > value for t in times) == 10


def test_tail_is_capped_at_p99():
    times = [float(i) for i in range(1, 5001)]
    assert run.tail(times) == (4950.0, 99.0)


def test_tail_of_few_samples_is_the_minimum():
    assert run.tail([3.0, 4.0, 5.0]) == (3.0, 0.0)


def _clock(stamps, durations):
    clock = HostClock("small")
    clock.stamps, clock.durations = list(stamps), list(durations)
    return clock


def test_factor_uses_samples_within_the_window():
    # references slow down 2x after t = 10 s; an op at 12 s sees only those
    stamps = [0.1 * i for i in range(200)]
    durations = [0.003 if s < 10.0 else 0.006 for s in stamps]
    clock = _clock(stamps, durations)
    assert clock.factor(12.0, 0.1) == pytest.approx(0.5)
    assert clock.factor(5.0, 0.1) == pytest.approx(1.0)


def test_factor_of_a_long_op_uses_the_nearest_samples():
    # one sample between ops of 1 s: the window holds two, so the nearest four count
    clock = _clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.003, 0.003, 0.006, 0.006, 0.006, 0.003])
    assert calibration.REF_MIN_SAMPLES == 4
    assert clock.factor(2.02, 0.96) == pytest.approx(0.5)
