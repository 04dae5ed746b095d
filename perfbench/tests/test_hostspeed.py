"""Host-speed correction arithmetic on synthetic samples, and the
sampler's signal handling."""

import math
import signal
import time

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import NOMINAL_S, HostClock


def _clock(*samples):
    clock = HostClock()
    clock.samples = [(t, t + 0.001, cpu) for t, cpu in samples]
    return clock


def test_interval_is_scaled_by_the_samples_inside_it():
    clock = _clock((0.0, NOMINAL_S), (1.0, 2 * NOMINAL_S),
                   (2.0, 2 * NOMINAL_S), (5.0, NOMINAL_S))
    # two samples inside, each 1 ms of wall time: taken out, and the
    # host ran at half the reference speed
    assert math.isclose(clock.seconds(0.5, 2.5), (2.0 - 0.002) / 2)
    assert math.isclose(clock.slowness(0.5, 2.5), 2.0)


def test_interval_without_samples_uses_its_neighbours():
    clock = _clock((0.0, NOMINAL_S), (2.0, 2 * NOMINAL_S),
                   (5.0, NOMINAL_S))
    # the samples at 2.0 and 5.0 bracket the interval: median 1.5
    assert math.isclose(clock.seconds(2.5, 3.0), 0.5 / 1.5)
    # before the first sample: only the first one is near
    assert math.isclose(clock.slowness(-1.0, -0.5), 1.0)


def test_run_slowness_is_the_median_of_all_samples():
    clock = _clock((0.0, NOMINAL_S), (1.0, 3 * NOMINAL_S),
                   (2.0, 2 * NOMINAL_S))
    assert math.isclose(clock.slowness(), 2.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        HostClock().slowness()


def test_sampler_fires_on_cpu_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with HostClock() as clock:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # one on entry, one on exit, and the timer's in between
    assert len(clock.samples) >= 5
    starts = [s[0] for s in clock.samples]
    assert starts == sorted(starts)
    assert all(w1 > w0 and cpu > 0 for w0, w1, cpu in clock.samples)


def test_probe_reports_wall_and_cpu():
    wall, cpu = hostspeed.probe()
    assert wall >= cpu > 0
