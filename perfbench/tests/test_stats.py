"""The benchmark's arithmetic on synthetic inputs."""

import math

import pytest

from perfbench import stats
from perfbench.spans import Span, Tracer, covered, self_times


# -- the percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n, q", [
    (1000, 99.0),      # exactly 10 samples above p99
    (999, 98.0),       # p99 would leave only 9 beyond
    (10_000, 99.9),
    (22, 50.0),        # a validate sweep: only the median qualifies
    (60, 75.0),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, q):
    samples = list(range(n, 0, -1))          # order must not matter
    got_q, value, count = stats.tail(samples)
    assert (got_q, count) == (q, n)
    assert value == stats.percentile(samples, q)
    assert stats.beyond(n, q) >= stats.MIN_BEYOND
    higher = [h for h in stats.TAIL_LADDER if h > q]
    assert all(stats.beyond(n, h) < stats.MIN_BEYOND for h in higher)


def test_tail_reports_nothing_below_the_sample_floor():
    assert stats.tail([1.0] * 19) == (None, None, 19)
    assert stats.tail([]) == (None, None, 0)


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 99) == 99.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 1),        # overlaps a: counted once
        Span(4, "a.inner", 1.5, 2.5, 2, 1),  # grandchild: only a's
        Span(5, "late", 9.0, 12.0, 1, 1),    # clipped to the parent
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_covered_merges_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(2, 3), (2.5, 4), (8, 20)]) == pytest.approx(4)
    assert covered(5, 6, [(0, 1)]) == 0


class _Thing:
    def work(self, x):
        return x * 2


def _helper(x):
    return x + 1


def test_tracer_wraps_restores_and_nests():
    import types

    mod = types.ModuleType("fake")
    mod.helper = _helper
    tr = Tracer()
    seen = []
    tr.wrap(_Thing, "work", "thing.work",
            on_result=lambda r, *a, **k: seen.append(r))
    tr.wrap(mod, "helper", lambda x: f"helper.{x}")
    with tr.span("root"):
        assert _Thing().work(3) == 6
        assert mod.helper(1) == 2
    tr.restore()
    assert _Thing.work is _Thing.__dict__["work"]
    assert not hasattr(_Thing.work, "__wrapped__")
    assert mod.helper is _helper
    assert seen == [6]
    by = {s.name: s for s in tr.spans}
    assert set(by) == {"root", "thing.work", "helper.1"}
    assert by["thing.work"].parent == by["root"].sid
    assert by["helper.1"].trace == by["root"].sid
    rows = tr.by_name()
    assert rows["root"]["calls"] == 1
    assert rows["root"]["self_s"] <= rows["root"]["total_s"]


# -- stage increments --------------------------------------------------------

def test_stage_increments_reconcile_and_flag_negatives():
    labels = ["a", "b", "c"]
    times = [1.0, 1.5, 1.4, 2.0]
    inc, unresolved = stats.stage_increments(labels, times)
    assert inc == pytest.approx({"a": 0.5, "b": -0.1, "c": 0.6})
    assert unresolved == ["b"]                 # reported, not clamped
    assert math.fsum(inc.values()) == pytest.approx(times[-1] - times[0])


def test_stage_increments_need_one_more_time_than_stages():
    with pytest.raises(ValueError):
        stats.stage_increments(["a", "b"], [1.0, 2.0])


# -- failed share -------------------------------------------------------------

def test_failed_share_counts():
    assert stats.failed_share(44, 0) == 0.0
    assert stats.failed_share(12, 3) == 0.25
    assert stats.failed_share(1, 1) == 1.0
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(3, 4)


def test_iqr_share():
    assert stats.iqr_share([10.0] * 10) == 0.0
    vals = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = __import__("statistics").quantiles(vals, n=4)
    assert stats.iqr_share(vals) == pytest.approx((q3 - q1) / 10.0)
