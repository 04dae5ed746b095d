"""The ``paper`` workload: regenerate all seven paper tables and figures
(``repro.experiments.ALL_EXPERIMENTS``) at paper sizes, in-process, on a
cold in-memory cache.

The inputs are fixed, so the seed is not used.  An item is one table;
item and set times are reference-speed seconds
(:mod:`perfbench.hostspeed`).
Check: every table's JSON equals the expected file committed under
``perfbench/expected/`` (simulated cycles are deterministic).

The traced run alternates untraced and traced table sets, then times
``Restructurer(options_for_stages(stages[:k])).run`` for every prefix of
the pass stages on the programs the tables restructured, reporting each
stage's increment, and unparses the fully restructured programs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from perfbench import common, stats
from perfbench.hostspeed import HostClock
from perfbench.layers import (EXPERIMENTS, STAGE_LABELS, LayerProbe,
                              cache_ratios)

IMPORTS = ["repro.experiments.__main__"]
EXPECTED = Path(__file__).resolve().parent / "expected"
MIN_SETS = 2
#: rounds of the stage-prefix timing
PREFIX_ROUNDS = 2


def table_json(table) -> str:
    return json.dumps(table.to_dict(), indent=2) + "\n"


def expected(name: str) -> str:
    return (EXPECTED / f"{name}.json").read_text()


class TableSet:
    def __init__(self):
        #: ``perf_counter`` intervals of the set and of each table
        self.interval = (0.0, 0.0)
        self.item_intervals: list[tuple[float, float]] = []
        #: the same at reference speed, filled in by :func:`settle`
        self.wall = 0.0
        self.items: list[float] = []
        self.failed: list[str] = []
        self.cache: dict = {}


def run_set(probe: LayerProbe | None = None) -> TableSet:
    from repro.engine import cache_stats, configure
    from repro.experiments import ALL_EXPERIMENTS

    ts = TableSet()
    configure(cache_dir=None)              # cold, memory-only
    t0 = time.perf_counter()
    for name in EXPERIMENTS:
        ti = time.perf_counter()
        if probe:
            with probe.tracer.span(f"experiments.{name}"):
                table = ALL_EXPERIMENTS[name](quick=False)
            with probe.tracer.span("experiments.render"):
                text = table_json(table)
                table.render()
        else:
            table = ALL_EXPERIMENTS[name](quick=False)
            text = table_json(table)
            table.render()
        ts.item_intervals.append((ti, time.perf_counter()))
        if text != expected(name):
            ts.failed.append(name)
    ts.interval = (t0, time.perf_counter())
    ts.cache = cache_stats()
    return ts


def settle(ts: TableSet, clock: HostClock) -> None:
    """Convert a set's intervals to reference-speed seconds."""
    ts.wall = clock.seconds(*ts.interval)
    ts.items = [clock.seconds(a, b) for a, b in ts.item_intervals]


def prefix_times(sources: list[str]) -> list[float]:
    """Restructure time of ``sources`` per stage prefix.

    Each (prefix, program) cell keeps its fastest of
    :data:`PREFIX_ROUNDS` timings, since host noise only ever adds time
    to deterministic work; a prefix's time sums its cells.
    """
    from repro.engine import cached_parse
    from repro.restructurer.pipeline import Restructurer
    from repro.validate.configs import options_for_stages

    options = [options_for_stages(list(STAGE_LABELS[:k]))
               for k in range(len(STAGE_LABELS) + 1)]
    best = [[float("inf")] * len(sources) for _ in options]
    for _ in range(PREFIX_ROUNDS):
        for j, src in enumerate(sources):
            for k, opts in enumerate(options):
                sf = cached_parse(src, mutable=True)
                t = time.perf_counter()
                Restructurer(opts).run(sf)
                best[k][j] = min(best[k][j], time.perf_counter() - t)
    return [sum(row) for row in best]


def unparse_all(sources: list[str]) -> tuple[float, int]:
    """Seconds and lines to unparse every fully restructured program."""
    from repro import unparse_cedar
    from repro.engine import cached_parse
    from repro.restructurer.pipeline import Restructurer
    from repro.validate.configs import options_for_stages

    opts = options_for_stages(list(STAGE_LABELS))
    elapsed, lines = 0.0, 0
    for src in sources:
        cedar, _ = Restructurer(opts).run(cached_parse(src, mutable=True))
        t = time.perf_counter()
        text = unparse_cedar(cedar)
        elapsed += time.perf_counter() - t
        lines += text.count("\n")
    return elapsed, lines


def run(seed: int, seconds: float, trace: bool) -> dict:
    del seed                               # fixed inputs
    setup = common.setup_seconds(IMPORTS)
    probe = LayerProbe() if trace else None
    sets: list[TableSet] = []
    traced: list[TableSet] = []
    t0 = time.perf_counter()
    with HostClock() as clock:
        while len(sets) + len(traced) < MIN_SETS \
                or time.perf_counter() - t0 < seconds:
            if probe and len(sets) > len(traced):
                probe.install()
                try:
                    with probe.tracer.span("bench.set"):
                        traced.append(run_set(probe))
                finally:
                    probe.restore()
            else:
                sets.append(run_set())
    measured = time.perf_counter() - t0
    for ts in sets + traced:
        settle(ts, clock)
    rss = common.vm_hwm_mb()

    every = sets + traced
    failed = sum(len(ts.failed) for ts in every)
    attempted = sum(len(ts.items) for ts in every)
    problems = sorted({f"{name}: JSON differs from expected"
                       for ts in every for name in ts.failed})
    walls = [ts.wall for ts in sets]
    items = [t for ts in sets for t in ts.items]
    out = {"setup_s": setup, "attempted": attempted, "failed": failed,
           "problems": problems, "measured_s": measured,
           "slowness": clock.slowness()}
    out["e2e"] = {
        "wall_s": stats.median(walls),
        "items": items,
        "rps": len(items) / sum(walls),
        "peak_rss_mb": rss,
    }
    if probe:
        # the probe saw every traced set; scale its totals to one set
        m = probe.metrics()
        n = len(traced)
        m = {k: v / n for k, v in m.items()}
        m.update(cache_ratios(traced[-1].cache))
        sources = list(probe.sources)
        times = prefix_times(sources)
        inc, unresolved = stats.stage_increments(STAGE_LABELS, times)
        m["restructurer.stage.base_s"] = times[0]
        for label, v in inc.items():
            m[f"restructurer.stage.{label}_s"] = v
        m["restructurer.stage.unresolved"] = len(unresolved)
        m["cedar.unparse_s"], m["cedar.unparse_lines"] = \
            unparse_all(sources)
        m["bench.trace_overhead"] = stats.median(
            [ts.wall for ts in traced]) / stats.median(walls) - 1.0
        m["bench.host_slowness"] = clock.slowness()
        out["per_layer"] = m
        out["unresolved_stages"] = unresolved
        out["tracer"] = probe.tracer
    return out
