"""The ``validate`` workload: the ``repro.validate --all --engine source``
sweep, in-process, on a cold in-memory cache.

One sweep validates 22 programs under {automatic, manual} at P in {2, 8}
with the race detector attached; the input seed is the benchmark seed.
An item is one program's validation cell; item and sweep times are
reference-speed seconds (:mod:`perfbench.hostspeed`).  Checks: every
config ``ok``, zero race conflicts, no harness fault, and the sweep
payload byte-identical from sweep to sweep.

The traced run runs one untraced and one traced sweep (their payloads
must match byte for byte), then replays every variant cell once without
the race detector on every engine, asserting equal results across
engines and reading the source tier's vectorized and fallback counts
off the interpreter's compiler object.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from perfbench import common, stats
from perfbench.hostspeed import HostClock
from perfbench.layers import ENGINES, LayerProbe, cache_ratios

IMPORTS = ["repro.validate.__main__"]
CONFIGS = ("automatic", "manual")
PROCESSORS = (2, 8)
#: sweeps per untraced run: item latencies of two sweeps pool into p50,
#: and the payloads must match byte for byte
MIN_SWEEPS = 2


class Sweep:
    """One sweep's outputs."""

    def __init__(self, seed: int):
        self.seed = seed
        #: ``perf_counter`` intervals of the sweep and of each item
        self.interval = (0.0, 0.0)
        self.item_intervals: list[tuple[float, float]] = []
        #: the same at reference speed, filled in by :func:`settle`
        self.wall = 0.0
        self.items: list[float] = []
        self.wdicts: list[dict] = []
        self.faults: list[dict] = []
        self.text = ""
        self.cache: dict = {}


def run_sweep(seed: int, probe: LayerProbe | None = None) -> Sweep:
    from repro.engine import cache_stats, configure
    from repro.validate.report import build_report_from_dicts
    from repro.validate.worker import run_workload_cell
    from repro.workloads import validation_cases

    tracer = probe.tracer if probe else None
    sw = Sweep(seed)
    configure(cache_dir=None)              # cold, memory-only
    cases = validation_cases()
    t0 = time.perf_counter()
    for name in sorted(cases):
        job = {"workload": name, "configs": list(CONFIGS),
               "seeds": [seed], "processors": list(PROCESSORS),
               "atol": 1e-4, "rtol": 1e-3, "bisect": True,
               "timeout": None, "engine": "source"}
        ti = time.perf_counter()
        if tracer:
            with tracer.span("validate.cell"):
                res = run_workload_cell(job)
        else:
            res = run_workload_cell(job)
        sw.item_intervals.append((ti, time.perf_counter()))
        if res["fault"] is not None:
            sw.faults.append(res["fault"])
        else:
            sw.wdicts.append(res["dict"])
    payload = build_report_from_dicts(sw.wdicts, configs=list(CONFIGS),
                                      faults=sw.faults)
    if tracer:
        with tracer.span("validate.serialize"):
            sw.text = json.dumps(payload, indent=2)
    else:
        sw.text = json.dumps(payload, indent=2)
    sw.interval = (t0, time.perf_counter())
    sw.cache = cache_stats()
    return sw


def settle(sw: Sweep, clock: HostClock) -> None:
    """Convert a sweep's intervals to reference-speed seconds."""
    sw.wall = clock.seconds(*sw.interval)
    sw.items = [clock.seconds(a, b) for a, b in sw.item_intervals]


def failed_items(sw: Sweep) -> int:
    """Programs with a fault, a non-ok config or a race conflict."""
    bad = len(sw.faults)
    for w in sw.wdicts:
        if any(c["status"] != "ok" or c["races"] for c in w["configs"]):
            bad += 1
    return bad


def engine_replay(seed: int) -> tuple[int, int, dict]:
    """Run every variant cell once per engine, no race detector.

    Returns ``(cells, mismatching cells, source-tier counts)``.
    """
    from repro.engine import cached_restructure
    from repro.execmodel.interp import Interpreter
    from repro.validate.configs import PIPELINE_CONFIGS
    from repro.workloads import validation_cases

    counts = {"vectorized_loops": 0, "source_stmts": 0, "fallback_stmts": 0}
    cells = bad = 0
    for name, case in sorted(validation_cases().items()):
        for cname in CONFIGS:
            cedar, _ = cached_restructure(case.source,
                                          PIPELINE_CONFIGS[cname]())
            for p in PROCESSORS:
                cells += 1
                args, _ = case.make_args(case.n,
                                         np.random.default_rng(seed))
                results = {}
                for engine in ENGINES:
                    fresh = [np.copy(a) if isinstance(a, np.ndarray) else a
                             for a in args]
                    interp = Interpreter(cedar, processors=p, engine=engine)
                    results[engine] = interp.call(case.entry, *fresh)
                    if engine == "source":
                        for k in counts:
                            counts[k] += getattr(interp._compiler, k)
                if not all(same_result(results[ENGINES[0]], results[e])
                           for e in ENGINES[1:]):
                    bad += 1
    return cells, bad, counts


def same_result(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = np.asarray(a[k]), np.asarray(b[k])
        if x.shape != y.shape or not np.array_equal(
                x, y, equal_nan=x.dtype.kind in "fc"):
            return False
    return True


def check_digest(seed: int, text: str) -> list[str]:
    """Compare the payload with the one an earlier run in this checkout
    produced for the same seed (hash randomization differs per process,
    so this catches ordering that only one process would keep stable)."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = common.WORK / f"validate-seed{seed}.sha256"
    if path.exists():
        if path.read_text().strip() != digest:
            return [f"payload differs from an earlier run with seed {seed}"]
        return []
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)                  # readers never see half a file
    return []


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup = common.setup_seconds(IMPORTS)
    probe = LayerProbe() if trace else None
    sweeps: list[Sweep] = []
    traced: list[Sweep] = []
    t0 = time.perf_counter()
    with HostClock() as clock:
        if probe:
            sweeps.append(run_sweep(seed))
            probe.install()
            try:
                with probe.tracer.span("bench.sweep"):
                    traced.append(run_sweep(seed, probe))
            finally:
                probe.restore()
        else:
            while len(sweeps) < MIN_SWEEPS \
                    or time.perf_counter() - t0 < seconds:
                sweeps.append(run_sweep(seed))
    measured = time.perf_counter() - t0
    for sw in sweeps + traced:
        settle(sw, clock)
    rss = common.vm_hwm_mb()

    # tracing must not change a byte of the payload either, so the
    # traced sweep's per-config statuses equal the untraced sweep's
    every = sweeps + traced
    failed = sum(failed_items(sw) for sw in every)
    attempted = sum(len(sw.items) for sw in every)
    problems = [f"sweep {i} payload differs from sweep 0"
                for i, sw in enumerate(every) if sw.text != every[0].text]
    problems += check_digest(seed, every[0].text)
    out = {"setup_s": setup, "attempted": attempted, "failed": failed,
           "problems": problems}
    walls = [sw.wall for sw in sweeps]
    items = [t for sw in sweeps for t in sw.items]
    out["e2e"] = {
        "wall_s": stats.median(walls),
        "items": items,
        "rps": len(items) / sum(walls),
        "peak_rss_mb": rss,
    }
    out["measured_s"] = measured
    out["slowness"] = clock.slowness()
    if probe:
        tsw = traced[0]
        probe.install()
        try:
            with probe.tracer.span("bench.replay_all"):
                cells, bad, counts = engine_replay(seed)
        finally:
            probe.restore()
        attempted += cells
        failed += bad
        out["attempted"], out["failed"] = attempted, failed
        if bad:
            problems.append(f"{bad}/{cells} cells differ across engines")
        m = probe.metrics()
        m.update(cache_ratios(tsw.cache))
        runs = [c for w in tsw.wdicts for c in w["configs"]]
        m["execmodel.shadow_loops_checked"] = sum(
            c["loops_checked"] for c in runs)
        m["execmodel.race_conflicts"] = sum(len(c["races"]) for c in runs)
        for k, v in counts.items():
            m[f"execmodel.source.{k}"] = v
        lowered = counts["source_stmts"] + counts["fallback_stmts"]
        m["execmodel.source.lowered_stmts"] = lowered
        m["execmodel.source.vectorized_share"] = \
            counts["source_stmts"] / lowered if lowered else 0.0
        m["bench.trace_overhead"] = tsw.wall / stats.median(walls) - 1.0
        m["bench.host_slowness"] = clock.slowness()
        out["per_layer"] = m
        out["tracer"] = probe.tracer
    return out
