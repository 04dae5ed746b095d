#!/usr/bin/env python3
"""Host wall-clock benchmark for the execution engine (repro.engine).

Unlike the ``bench_*.py`` pytest harnesses — which measure *simulated
Cedar cycles* — this script measures *host seconds*: what the engine
tiers (tree walk, compiled closures, cached source-JIT), the
content-addressed compilation cache, and the ``--jobs`` parallel
executor actually buy on the machine running the sweep.  It drives
``python -m repro.validate`` as a subprocess matrix:

``tree_cold``
    tree-walk engine, cache disabled, serial — the pre-engine baseline
    (every cell re-parses and re-restructures, every statement
    tree-walks);
``cold``
    compiled (closure) engine, cache disabled, serial — closure
    compilation alone;
``source_cold``
    source-JIT engine, cache disabled, serial — module emission +
    ``compile()`` paid on every cell;
``prime``
    compiled engine, serial, ``--cache-dir`` on an empty store — pays
    the misses that populate the disk cache;
``warm``
    same command again — every front-end artifact served from the store
    (``REPRO_CACHE_STATS`` proves the hit rate is nonzero);
``source_prime``
    source-JIT engine over the same store — front-end artifacts are
    already warm, the run pays the ``jit-source`` module misses;
``source_warm``
    same command again — JIT modules byte-served from the store (its
    own ``REPRO_CACHE_STATS`` proves ``jit-source`` disk hits), and the
    sweep payload must be byte-identical to the compiled ``warm``
    payload: the engine-tier bit-identity contract at the artifact
    level;
``warm_jobsN``
    compiled warm store, ``--jobs N`` — the parallel executor, whose
    payload must be byte-identical to the serial ``warm`` payload.

The warm, source_warm and parallel runs additionally run under
``REPRO_TELEMETRY``, so the payload records per-cell latency
percentiles (p50/p95/p99 from the ``repro-metrics/1`` cell-latency
histogram) for each — the per-request latency signal the service-layer
roadmap item tracks.

The result is a ``repro-bench-host/3`` JSON document
(``schemas/bench_host.schema.json``) that ``python -m repro.obs
record`` / ``check`` gate run-over-run: ``host_seconds`` regresses
upward, the ``*_speedup`` ratios regress downward.  Absolute thresholds are deliberately not
asserted here — CI runners vary wildly — only structural facts: every
run exits 0, the warm runs hit the cache (including ``jit-source``
artifacts), parallel and cross-engine outputs are byte-identical,
latency percentiles were recorded, and the end-to-end speedups are
positive.

Usage::

    python benchmarks/bench_host.py [--quick | --full] [--jobs N]
                                    [-o bench_host.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_TAG = "repro-bench-host/3"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

# provenance stamps shared with the bench history (repro.obs)
from repro.obs.history import git_stamp, host_stamp  # noqa: E402


def run_validate(extra: list[str], out_file: Path, *,
                 env_overrides: dict[str, str]) -> dict:
    """Run one ``python -m repro.validate`` subprocess; time it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_CACHE_DISABLE", None)
    env.pop("REPRO_CACHE_STATS", None)
    env.pop("REPRO_TELEMETRY", None)
    env.pop("REPRO_ENGINE", None)
    env.update(env_overrides)
    argv = [sys.executable, "-m", "repro.validate",
            *extra, "-o", str(out_file)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - t0
    return {
        "argv": argv[1:],          # drop the interpreter path (host noise)
        "env": dict(env_overrides),
        "seconds": seconds,
        "returncode": proc.returncode,
        "stderr_tail": proc.stderr.decode(errors="replace")[-2000:],
    }


def cell_latency(telem_dir: Path) -> dict:
    """Pull per-cell latency percentiles from a merged telemetry dir.

    The instrumented subprocess merges its shards into
    ``<dir>/metrics.json`` (a ``repro-metrics/1`` document) on exit;
    the ``repro_cell_seconds`` histogram in there is the per-cell
    latency distribution of the whole sweep.
    """
    empty = {"cells": 0, "p50_s": None, "p95_s": None, "p99_s": None}
    try:
        payload = json.loads((telem_dir / "metrics.json").read_text())
    except (OSError, json.JSONDecodeError):
        return empty
    for h in payload.get("metrics", {}).get("histograms", ()):
        if h.get("name") == "repro_cell_seconds" and not h.get("labels"):
            return {"cells": h.get("count", 0), "p50_s": h.get("p50"),
                    "p95_s": h.get("p95"), "p99_s": h.get("p99")}
    return empty


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="host wall-clock benchmark: engine tiers, "
                    "compilation cache, parallel sweep executor")
    ap.add_argument("--full", action="store_true",
                    help="sweep every workload (--all); default is the "
                         "--quick subset")
    ap.add_argument("--jobs", type=int, default=2, metavar="N",
                    help="worker count for the parallel run (default 2)")
    ap.add_argument("-o", "--output", metavar="FILE",
                    default="bench_host.json",
                    help="write the repro-bench-host/3 payload here "
                         "(default bench_host.json; '-' for stdout only)")
    ns = ap.parse_args(argv)

    subset = ["--all"] if ns.full else ["--quick"]
    jobs = max(2, ns.jobs)
    runs: dict[str, dict] = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-host-") as tmp:
        tmpdir = Path(tmp)
        cache_dir = tmpdir / "cache"
        stats_file = tmpdir / "cache_stats.json"
        source_stats_file = tmpdir / "source_cache_stats.json"

        matrix = [
            ("tree_cold", subset + ["--engine", "tree", "--jobs", "1"],
             {"REPRO_CACHE_DISABLE": "1"}),
            ("cold", subset + ["--jobs", "1"],
             {"REPRO_CACHE_DISABLE": "1"}),
            ("source_cold", subset + ["--engine", "source",
                                      "--jobs", "1"],
             {"REPRO_CACHE_DISABLE": "1"}),
            ("prime", subset + ["--jobs", "1",
                                "--cache-dir", str(cache_dir)], {}),
            ("warm", subset + ["--jobs", "1",
                               "--cache-dir", str(cache_dir)],
             {"REPRO_CACHE_STATS": str(stats_file),
              "REPRO_TELEMETRY": str(tmpdir / "telem-warm")}),
            ("source_prime", subset + ["--engine", "source", "--jobs", "1",
                                       "--cache-dir", str(cache_dir)], {}),
            ("source_warm", subset + ["--engine", "source", "--jobs", "1",
                                      "--cache-dir", str(cache_dir)],
             {"REPRO_CACHE_STATS": str(source_stats_file),
              "REPRO_TELEMETRY": str(tmpdir / "telem-source")}),
            (f"warm_jobs{jobs}", subset + ["--jobs", str(jobs),
                                           "--cache-dir", str(cache_dir)],
             {"REPRO_TELEMETRY": str(tmpdir / "telem-jobs")}),
        ]
        for name, extra, env_overrides in matrix:
            print(f"[bench_host] {name}: validate {' '.join(extra)} ...",
                  file=sys.stderr)
            rec = run_validate(extra, tmpdir / f"{name}.json",
                               env_overrides=env_overrides)
            print(f"[bench_host] {name}: {rec['seconds']:.2f}s "
                  f"(exit {rec['returncode']})", file=sys.stderr)
            runs[name] = rec

        cache_stats = {}
        if stats_file.exists():
            cache_stats = json.loads(stats_file.read_text())
        source_cache_stats = {}
        if source_stats_file.exists():
            source_cache_stats = json.loads(source_stats_file.read_text())

        def payload_bytes(name: str, missing: bytes) -> bytes:
            f = tmpdir / f"{name}.json"
            return f.read_bytes() if f.exists() else missing

        serial_payload = payload_bytes("warm", b"")
        par_payload = payload_bytes(f"warm_jobs{jobs}", b"!")
        source_payload = payload_bytes("source_warm", b"!")
        latency = {
            "warm": cell_latency(tmpdir / "telem-warm"),
            "source_warm": cell_latency(tmpdir / "telem-source"),
            f"warm_jobs{jobs}": cell_latency(tmpdir / "telem-jobs"),
        }

    def sec(name: str) -> float:
        return runs[name]["seconds"]

    warm_speedup = sec("tree_cold") / max(sec("warm"), 1e-9)
    compile_speedup = sec("tree_cold") / max(sec("cold"), 1e-9)
    parallel_speedup = sec("warm") / max(sec(f"warm_jobs{jobs}"), 1e-9)
    source_warm_speedup = sec("tree_cold") / max(sec("source_warm"), 1e-9)
    source_vs_compiled = sec("warm") / max(sec("source_warm"), 1e-9)

    jit_kind = (source_cache_stats.get("by_kind") or {}) \
        .get("jit-source") or {}

    checks = {
        "all_runs_ok": all(r["returncode"] == 0 for r in runs.values()),
        # the warm run must be served by the store it just populated
        "warm_cache_hit": (cache_stats.get("hits", 0) > 0
                           and cache_stats.get("disk_hits", 0) > 0),
        # the source_warm run must be served its emitted JIT modules
        # from the store source_prime populated (fresh process, so a
        # served module shows up as a jit-source disk hit)
        "source_cache_hit": jit_kind.get("disk_hits", 0) > 0,
        # the parallel executor's contract: merged output is
        # byte-identical to the serial run over the same warm store
        "byte_identical": serial_payload == par_payload,
        # the engine-tier contract: the source-JIT sweep payload is
        # byte-identical to the compiled-engine sweep payload
        "engine_byte_identical": serial_payload == source_payload,
        # generous structural gates — real thresholds live in
        # obs check comparisons against the bench history.
        # quick-size sweeps are subprocess/front-end dominated, so the
        # source tier's end-to-end ratio hovers near 1.0 on any host;
        # gate only catastrophic slowdowns here and let the obs
        # sentinel's 0.6 ratio threshold do the real comparison.
        "speedup_positive": warm_speedup > 1.0,
        "source_speedup_positive": source_warm_speedup > 0.5,
        # all instrumented runs must have produced per-cell percentiles
        "latency_recorded": all(
            rec["cells"] > 0 and rec["p50_s"] is not None
            for rec in latency.values()),
    }

    payload = {
        "schema": SCHEMA_TAG,
        "quick": not ns.full,
        "jobs": jobs,
        # provenance: which revision ran, on what machine — additive
        # fields, so the /3 schema tag holds (consumers must tolerate
        # unknown keys); the bench history keys its baselines on these
        "git": git_stamp(ROOT),
        "host": host_stamp(),
        "runs": {name: {k: v for k, v in rec.items()
                        if k != "stderr_tail" or rec["returncode"] != 0}
                 for name, rec in runs.items()},
        "cache": {
            "cold_seconds": sec("cold"),
            "prime_seconds": sec("prime"),
            "warm_seconds": sec("warm"),
            "warm_speedup": warm_speedup,
            "compile_speedup": compile_speedup,
            "stats": cache_stats,
        },
        "engines": {
            "tree_cold_seconds": sec("tree_cold"),
            "compiled_cold_seconds": sec("cold"),
            "source_cold_seconds": sec("source_cold"),
            "compiled_warm_seconds": sec("warm"),
            "source_prime_seconds": sec("source_prime"),
            "source_warm_seconds": sec("source_warm"),
            "compiled_warm_speedup": warm_speedup,
            "source_warm_speedup": source_warm_speedup,
            "source_vs_compiled_speedup": source_vs_compiled,
            "byte_identical": checks["engine_byte_identical"],
            "jit_cache": source_cache_stats,
        },
        "parallel": {
            "serial_seconds": sec("warm"),
            "parallel_seconds": sec(f"warm_jobs{jobs}"),
            "parallel_speedup": parallel_speedup,
            "byte_identical": checks["byte_identical"],
        },
        "latency": latency,
        "baseline": {
            "tree_cold_seconds": sec("tree_cold"),
            "end_to_end_speedup": warm_speedup,
        },
        "checks": checks,
        "ok": all(checks.values()),
    }

    text = json.dumps(payload, indent=2) + "\n"
    if ns.output and ns.output != "-":
        Path(ns.output).write_text(text)
    sys.stdout.write(text)

    if not payload["ok"]:
        bad = ", ".join(c for c, v in checks.items() if not v)
        print(f"[bench_host] FAILED checks: {bad}", file=sys.stderr)
        return 1
    print(f"[bench_host] ok: engine+cache {warm_speedup:.2f}x vs "
          f"tree/cold, source-JIT {source_warm_speedup:.2f}x "
          f"({source_vs_compiled:.2f}x vs compiled warm), --jobs {jobs} "
          f"{parallel_speedup:.2f}x vs serial warm, byte-identical "
          f"payloads", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
