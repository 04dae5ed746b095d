"""Append-only bench history: the ``repro-bench-history/1`` entry.

One *entry* summarizes one benchmarking session — usually one
``repro-bench-host/3`` payload, optionally joined by ``repro-metrics/1``
telemetry artifacts from the same run — as a flat metric dict, stamped
with the git revision and a machine fingerprint so samples from
different commits/hosts never get silently compared::

    {"schema": "repro-bench-history/1",
     "recorded_unix": 1754640000.0,
     "git": {"sha": "575c311...", "dirty": false},
     "host": {"python": "3.11.7", "platform": "Linux-...",
              "machine": "x86_64", "cpu_count": 8},
     "fingerprint": "9ae2c41b17d4",
     "sources": ["repro-bench-host/3"],
     "metrics": {"warm_speedup": 2.1,
                 "host_seconds/warm": [3.2, 3.3], ...}}

Metric values are a number or a list of numbers (samples); recording
several payloads of the same kind into one entry accumulates samples,
which is what gives the sentinel's statistical tests real distributions
to work with.  ``benchmarks/history/history.jsonl`` holds one entry per
line, append-only — the longitudinal record the regression sentinel
(:mod:`repro.obs.sentinel`) and trend report (:mod:`repro.obs.trend`)
read.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Iterable, Optional

from repro.schemacheck import check

SCHEMA_TAG = "repro-bench-history/1"

#: the default longitudinal record, relative to the repo root
DEFAULT_HISTORY = Path("benchmarks") / "history" / "history.jsonl"


# ---------------------------------------------------------------------------
# provenance stamps


def git_stamp(cwd: str | os.PathLike | None = None) -> dict:
    """``{"sha": ..., "dirty": ...}`` of the working tree, tolerant of
    running outside a git checkout (both fields become ``None``)."""
    def _run(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=cwd, timeout=10,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.decode(errors="replace").strip()

    sha = _run("rev-parse", "HEAD")
    status = _run("status", "--porcelain") if sha else None
    return {"sha": sha or None,
            "dirty": bool(status) if status is not None else None}


def host_stamp() -> dict:
    """The attributable facts of the machine running the benchmark."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def fingerprint(host: dict) -> str:
    """A short stable id of a host stamp — entries from the same
    machine/interpreter compare; entries from different ones don't."""
    canon = json.dumps(host, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# metric extraction


def _put(metrics: dict, name: str, value) -> None:
    """Accumulate one sample under ``name`` (scalars become lists on the
    second sample)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return
    if name not in metrics:
        metrics[name] = value
        return
    prior = metrics[name]
    if not isinstance(prior, list):
        prior = [prior]
    prior.append(value)
    metrics[name] = prior


def extract_metrics(payload: dict, metrics: Optional[dict] = None) -> dict:
    """Flatten one bench/telemetry payload into history metrics.

    Understands ``repro-bench-host/1|2|3`` (run wall-clocks, cache,
    parallel and per-engine-tier speedups, latency percentiles) and
    ``repro-metrics/1`` (per-stage totals, cell-latency percentiles,
    cache hit rates).  Unknown schemas contribute nothing (and an empty
    result is the caller's cue to reject the file).
    """
    out = metrics if metrics is not None else {}
    tag = str(payload.get("schema", ""))
    if tag.startswith("repro-bench-host/"):
        for name, rec in (payload.get("runs") or {}).items():
            if isinstance(rec, dict):
                _put(out, f"host_seconds/{name}", rec.get("seconds"))
        cache = payload.get("cache") or {}
        _put(out, "warm_speedup", cache.get("warm_speedup"))
        _put(out, "compile_speedup", cache.get("compile_speedup"))
        par = payload.get("parallel") or {}
        _put(out, "parallel_speedup", par.get("parallel_speedup"))
        # /3: the engine-tier speedups (source-JIT vs tree / vs the
        # closure tier); the seconds already travel via host_seconds/*
        for name, val in (payload.get("engines") or {}).items():
            if name.endswith("_speedup"):
                _put(out, name, val)
        base = payload.get("baseline") or {}
        _put(out, "end_to_end_speedup", base.get("end_to_end_speedup"))
        for run, lat in (payload.get("latency") or {}).items():
            if isinstance(lat, dict):
                for q in ("p50_s", "p95_s", "p99_s"):
                    _put(out, f"latency/{run}/{q}", lat.get(q))
    elif tag == "repro-metrics/1":
        summary = payload.get("summary") or {}
        for stage, st in (summary.get("stages") or {}).items():
            if isinstance(st, dict):
                _put(out, f"stage_seconds/{stage}", st.get("total_s"))
        for kind, slot in (summary.get("cache") or {}).items():
            if isinstance(slot, dict):
                _put(out, f"cache_hit_rate/{kind}",
                     slot.get("hit_rate"))
        for h in (payload.get("metrics") or {}).get("histograms", ()):
            if h.get("name") == "repro_cell_seconds" \
                    and not h.get("labels"):
                for q in ("p50", "p95", "p99"):
                    _put(out, f"cell_seconds/{q}", h.get(q))
    return out


# ---------------------------------------------------------------------------
# entries


def build_entry(payloads: Iterable[dict], *, note: Optional[str] = None,
                git: Optional[dict] = None, host: Optional[dict] = None,
                now: Optional[float] = None) -> dict:
    """Assemble one history entry from parsed payload dicts.

    Raises :class:`ValueError` when no payload yields a single metric —
    an empty entry would silently rot the history.
    """
    payloads = list(payloads)
    metrics: dict = {}
    sources: list[str] = []
    for p in payloads:
        before = len(metrics)
        extract_metrics(p, metrics)
        tag = str(p.get("schema", "?"))
        sources.append(tag)
        if len(metrics) == before and not any(
                isinstance(v, list) for v in metrics.values()):
            pass    # tolerated: a later payload may still contribute
    if not metrics:
        tags = ", ".join(sources) or "none"
        raise ValueError(
            f"no recordable metrics in the given payload(s) "
            f"(schemas: {tags}); expected repro-bench-host/3 or "
            f"repro-metrics/1 documents")
    host = host if host is not None else host_stamp()
    entry = {
        "schema": SCHEMA_TAG,
        "recorded_unix": float(now if now is not None else time.time()),
        "git": git if git is not None else git_stamp(),
        "host": host,
        "fingerprint": fingerprint(host),
        "sources": sources,
        "metrics": metrics,
    }
    if note:
        entry["note"] = note
    return entry


def entry_invariants(entry: dict):
    """What the schema cannot say: the fingerprint matches the host."""
    if entry["fingerprint"] != fingerprint(entry["host"]):
        yield "$.fingerprint: does not match the host stamp"


def validate_entry(entry) -> list[str]:
    """Check one entry against ``schemas/bench_history.schema.json``,
    then :func:`entry_invariants`; returns violations (empty == valid)."""
    return check(entry, SCHEMA_TAG, entry_invariants)


def samples(entry: dict, metric: str) -> list[float]:
    """The sample list of one metric in one entry ([] when absent)."""
    v = (entry.get("metrics") or {}).get(metric)
    if v is None:
        return []
    return [float(x) for x in (v if isinstance(v, list) else [v])]


# ---------------------------------------------------------------------------
# the JSONL file


def append_entry(path: str | os.PathLike, entry: dict) -> None:
    """Append one entry to the history file (created on first use)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(path: str | os.PathLike) -> list[dict]:
    """Read every valid entry, oldest first; torn/invalid lines are
    skipped (append-only files on crashing machines have torn tails)."""
    p = Path(path)
    if not p.exists():
        return []
    entries: list[dict] = []
    for raw in p.read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and entry.get("schema") == SCHEMA_TAG:
            entries.append(entry)
    return entries


def metric_names(entries: Iterable[dict]) -> list[str]:
    """Every metric name appearing anywhere in the history, sorted."""
    names: set[str] = set()
    for e in entries:
        names.update((e.get("metrics") or {}).keys())
    return sorted(names)
