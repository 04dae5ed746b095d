#!/usr/bin/env python3
"""Validate a repro JSON payload: its schema, then its semantic invariants.

Usage: ``validate_experiment_json.py payload.json`` (or ``-`` for stdin).
Exit status: 0 valid (one ``OK: ...`` line), 1 violations or invalid
JSON (one ``$.path: message`` line each), 2 usage.

The payload's ``schema`` tag selects the file in ``schemas/`` whose
``$id`` matches; :mod:`repro.schemacheck` enforces that structure, the
only statement of it.  A payload that conforms is then held to the
invariants a schema cannot express.  This is the one list of them:

- ``repro-experiment/1`` (``python -m repro.experiments --json``,
  ``BENCH_*.json``): every cycle breakdown's categories sum to their
  group total and its groups to the grand total (1e-6 relative);
  every loop the planner accepted as ``serial`` has a rejection or
  failure decision with a reason; row keys equal the columns;
- ``repro-profile/1`` (``--profile``): the ledger and ``from_counters``
  memory cycles equal the cycles recomputed from the counters and the
  embedded machine latencies; per-CE busy cycles, one per worker, sum
  to ``busy_time``; (workload, role) pairs are unique;
- ``repro-validate/1`` (``python -m repro.validate --json``): each
  status agrees with its evidence (``divergent`` iff divergences,
  ``race`` iff conflicts and no divergences, ``error`` carries a
  message, ``ok`` carries nothing); a culprit pass is one of the
  config's stages (or ``base-parallelization``) on a divergent config;
  a conflict names two different iterations; summary recounts;
- ``repro-faults/1`` (``python -m repro.faults sweep --json``): each
  plan's name is its key and each run's scenario is in the matrix;
  ``ok`` is the conjunction of the checks; ``degradation`` is
  faulted/healthy; ok cells degrade monotonically within their bound;
  summary and ``checks_failed`` recounts;
- ``repro-bench-host/3`` (``benchmarks/bench_host.py``): speedups agree
  with the recorded seconds; ``ok`` is the conjunction of the checks;
  a populated latency run has monotone percentiles, an empty one null;
- ``repro-lint/1`` (``python -m repro.lint --json``): severity agrees
  with the code prefix; per-file and top-level counts and ``ok`` flags
  equal recounts over the diagnostics; file paths are unique;
- ``repro-server/1`` (``repro.server`` envelopes): ``retries`` is
  ``attempts - 1``; the status decides which of ``result`` / ``fault``
  / ``reason`` is present and whether ``degraded`` is empty; a
  ``/restructure`` result embeds a full ``repro-experiment/1`` payload
  and a ``/lint`` result is a ``repro-lint/1`` payload, both checked
  recursively;
- ``repro-metrics/1`` (``--telemetry``): histogram percentile bounds,
  span-parent and pid resolution, summary recounts
  (:mod:`repro.telemetry.schema`);
- ``repro-bench-history/1`` (one ``benchmarks/history/history.jsonl``
  line): the fingerprint matches the host stamp
  (:mod:`repro.obs.history`).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:             # a checkout run without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.obs.history import entry_invariants  # noqa: E402
from repro.schemacheck import check  # noqa: E402
from repro.telemetry.schema import (  # noqa: E402
    invariants as metrics_invariants)

SCHEMA_TAG = "repro-experiment/1"
PROFILE_TAG = "repro-profile/1"
VALIDATE_TAG = "repro-validate/1"
FAULTS_TAG = "repro-faults/1"
BENCH_HOST_TAG = "repro-bench-host/3"
BENCH_HISTORY_TAG = "repro-bench-history/1"
METRICS_TAG = "repro-metrics/1"
LINT_TAG = "repro-lint/1"
SERVER_TAG = "repro-server/1"

REL_TOL = 1e-6
FAULT_CHECKS = ("monotone", "attributed", "bounded", "numerics_identical",
                "recovery_ok", "no_deadlock")


def _rel_eq(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _recount(stored: dict, want: dict, at: str):
    for key, n in want.items():
        if stored[key] != n:
            yield f"{at}.{key}: stored {stored[key]!r} != recount {n}"


def _unique(keys, at: str, what: str):
    keys = list(keys)
    if len(keys) != len(set(keys)):
        yield f"{at}: duplicate {what}"


# ---------------------------------------------------------------------------
# repro-experiment/1


def breakdown_rules(bd: dict, at: str):
    group_sum = 0.0
    for g, cats in bd["groups"].items():
        cat_sum = sum(v for k, v in cats.items() if k != "total")
        if not _rel_eq(cat_sum, cats["total"]):
            yield (f"{at}.groups.{g}: category sum {cat_sum} != group "
                   f"total {cats['total']}")
        group_sum += cats["total"]
    if not _rel_eq(group_sum, bd["total"]):
        yield f"{at}: group sum {group_sum} != total {bd['total']}"


def serial_loop_rules(decisions: list, at: str):
    """Every planner-accepted 'serial' loop must carry a rejection reason."""
    serial = {(d.get("loop"), d.get("line")) for d in decisions
              if d["kind"] == "plan" and d["action"] == "accepted"
              and d["technique"] == "serial"}
    explained = {(d.get("loop"), d.get("line")) for d in decisions
                 if d["action"] in ("rejected", "failed") and d.get("reason")}
    for loop, line in sorted(serial - explained, key=str):
        yield (f"{at}: serial loop {loop!r} (line {line}) has no "
               f"rejection reason in the trace")


def experiment_rules(payload: dict):
    for name, t in payload["experiments"].items():
        at = f"$.experiments.{name}"
        for i, row in enumerate(t["rows"]):
            if set(row) != set(t["columns"]):
                yield f"{at}.rows[{i}]: row keys must match the columns"
        for wl, w in t["meta"].get("trace", {}).items():
            wat = f"{at}.meta.trace.{wl}"
            for key in ("serial_breakdown", "parallel_breakdown"):
                if key in w:
                    yield from breakdown_rules(w[key], f"{wat}.{key}")
            yield from serial_loop_rules(w.get("decisions", []), wat)


# ---------------------------------------------------------------------------
# repro-profile/1


def memory_cycles_from_counters(counters: dict, machine: dict) -> dict:
    """Recompute the memory-side cycle categories from raw counters.

    Must stay in lockstep with
    ``repro.prof.counters.memory_cycles_from_counters``: the document
    embeds the machine constants so this audit is independent of it.
    """
    c = lambda k: float(counters.get(k, 0.0))  # noqa: E731
    return {
        "mem_cache": c("cache_refs") * machine["lat_cache"],
        "mem_cluster": c("cluster_refs") * machine["lat_cluster"],
        "mem_global": (c("global_refs") * machine["lat_global"]
                       + c("global_stream_elems")
                       * (0.55 * machine["lat_global"])
                       + c("bank_stall_cycles")),
        "prefetch": (c("prefetch_triggers") * machine["prefetch_trigger"]
                     + c("prefetch_elems")
                     * machine["lat_global_prefetched"]),
        "page_fault": c("page_faults") * machine["page_fault_cost"],
    }


def profile_rules(payload: dict):
    runs = payload["runs"]
    yield from _unique(((r["workload"], r["role"]) for r in runs),
                       "$.runs", "(workload, role) pairs")
    for i, run in enumerate(runs):
        at = f"$.runs[{i}]"
        recomputed = memory_cycles_from_counters(run["counters"],
                                                 run["machine"])
        for side in ("ledger", "from_counters"):
            for k, want in recomputed.items():
                got = run["memory_cycles"][side][k]
                if not _rel_eq(got, want):
                    yield (f"{at}.memory_cycles.{side}.{k}: {got} does "
                           f"not reconcile with counters ({want})")
        for j, lp in enumerate(run["loops"]):
            wb = lp["worker_busy"]
            if len(wb) != lp["workers"]:
                yield (f"{at}.loops[{j}]: worker_busy has {len(wb)} "
                       f"entries for {lp['workers']} workers")
            if not _rel_eq(sum(wb), lp["busy_time"]):
                yield (f"{at}.loops[{j}]: worker busy sum {sum(wb)} != "
                       f"busy_time {lp['busy_time']}")


# ---------------------------------------------------------------------------
# repro-validate/1


def config_rules(c: dict, at: str):
    status, divs, races = c["status"], c["divergences"], c["races"]
    if status == "ok":
        if divs:
            yield f"{at}: status 'ok' but divergences recorded"
        if races:
            yield f"{at}: status 'ok' but races recorded"
        if c["error"] is not None:
            yield f"{at}: status 'ok' but an error message is present"
    elif status == "divergent" and not divs:
        yield f"{at}: status 'divergent' without any divergence"
    elif status == "race":
        if not races:
            yield f"{at}: status 'race' without any conflict"
        if divs:
            yield (f"{at}: status 'race' but divergences recorded "
                   f"(divergent wins)")
    elif status == "error" and not c["error"]:
        yield f"{at}: status 'error' needs a message"
    culprit = c["culprit_pass"]
    if culprit is not None:
        if status != "divergent":
            yield (f"{at}: culprit_pass only makes sense on a divergent "
                   f"config")
        if culprit != "base-parallelization" and culprit not in c["stages"]:
            yield f"{at}: culprit {culprit!r} is not one of the config's stages"
    for j, r in enumerate(races):
        if r["iterations"][0] == r["iterations"][1]:
            yield (f"{at}.races[{j}]: a conflict needs two *different* "
                   f"iterations")


def validation_rules(payload: dict):
    workloads = payload["workloads"]
    yield from _unique((w["workload"] for w in workloads), "$.workloads",
                       "workload names")
    for i, w in enumerate(workloads):
        for j, c in enumerate(w["configs"]):
            yield from config_rules(c, f"$.workloads[{i}].configs[{j}]")
    runs = [c for w in workloads for c in w["configs"]]
    statuses = Counter(c["status"] for c in runs)
    yield from _recount(payload["summary"], {
        "workloads": len(workloads),
        "configs_run": len(runs),
        **{s: statuses[s] for s in ("ok", "divergent", "race", "error")},
        "loops_checked": sum(c["loops_checked"] for c in runs),
        "conflicts": sum(len(c["races"]) for c in runs),
    }, "$.summary")


# ---------------------------------------------------------------------------
# repro-faults/1


def faults_rules(payload: dict):
    scenarios, runs = payload["scenarios"], payload["runs"]
    for name, plan in scenarios.items():
        if plan["name"] != name:
            yield (f"$.scenarios.{name}: plan name {plan['name']!r} != "
                   f"key {name!r}")
    for i, r in enumerate(runs):
        at = f"$.runs[{i}]"
        if r["scenario"] not in scenarios:
            yield (f"{at}: scenario {r['scenario']!r} not in the sweep's "
                   f"matrix")
        if r["ok"] != all(r["checks"][c] for c in FAULT_CHECKS):
            yield f"{at}: ok flag does not equal the conjunction of the checks"
        healthy, faulted = r["healthy_cycles"], r["faulted_cycles"]
        ratio = faulted / max(healthy, 1e-9)
        if not _rel_eq(r["degradation"], ratio):
            yield (f"{at}: degradation {r['degradation']} != "
                   f"faulted/healthy {ratio}")
        if r["ok"] and r["degradation"] < 1.0 - REL_TOL:
            yield f"{at}: ok cell degraded below healthy ({r['degradation']})"
        if r["ok"] and faulted > healthy * r["bound"] + 1.0:
            yield (f"{at}: ok cell exceeds its bound "
                   f"({faulted} > {healthy} * {r['bound']})")
    yield from _unique(((r["workload"], r["scenario"]) for r in runs),
                       "$.runs", "(workload, scenario) cells")
    n_ok = sum(1 for r in runs if r["ok"])
    summary = payload["summary"]
    yield from _recount(summary, {
        "cells_run": len(runs), "ok": n_ok, "failed": len(runs) - n_ok,
        "harness_faults": len(payload["faults"])}, "$.summary")
    yield from _recount(summary["checks_failed"], {
        c: sum(1 for r in runs if not r["checks"][c])
        for c in FAULT_CHECKS}, "$.summary.checks_failed")


# ---------------------------------------------------------------------------
# repro-bench-host/3


def bench_host_rules(payload: dict):
    cache, par = payload["cache"], payload["parallel"]
    eng, base = payload["engines"], payload["baseline"]
    for at, got, num, den in (
            ("$.cache.warm_speedup", cache["warm_speedup"],
             base["tree_cold_seconds"], cache["warm_seconds"]),
            ("$.parallel.parallel_speedup", par["parallel_speedup"],
             par["serial_seconds"], par["parallel_seconds"]),
            ("$.engines.source_warm_speedup", eng["source_warm_speedup"],
             eng["tree_cold_seconds"], eng["source_warm_seconds"]),
            ("$.engines.source_vs_compiled_speedup",
             eng["source_vs_compiled_speedup"],
             eng["compiled_warm_seconds"], eng["source_warm_seconds"])):
        want = num / max(den, 1e-9)
        if abs(got - want) > REL_TOL * max(abs(want), 1.0):
            yield f"{at}: {got} inconsistent with the recorded seconds ({want})"
    if payload["ok"] != all(payload["checks"].values()):
        yield "$.ok: ok flag must equal the conjunction of the checks"
    for name, rec in payload["latency"].items():
        at = f"$.latency.{name}"
        ps = [rec["p50_s"], rec["p95_s"], rec["p99_s"]]
        if not rec["cells"]:
            if any(p is not None for p in ps):
                yield f"{at}: an empty run must have null percentiles"
        elif None in ps:
            yield f"{at}: a populated run needs every percentile"
        elif not (ps[0] <= ps[1] + REL_TOL and ps[1] <= ps[2] + REL_TOL):
            yield (f"{at}: percentiles not monotone: p50={ps[0]} "
                   f"p95={ps[1]} p99={ps[2]}")


# ---------------------------------------------------------------------------
# repro-lint/1


def lint_rules(payload: dict):
    files = payload["files"]
    for i, f in enumerate(files):
        at = f"$.files[{i}]"
        for j, d in enumerate(f["diagnostics"]):
            want = "error" if d["code"][0] == "F" else "warning"
            if d["severity"] != want:
                yield (f"{at}.diagnostics[{j}]: severity "
                       f"{d['severity']!r} disagrees with code prefix "
                       f"{d['code'][0]!r}")
        sev = Counter(d["severity"] for d in f["diagnostics"])
        yield from _recount(f, {"error_count": sev["error"],
                                "warning_count": sev["warning"]}, at)
        if f["ok"] != (sev["error"] == 0 and f["suppressed_errors"] == 0):
            yield f"{at}: ok flag {f['ok']!r} disagrees with the diagnostics"
    if payload["ok"] != all(f["ok"] for f in files):
        yield "$.ok: ok flag must equal the conjunction of the files"
    yield from _recount(payload, {k: sum(f[k] for f in files)
                                  for k in ("error_count", "warning_count")},
                        "$")
    yield from _unique((f["path"] for f in files), "$.files", "file paths")


# ---------------------------------------------------------------------------
# repro-server/1


def server_rules(payload: dict):
    status, result, fault = (payload["status"], payload["result"],
                             payload["fault"])
    if payload["retries"] != payload["attempts"] - 1:
        yield (f"$.retries: {payload['retries']} != attempts - 1 "
               f"({payload['attempts'] - 1})")
    if status in ("ok", "degraded"):
        if fault is not None:
            yield f"$.fault: a {status} response must not carry a fault"
        if result is None:
            yield f"$.result: a {status} response must carry a result"
        if status == "ok" and payload["degraded"]:
            yield "$.degraded: an ok response must have an empty degraded list"
        if status == "degraded" and not payload["degraded"]:
            yield "$.degraded: a degraded response must say how it degraded"
    else:
        if result is not None:
            yield f"$.result: a {status} response must not carry a result"
        if status == "error" and fault is None:
            yield "$.fault: an error response must carry a fault object"
        elif status == "error":
            for key in ("label", "kind", "error_type", "message"):
                if key not in fault:
                    yield f"$.fault.{key}: required fault key"
        elif not payload["reason"]:
            yield f"$.reason: a {status} response must carry a reason"
    if result is None:
        return
    if payload["endpoint"] == "restructure":
        nested, tag, at = result.get("experiment"), SCHEMA_TAG, \
            "$.result.experiment"
    else:
        nested, tag, at = result, LINT_TAG, "$.result"
    for problem in check(nested, tag, RULES[tag]):
        yield at + problem[1:]


RULES = {
    SCHEMA_TAG: experiment_rules,
    PROFILE_TAG: profile_rules,
    VALIDATE_TAG: validation_rules,
    FAULTS_TAG: faults_rules,
    BENCH_HOST_TAG: bench_host_rules,
    BENCH_HISTORY_TAG: entry_invariants,
    METRICS_TAG: metrics_invariants,
    LINT_TAG: lint_rules,
    SERVER_TAG: server_rules,
}


def validate(payload) -> list[str]:
    """Return a list of violations (empty == valid)."""
    if not isinstance(payload, dict):
        return ["$: payload must be an object"]
    tag = payload.get("schema")
    return check(payload, tag, RULES.get(tag))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    raw = sys.stdin.read() if argv[1] == "-" else open(argv[1]).read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate(payload)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{len(problems)} violation(s)", file=sys.stderr)
        return 1
    tag = payload["schema"]
    if tag == PROFILE_TAG:
        print(f"OK: {len(payload['runs'])} profiled run(s) conform to "
              f"{PROFILE_TAG}")
    elif tag == VALIDATE_TAG:
        s = payload["summary"]
        print(f"OK: {s['configs_run']} validation run(s) over "
              f"{s['workloads']} workload(s) conform to {VALIDATE_TAG}")
    elif tag == FAULTS_TAG:
        s = payload["summary"]
        print(f"OK: {s['cells_run']} oracle cell(s) "
              f"({s['ok']} ok, {s['harness_faults']} harness fault(s)) "
              f"conform to {FAULTS_TAG}")
    elif tag == BENCH_HOST_TAG:
        print(f"OK: {len(payload['runs'])} host benchmark run(s) "
              f"conform to {BENCH_HOST_TAG}")
    elif tag == BENCH_HISTORY_TAG:
        print(f"OK: history entry with {len(payload['metrics'])} "
              f"metric(s) conforms to {BENCH_HISTORY_TAG}")
    elif tag == METRICS_TAG:
        s = payload["summary"]
        print(f"OK: {len(payload['spans'])} span(s) over "
              f"{s['cells']} cell(s) and {len(payload['pids'])} "
              f"process(es) conform to {METRICS_TAG}")
    elif tag == LINT_TAG:
        print(f"OK: lint report over {len(payload['files'])} file(s) "
              f"({payload['error_count']} error(s), "
              f"{payload['warning_count']} warning(s)) conforms to "
              f"{LINT_TAG}")
    elif tag == SERVER_TAG:
        print(f"OK: {payload['endpoint']} envelope ({payload['status']}) "
              f"conforms to {SERVER_TAG}")
    else:
        n = len(payload["experiments"])
        print(f"OK: {n} experiment(s) conform to {SCHEMA_TAG}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
