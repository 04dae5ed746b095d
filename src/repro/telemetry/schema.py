"""Validator for the ``repro-metrics/1`` telemetry artifact.

Structure lives in ``schemas/metrics.schema.json`` and is enforced by
:mod:`repro.schemacheck`.  :func:`validate_metrics` then holds a
conforming artifact to the invariants a schema cannot express (also
reached via ``scripts/validate_experiment_json.py``):

- histogram bucket counts sum to ``count``; percentile estimates are
  bounded by the recorded ``[min, max]`` and monotone in q;
- every span's pid is listed in ``pids`` and its parent id resolves
  within the document (or is null); a cell span carries its cell index;
- the summary recounts (cells, stages, workers) agree with the span
  list, and cache hit rates agree with the cache counters.
"""

from __future__ import annotations

from collections import Counter

from repro.schemacheck import check
from repro.telemetry.export import SCHEMA_TAG

REL_TOL = 1e-6

_PERCENTILES = ("p50", "p90", "p95", "p99")


def _histogram(h: dict, at: str):
    bounds, counts, count = h["bounds"], h["counts"], h["count"]
    if bounds != sorted(set(bounds)):
        yield f"{at}: bounds must be strictly increasing"
    if len(counts) != len(bounds) + 1:
        yield (f"{at}: need len(bounds)+1 counts, got {len(counts)} "
               f"for {len(bounds)} bounds")
    if sum(counts) != count:
        yield f"{at}: bucket counts sum to {sum(counts)}, count says {count}"
    ps = [h[p] for p in _PERCENTILES]
    lo, hi = h["min"], h["max"]
    if count == 0:
        if any(v is not None for v in ps):
            yield f"{at}: empty histogram must have null percentiles"
        return
    if lo is None or hi is None or lo > hi or None in ps:
        yield (f"{at}: non-empty histogram needs min <= max and every "
               f"percentile")
        return
    for p, v in zip(_PERCENTILES, ps):
        if not lo - REL_TOL <= v <= hi + REL_TOL:
            yield f"{at}: {p}={v} escapes [min={lo}, max={hi}]"
    for p, prev, v in zip(_PERCENTILES[1:], ps, ps[1:]):
        if v < prev - REL_TOL:
            yield f"{at}: {p}={v} < previous percentile {prev} (not monotone)"
    if not count * lo - REL_TOL <= h["sum"] <= count * hi + REL_TOL:
        yield f"{at}: sum={h['sum']} inconsistent with count*[min,max]"


def invariants(payload: dict):
    """The semantic violations of a schema-conforming artifact."""
    for i, h in enumerate(payload["metrics"]["histograms"]):
        yield from _histogram(h, f"$.metrics.histograms[{i}]")
    spans, pids = payload["spans"], set(payload["pids"])
    ids = {s["id"] for s in spans}
    for i, s in enumerate(spans):
        at = f"$.spans[{i}]"
        if pids and s["pid"] not in pids:
            yield f"{at}: pid {s['pid']!r} not in $.pids"
        parent = s.get("parent")
        if parent is not None and parent not in ids:
            yield f"{at}: parent {parent!r} does not resolve in the document"
        if s["name"] == "cell" and s["cell"] is None:
            yield f"{at}: a cell span must carry its cell index"

    summary = payload["summary"]
    cells = sum(1 for s in spans if s["name"] == "cell")
    if summary["cells"] != cells:
        yield (f"$.summary.cells: says {summary['cells']}, span recount "
               f"is {cells}")
    recount = Counter(s["name"] for s in spans if s["name"] != "cell")
    stages = summary["stages"]
    for name, st in stages.items():
        if st["count"] != recount[name]:
            yield (f"$.summary.stages.{name}: count {st['count']} != span "
                   f"recount {recount[name]}")
    if set(stages) != set(recount):
        yield (f"$.summary.stages: stage names {sorted(stages)} != span "
               f"recount {sorted(recount)}")
    span_pids = {str(s["pid"]) for s in spans}
    if set(summary["workers"]) != span_pids:
        yield (f"$.summary.workers: worker pids {sorted(summary['workers'])}"
               f" != span pids {sorted(span_pids)}")
    for kind, slot in summary["cache"].items():
        total = slot["hits"] + slot["misses"]
        want = slot["hits"] / total if total else 0.0
        if abs(slot["hit_rate"] - want) > REL_TOL:
            yield f"$.summary.cache.{kind}: hit_rate {slot['hit_rate']} != {want}"


def validate_metrics(payload) -> list[str]:
    """Return a list of violations (empty == valid)."""
    return check(payload, SCHEMA_TAG, invariants)
