"""The observability CLI: ``python -m repro.obs {record,check,report,explain}``.

``record PAYLOAD.json ...``
    Append one ``repro-bench-history/1`` entry — git SHA + machine
    fingerprint + the metrics extracted from the given
    ``repro-bench-host/3`` / ``repro-metrics/1`` payloads — to the
    append-only bench history (``benchmarks/history/history.jsonl``).

``check``
    Run the regression sentinel: gate the newest entry (or ``--current``
    payloads) against the same-host baseline with per-metric thresholds
    and statistical confirmation (Mann-Whitney / bootstrap CI).

``report``
    Render per-metric ASCII trend sparklines over the history.

``explain DIR``
    The cross-layer "why was this slow" join: per sweep cell, host span
    time x worker queue delay x cache hits/misses x (with ``--sweep``)
    the simulated cycle/degradation attribution.

Exit status (the shared sweep-CLI map):
    0  ok
    1  regression: the sentinel confirmed a degraded metric
    2  usage error (bad flag, unreadable/unrecognized input file)
    3  internal fault: the tool itself crashed
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs import history as hist
from repro.obs import sentinel, trend


class _UsageError(Exception):
    """Bad input that argparse can't see (unreadable file, bad payload)."""


def _load_json(path: str) -> dict:
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise _UsageError(f"{path}: expected a JSON object")
    return payload


def _build_current_entry(paths: list[str], note=None) -> dict:
    payloads = [_load_json(p) for p in paths]
    try:
        return hist.build_entry(payloads, note=note)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_record(ns) -> int:
    entry = _build_current_entry(ns.payloads, note=ns.note)
    errs = hist.validate_entry(entry)
    if errs:        # means a bug in build_entry, not bad user input
        for e in errs:
            print(f"invalid entry: {e}", file=sys.stderr)
        return 3
    if ns.dry_run:
        json.dump(entry, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    hist.append_entry(ns.history, entry)
    n = len(hist.load_history(ns.history))
    sha = (entry["git"].get("sha") or "")[:10] or "?"
    print(f"recorded {len(entry['metrics'])} metric(s) at {sha} "
          f"(host {entry['fingerprint']}) -> {ns.history} "
          f"[{n} entr{'y' if n == 1 else 'ies'}]")
    return 0


def _cmd_check(ns) -> int:
    try:
        thresholds = sentinel.parse_threshold_overrides(
            ns.thresholds or ())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    entries = hist.load_history(ns.history)
    current = None
    if ns.current:
        current = _build_current_entry(ns.current)
    elif not entries:
        print(f"{ns.history}: empty or missing history — nothing to "
              f"check (record a baseline first)", file=sys.stderr)
        return 0
    report = sentinel.check_history(
        entries, current, thresholds=thresholds, alpha=ns.alpha,
        metrics=ns.metrics, all_hosts=ns.all_hosts, last=ns.last)
    if ns.as_json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(sentinel.render_check(report))
    return 0 if report["ok"] else 1


def _cmd_report(ns) -> int:
    entries = hist.load_history(ns.history)
    print(trend.render_trend(entries, metrics=ns.metrics,
                             last=ns.last, all_hosts=ns.all_hosts))
    return 0


def _cmd_explain(ns) -> int:
    from repro.obs import explain

    try:
        payload = explain.load_metrics(ns.dir)
    except (FileNotFoundError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{ns.dir}: metrics.json is not valid JSON "
                          f"({exc})") from exc
    sweep = _load_json(ns.sweep) if ns.sweep else None
    rows = explain.correlate(payload, sweep)
    if ns.as_json:
        out = rows if ns.cell is None \
            else [r for r in rows if r["cell"] == ns.cell]
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        print(explain.render(rows, cell=ns.cell))
    return 0


# ---------------------------------------------------------------------------


def _add_history_arg(p) -> None:
    p.add_argument("--history", default=str(hist.DEFAULT_HISTORY),
                   metavar="FILE",
                   help=f"bench history JSONL "
                        f"(default: {hist.DEFAULT_HISTORY})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="bench history, regression sentinel, trend report, "
                    "and cross-layer slow-cell attribution")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("record",
                       help="append a history entry from bench payloads")
    p.add_argument("payloads", nargs="+", metavar="PAYLOAD",
                   help="repro-bench-host/3 and/or repro-metrics/1 "
                        "JSON files")
    _add_history_arg(p)
    p.add_argument("--note", default=None,
                   help="free-form note stored on the entry")
    p.add_argument("--dry-run", action="store_true",
                   help="print the entry instead of appending it")
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser("check", help="run the regression sentinel")
    _add_history_arg(p)
    p.add_argument("--current", nargs="+", metavar="PAYLOAD",
                   default=None,
                   help="gate these payloads instead of the newest "
                        "history entry")
    p.add_argument("--threshold", action="append", dest="thresholds",
                   metavar="PATTERN=FRAC",
                   help="override a gate threshold "
                        "(e.g. 'host_seconds/*=0.5'); repeatable")
    p.add_argument("--alpha", type=float,
                   default=sentinel.DEFAULT_ALPHA,
                   help="significance level of the confirmation tests "
                        "(default: %(default)s)")
    p.add_argument("--metric", action="append", dest="metrics",
                   metavar="PATTERN",
                   help="gate only matching metrics; repeatable")
    p.add_argument("--all-hosts", action="store_true",
                   help="compare across machine fingerprints (ratios "
                        "only is wise; wall clocks don't transfer)")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="use only the N newest baseline entries")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the verdict report as JSON")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", help="ASCII trend sparklines")
    _add_history_arg(p)
    p.add_argument("--metric", action="append", dest="metrics",
                   metavar="PATTERN",
                   help="show only matching metrics; repeatable")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="use only the N newest entries")
    p.add_argument("--all-hosts", action="store_true",
                   help="mix entries from every machine fingerprint")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("explain",
                       help="per-cell slow-cell attribution join")
    p.add_argument("dir", metavar="DIR",
                   help="telemetry session dir (or metrics.json path)")
    p.add_argument("--sweep", default=None, metavar="PAYLOAD",
                   help="the sweep's JSON payload (repro-experiment/1, "
                        "repro-validate/1 or repro-faults/1) to join "
                        "the simulated side")
    p.add_argument("--cell", type=int, default=None,
                   help="detail view of one cell index")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the joined rows as JSON")
    p.set_defaults(fn=_cmd_explain)

    ns = ap.parse_args(argv)
    try:
        return ns.fn(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:    # the shared map: 3 == tool crashed
        import traceback

        traceback.print_exc()
        print(f"internal fault: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
