#!/usr/bin/env python3
"""The repo benchmark: ``python3 perfbench/run.py --workload NAME``.

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``validate`` — the ``repro.validate --all --engine source`` sweep;
- ``paper``    — all seven paper tables at paper sizes;
- ``serve``    — a closed loop of 2 clients against ``repro.server``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
layer-traced variant and prints the per-layer metrics instead, writing
its spans to ``.perfbench/spans-<workload>.jsonl``.  Every run checks
its outputs; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common, stats  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("validate", "paper", "serve")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "p50_ms": "ms", "p90_ms": "ms",
    "rps": "1/s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_overhead", "_slowness")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    common.prepare()
    workload = importlib.import_module(f"perfbench.wl_{ns.workload}")
    out = workload.run(ns.seed, ns.seconds, bool(ns.trace))

    attempted, failed = out["attempted"], out["failed"]
    share = stats.failed_share(attempted, failed)
    e2e = out["e2e"]
    items = e2e["items"]
    q, tail_value, n = stats.tail(items)
    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"measured {out['measured_s']:.1f} s")
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_share {share!r} ratio")
    if q is None:
        print(f"  tail: fewer than {stats.MIN_BEYOND + 1} item latencies "
              f"(n={n})")
    else:
        print(f"  tail: p{q:g} = {tail_value * 1e3:.3f} ms is the highest "
              f"percentile with >= {stats.MIN_BEYOND} of n={n} item "
              f"latencies beyond it")
    if not ns.trace:
        # printed, not reported: on serve it moves with the host's noisy
        # phases by more than any useful bound (README, "p99_ms")
        print(f"  p99_ms {stats.percentile(items, 99) * 1e3:.3f} ms")
    if "slowness" in out:
        print(f"  host slowness {out['slowness']:.3f}: times are "
              f"reference-speed seconds (perfbench/hostspeed.py)")
    for problem in out["problems"]:
        print(f"  CHECK FAILED: {problem}")

    if ns.trace:
        metrics = {name: out["per_layer"][name] for name in PER_LAYER}
        metrics["failed_share"] = share
        units = {name: layer_unit(name) for name in metrics}
        common.WORK.mkdir(exist_ok=True)
        out["tracer"].dump(str(common.WORK / f"spans-{ns.workload}.jsonl"))
    else:
        metrics = {
            "setup_s": out["setup_s"],
            "wall_s": e2e["wall_s"],
            "p50_ms": stats.percentile(items, 50) * 1e3,
            "p90_ms": stats.percentile(items, 90) * 1e3,
            "rps": e2e["rps"],
            "peak_rss_mb": e2e["peak_rss_mb"],
        }
        units = E2E_UNITS
    correct = not out["problems"] and failed == 0
    common.emit(correct, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
