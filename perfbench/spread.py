#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

``python3 perfbench/spread.py [--runs 10] [--sets 1] [--workload NAME ...]
[-o out.json]``

Runs ``perfbench/run.py`` once per seed on each workload with
``--trace 0`` and the ``run_seconds`` of ``BENCHMARK.json``, then prints
each metric's median and its interquartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  A spread above a third of its bound is flagged; ``setup_s`` is
exempt from the spread rule.  With ``--sets 2`` the whole measurement
repeats and each metric's second median is compared with its first.
``-o`` writes every value with the git and host stamps
(``baseline.json`` was written this way).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common, stats  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def measure(spec: dict, workload: str, runs: int, first_seed: int) -> dict:
    """Every end-to-end value of ``runs`` runs with consecutive seeds."""
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(proc.stdout)
            raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worse_if_higher = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(prog="perfbench/spread.py")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("-o", "--output", default=None)
    ns = ap.parse_args(argv)

    steady = True
    sets = []
    for k in range(ns.sets):
        summary: dict = {}
        for wl in ns.workload or [w["name"] for w in spec["workloads"]]:
            summary[wl] = {}
            seed0 = 1 + k * ns.runs                # fresh seeds per set
            for name, vals in measure(spec, wl, ns.runs, seed0).items():
                share = stats.iqr_share(vals)
                med = stats.median(vals)
                ok = name == "setup_s" or share < bounds[name] / 3
                note = "" if ok else "  ** above a third of the bound"
                if k:
                    first = sets[0][wl][name]["median"]
                    change = (med / first - 1) if worse_if_higher[name] \
                        else (1 - med / first)
                    ok2 = change <= bounds[name]
                    note += f"  vs set 1: {change:+.4f}" + \
                        ("" if ok2 else " ** worse by more than the bound")
                    ok &= ok2
                steady &= ok
                summary[wl][name] = {"median": med, "iqr_share": share,
                                     "values": vals}
                print(f"  set {k + 1} {wl:<9} {name:<12} median {med:<12.5g}"
                      f" spread {share:.4f}  bound {bounds[name]}{note}",
                      flush=True)
        sets.append(summary)
    if ns.output:
        common.prepare()
        from repro.obs.history import git_stamp, host_stamp

        doc = {"git": git_stamp(ROOT), "host": host_stamp(),
               "run_seconds": spec["run_seconds"], "runs": ns.runs,
               "sets": sets}
        Path(ns.output).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
