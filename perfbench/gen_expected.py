#!/usr/bin/env python3
"""Regenerate ``perfbench/expected/<table>.json``, the JSON every paper
table must reproduce byte for byte: ``python3 perfbench/gen_expected.py``.

Run it only when a change is meant to move simulated cycles; the
``paper`` workload fails its check on any difference.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402
from perfbench.layers import EXPERIMENTS  # noqa: E402
from perfbench.wl_paper import EXPECTED, table_json  # noqa: E402


def main() -> int:
    common.prepare()
    from repro.experiments import ALL_EXPERIMENTS

    EXPECTED.mkdir(exist_ok=True)
    for name in EXPERIMENTS:
        (EXPECTED / f"{name}.json").write_text(
            table_json(ALL_EXPERIMENTS[name](quick=False)))
        print(f"wrote {EXPECTED / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
