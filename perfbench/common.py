"""Shared plumbing: checkout paths, a clean environment, set-up timing,
peak memory, and the result line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from perfbench import hostspeed, stats

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: working directory inside the checkout for span dumps and temp files
WORK = ROOT / ".perfbench"

#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 5


def clean_env() -> dict:
    """The environment every measured process gets: ``REPRO_*`` knobs
    (telemetry, logging, cache, engine) scrubbed, ``src/`` importable,
    temp files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def prepare() -> None:
    """Make this process match :func:`clean_env` and import ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {SRC}")
    WORK.mkdir(exist_ok=True)
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    os.environ["TMPDIR"] = str(WORK)
    sys.path.insert(0, str(SRC))


def time_import(modules: list[str]) -> float:
    """Reference-speed seconds from starting a fresh interpreter until
    it has imported ``modules`` and reported ready.

    The interpreter samples its own speed with ``hostspeed.probe``
    before and after the imports; the probes' time is taken out and the
    rest scaled by the median of the two samples.
    """
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(ROOT)!r})",
        "from perfbench.hostspeed import probe",
        "w0, c0 = probe()",
        "import " + ", ".join(modules),
        "w1, c1 = probe()",
        "print('ready', w0 + w1, (c0 + c1) / 2, flush=True)",
    ])
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=str(ROOT),
                            env=clean_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    fields = line.split()
    if fields[:1] != ["ready"] or len(fields) != 3 or proc.returncode != 0:
        raise RuntimeError(f"import of {modules} failed "
                           f"(exit {proc.returncode})")
    probing, cpu = float(fields[1]), float(fields[2])
    return (elapsed - probing) * hostspeed.NOMINAL_S / cpu


def setup_seconds(modules: list[str]) -> float:
    return stats.median([time_import(modules)
                         for _ in range(SETUP_REPEATS)])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    """Print the human-readable table, then the one-line JSON result."""
    for name, value in metrics.items():
        print(f"  {name:<40} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
