"""repro.obs — the longitudinal/forensic observability plane.

Where :mod:`repro.trace`/:mod:`repro.prof` observe the *simulated*
machine and :mod:`repro.telemetry` observes one run of the *host*
pipeline, this package watches runs **over time** and **explains**
them:

- :mod:`repro.obs.history` + :mod:`repro.obs.sentinel` — an append-only
  bench history (``repro-bench-history/1``) of ``repro-bench-host/3``
  and ``repro-metrics/1`` payloads, stamped with git SHA + machine
  fingerprint, gated by a statistical regression sentinel
  (Mann-Whitney / bootstrap CI with per-metric thresholds);
- :mod:`repro.obs.explain` — the cross-layer "why was this slow" join:
  host span time × simulated cycle categories × cache hit/miss ×
  worker queue delay, per sweep cell;
- :mod:`repro.obs.log` — structured JSONL logging with levels and
  telemetry-correlated ids, a true no-op while unconfigured;
- :mod:`repro.obs.flight` — the crash flight recorder: a bounded ring
  of recent log/span events dumped into fault reports.

CLI: ``python -m repro.obs record|check|report|explain``.
"""

from repro.obs.log import configure as configure_logging
from repro.obs.log import configure_from_env as configure_logging_from_env
from repro.obs.log import enabled as logging_enabled
from repro.obs.log import get_logger
from repro.obs.log import shutdown as shutdown_logging

__all__ = [
    "configure_logging",
    "configure_logging_from_env",
    "get_logger",
    "logging_enabled",
    "shutdown_logging",
]
