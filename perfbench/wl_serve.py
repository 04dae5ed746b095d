"""The ``serve`` workload: a closed loop of 2 clients, one keep-alive
connection each, against a ``python -m repro.server --jobs 2``
subprocess.

Each client sends its next ``/restructure`` request only after the
previous reply, drawing from one seeded mix:

- ``repeat`` (~50%): one of the 22 validation workload sources, warm in
  a server worker after its first sight;
- ``distinct`` (~40%): a seeded ``fortran.fuzz`` executable program,
  always a cold compile;
- ``malformed`` (~10%): a fuzz program with a broken assignment, which
  the linter rejects.

Before timing, :func:`warm_up` sends every ``repeat`` source
:data:`WARM_PASSES` times, so that both workers have compiled each one
and the timed ``repeat`` requests are warm, as in a long-running server.
Latency is timed from send.  The loop runs for ``--seconds`` and until
at least :data:`MIN_REQUESTS` replies, so the 99th percentile has 12
samples beyond it.  Checks: every ``ok`` result is byte-identical to an
in-process ``ingest_source`` + ``source_payload`` replay of the same
body, every ``malformed`` request returns ``invalid-input``, and the
client's status tallies equal the server's
``repro_server_requests_total`` (coalesced duplicates share the
leader's request id and count once).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Optional

from perfbench import common, hostspeed, stats
from perfbench.layers import SERVER_STATUSES, LayerProbe, cache_ratios

CLIENTS = 2
JOBS = 2
MIN_REQUESTS = 1200
#: sends of each repeat source before timing; a worker compiles a source
#: on first sight, and each send lands on either worker
WARM_PASSES = 6
#: requests per batch, the serve counterpart of one sweep or table set
BATCH = 100
MIX = (("repeat", 0.5), ("distinct", 0.4), ("malformed", 0.1))
EXPECT = {"repeat": "ok", "distinct": "ok", "malformed": "invalid-input"}


# ---------------------------------------------------------------------------
# inputs


def break_source(source: str) -> str:
    """Open a parenthesis in the first assignment: a syntax error."""
    lines = source.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("c") and " = " in line:
            lines[i] = line.replace(" = ", " = (", 1)
            return "\n".join(lines) + "\n"
    raise ValueError("no assignment to break")


class RequestStream:
    """The seeded request sequence, handed out in order to the clients
    until the run's time and count floor are both met."""

    def __init__(self, seed: int, seconds: float):
        from repro.workloads import validation_cases

        self.rng = random.Random(seed)
        self.repeat = [c.source for _, c in
                       sorted(validation_cases().items())]
        self.seconds = seconds
        self.lock = threading.Lock()
        self.issued = 0
        self.t0 = 0.0

    def _draw(self) -> tuple[str, str]:
        from repro.fortran.fuzz import generate

        r = self.rng.random()
        if r < MIX[0][1]:
            return "repeat", self.rng.choice(self.repeat)
        prog = generate(self.rng.randrange(1 << 30), "executable")
        if r < MIX[0][1] + MIX[1][1]:
            return "distinct", prog.source
        return "malformed", break_source(prog.source)

    def next(self):
        with self.lock:
            if self.issued >= MIN_REQUESTS and \
                    time.perf_counter() - self.t0 >= self.seconds:
                return None
            idx = self.issued
            self.issued += 1
            kind, source = self._draw()
        return idx, kind, json.dumps({"source": source}).encode()


# ---------------------------------------------------------------------------
# the server process


#: ``python -m repro.server`` (``runpy`` does what ``-m`` does), with
#: the host-speed probe before and after the server's heavy imports
LAUNCH = "\n".join([
    "import runpy, sys",
    f"sys.path.insert(0, {str(common.ROOT)!r})",
    "from perfbench.hostspeed import probe",
    "w0, c0 = probe()",
    "import repro.server.http, repro.server.service",
    "w1, c1 = probe()",
    "print('probe', w0 + w1, (c0 + c1) / 2, file=sys.stderr, flush=True)",
    "runpy.run_module('repro.server', run_name='__main__', alter_sys=True)",
])


class Server:
    def __init__(self):
        t0 = time.perf_counter()
        self._drain = None
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, "--port", "0",
             "--jobs", str(JOBS)],
            cwd=str(common.ROOT), env=common.clean_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        fields = self.proc.stderr.readline().split()
        if fields[:1] != ["probe"] or len(fields) != 3:
            self.stop()
            raise RuntimeError(f"server launcher failed: {fields!r}")
        probing, cpu = float(fields[1]), float(fields[2])
        line = self.proc.stderr.readline().strip()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        # keep the pipe drained for the server's lifetime
        self._drain = threading.Thread(target=self.proc.stderr.read,
                                       daemon=True)
        self._drain.start()
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                code, _ = self.get("/readyz")
                if code == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or \
                    time.perf_counter() - t0 > 60:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.005)
        # reference-speed seconds, as ``common.time_import`` reports
        self.setup_s = (time.perf_counter() - t0 - probing) \
            * hostspeed.NOMINAL_S / cpu

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    def get(self, path: str) -> tuple[int, str]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its worker processes."""
        total = common.vm_hwm_mb(self.proc.pid)
        for pid in children(self.proc.pid):
            try:
                total += common.vm_hwm_mb(pid)
            except FileNotFoundError:      # a worker that exited meanwhile
                pass
        return total

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=30)
        self.proc.stderr.close()


def children(pid: int) -> list[int]:
    """Live child processes of ``pid``, read off ``/proc/*/stat``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:            # exited while we looked
            continue
        # the command name may contain spaces: fields follow its ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


_SAMPLE = re.compile(r'^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> list[tuple[str, dict, float]]:
    """Prometheus text exposition to ``(name, labels, value)`` samples."""
    out = []
    for line in text.splitlines():
        m = _SAMPLE.match(line)
        if m and not line.startswith("#"):
            out.append((m.group(1), dict(_LABEL.findall(m.group(2) or "")),
                        float(m.group(3))))
    return out


def metric_sum(samples, name: str, **labels) -> float:
    return sum(v for n, lab, v in samples if n == name
               and all(lab.get(k) == want for k, want in labels.items()))


# ---------------------------------------------------------------------------
# the closed loop


class Reply:
    __slots__ = ("idx", "kind", "body", "latency", "done_at", "raw",
                 "traced")

    def __init__(self, idx, kind, body, latency, done_at, raw, traced):
        self.idx, self.kind, self.body = idx, kind, body
        self.latency, self.done_at, self.raw = latency, done_at, raw
        self.traced = traced


def client(server: Server, stream: RequestStream, replies: list,
           lock: threading.Lock, errors: list, probe) -> None:
    conn = server.connect()
    headers = {"Content-Type": "application/json"}
    try:
        while True:
            job = stream.next()
            if job is None:
                return
            idx, kind, body = job
            # traced runs trace every other request, so the traced and
            # untraced halves interleave and their difference is the
            # tracing overhead
            traced = probe is not None and idx % 2 == 0
            t = time.perf_counter()
            if traced:
                with probe.tracer.span("serve.request"):
                    conn.request("POST", "/restructure", body, headers)
                    raw = conn.getresponse().read()
            else:
                conn.request("POST", "/restructure", body, headers)
                raw = conn.getresponse().read()
            done = time.perf_counter()
            with lock:
                replies.append(Reply(idx, kind, body, done - t, done, raw,
                                     traced))
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        errors.append(f"client: {type(exc).__name__}: {exc}")
    finally:
        conn.close()


def warm_up(server: Server, sources: list[str], seed: int) -> list[str]:
    """Send each source :data:`WARM_PASSES` times in a seeded order
    from :data:`CLIENTS` concurrent clients; returns the problems seen
    (every reply must be ``ok``)."""
    bodies = [json.dumps({"source": src}).encode()
              for src in sources for _ in range(WARM_PASSES)]
    random.Random(seed).shuffle(bodies)
    problems: list[str] = []

    def send(share: list[bytes]) -> None:
        conn = server.connect()
        try:
            for body in share:
                conn.request("POST", "/restructure", body,
                             {"Content-Type": "application/json"})
                status = json.loads(conn.getresponse().read())["status"]
                if status != "ok":
                    problems.append(f"warm-up request returned {status}")
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            problems.append(f"warm-up: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    threads = [threading.Thread(target=send, args=(bodies[c::CLIENTS],))
               for c in range(CLIENTS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return problems


def _ingest(body: bytes) -> Optional[str]:
    from repro.experiments.ingest import ingest_source, source_payload

    table, _ = ingest_source(json.loads(body)["source"], "<request>",
                             quick=False)
    return None if table is None else \
        json.dumps(source_payload(table, False), indent=2)


def warm_replay(sources: list[str]) -> dict[bytes, Optional[str]]:
    """Start the replay's cache cold, then replay each warm-up source
    once, as :func:`warm_up` did to the server; returns the payloads by
    body."""
    from repro.engine import configure

    configure(cache_dir=None)
    bodies = [json.dumps({"source": src}).encode() for src in sources]
    return {body: _ingest(body) for body in bodies}


def replay(replies: list[Reply], first: dict[bytes, Optional[str]],
           ) -> tuple[list[float], dict]:
    """In-process ``ingest_source`` + ``source_payload`` of the bodies,
    in send order, after :func:`warm_replay` produced ``first``.

    Returns the compute seconds of every request and the serialized
    payload of every ok one.  A body is replayed on its first sight
    (cold, unless warmed up) and its second (warm, like a repeat in a
    server worker); later sights reuse the warm time and the payload.
    """
    first = dict(first)
    warm: dict[bytes, float] = {}
    times, payloads = [], {}
    for r in sorted(replies, key=lambda r: r.idx):
        if r.body in warm:
            times.append(warm[r.body])
            payloads[r.idx] = first[r.body]
            continue
        t = time.perf_counter()
        text = _ingest(r.body)
        elapsed = time.perf_counter() - t
        if r.body in first:
            warm[r.body] = elapsed
        else:
            first[r.body] = text
        times.append(elapsed)
        payloads[r.idx] = text
    return times, payloads


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.engine import cache_stats

    starts = []
    server = None
    for _ in range(common.SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server()
        starts.append(server.setup_s)
    probe = LayerProbe() if trace else None
    problems: list[str] = []
    try:
        stream = RequestStream(seed, seconds)
        problems += warm_up(server, stream.repeat, seed)
        before = parse_metrics(server.get("/metrics")[1])
        replies: list[Reply] = []
        lock = threading.Lock()
        errors: list[str] = []
        threads = [threading.Thread(
            target=client, args=(server, stream, replies, lock, errors,
                                 probe)) for _ in range(CLIENTS)]
        stream.t0 = t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        measured = time.perf_counter() - t0
        after = parse_metrics(server.get("/metrics")[1])
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    problems += errors

    # -- checks --------------------------------------------------------------
    warmed = warm_replay(stream.repeat)
    if probe:
        probe.install()
    try:
        with probe.tracer.span("bench.replay") if probe \
                else nullcontext():
            compute, payloads = replay(replies, warmed)
    finally:
        if probe:
            probe.restore()
    failed = 0
    unique: dict[str, str] = {}
    for r in replies:
        env = json.loads(r.raw)
        status = env["status"]
        unique[env["request_id"]] = status
        ok = status == EXPECT[r.kind]
        if ok and status == "ok":
            got = json.dumps(env["result"]["experiment"], indent=2)
            ok = got == payloads.get(r.idx)
        if not ok:
            failed += 1
    if failed:
        problems.append(f"{failed} replies failed their check")
    tally = {s: sum(1 for v in unique.values() if v == s)
             for s in SERVER_STATUSES}
    for s in SERVER_STATUSES:
        server_n = metric_sum(after, "repro_server_requests_total",
                              endpoint="restructure", status=s) \
            - metric_sum(before, "repro_server_requests_total",
                         endpoint="restructure", status=s)
        if server_n != tally[s]:
            problems.append(f"status {s}: client saw {tally[s]} requests, "
                            f"server counted {server_n:g}")

    lat = [r.latency for r in replies]
    done = sorted(r.done_at for r in replies)
    blocks = [done[i + BATCH - 1] - (done[i - 1] if i else t0)
              for i in range(0, len(done) - BATCH + 1, BATCH)]
    out = {"setup_s": stats.median(starts), "attempted": len(replies),
           "failed": failed, "problems": problems, "measured_s": measured}
    out["e2e"] = {
        "wall_s": stats.median(blocks),
        "items": lat,
        "rps": len(replies) / measured,
        "peak_rss_mb": rss,
    }
    if probe:
        m = probe.metrics()
        # the replay's layer seconds, scaled to one batch of requests
        scale = BATCH / len(replies)
        m = {k: v * scale for k, v in m.items()}
        m.update(cache_ratios(cache_stats()))
        for kind, _ in MIX:
            ks = [r.latency for r in replies if r.kind == kind]
            m[f"serve.{kind}_p50_ms"] = stats.median(ks) * 1e3 if ks else 0.0

        def delta(name, **labels):
            return metric_sum(after, name, **labels) \
                - metric_sum(before, name, **labels)

        n_server = delta("repro_server_request_seconds_count",
                         endpoint="restructure")
        request_ms = delta("repro_server_request_seconds_sum",
                           endpoint="restructure") / n_server * 1e3
        compute_ms = stats.fmean(compute) * 1e3
        m["server.request_ms"] = request_ms
        m["server.http_ms"] = stats.fmean(lat) * 1e3 - request_ms
        m["server.compute_ms"] = compute_ms
        m["server.dispatch_ms"] = request_ms - compute_ms
        for s in SERVER_STATUSES:
            m[f"server.requests.{s}"] = delta("repro_server_requests_total",
                                              endpoint="restructure",
                                              status=s)
        m["server.dedup_total"] = delta("repro_server_dedup_total")
        m["server.retries_total"] = delta("repro_server_retries_total")
        m["server.respawns_total"] = delta(
            "repro_server_worker_respawns_total")
        m["server.shed_total"] = delta("repro_server_shed_total")
        traced = [r.latency for r in replies if r.traced]
        plain = [r.latency for r in replies if not r.traced]
        m["bench.trace_overhead"] = \
            stats.fmean(traced) / stats.fmean(plain) - 1.0
        out["per_layer"] = m
        out["tracer"] = probe.tracer
    return out

