"""Every artifact validator is crash-free and no laxer than its schema.

Real payloads of every tag are broken one field at a time (delete, a
string, ``-1``, ``null``) at seeded random paths.  For each mutation
``validate()`` must return a list, never raise; and wherever
``jsonschema`` rejects the mutation under the committed schema, the
repo's own checker must reject it too.  ``jsonschema`` is used here
only, as the reference; it is not a dependency of the package.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import schemacheck, telemetry

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "examples" / "sample.f"
BROKEN_F = """\
      PROGRAM P
      INTEGER I
      X = (1 +
      DO 10 I = 1, 4
   10 CONTINUE
      END
"""

MUTATIONS = ("delete", "zz", -1, None)
PATHS_PER_PAYLOAD = 80


def _script_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_experiment_json",
        ROOT / "scripts" / "validate_experiment_json.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _bench_host_payload() -> dict:
    """A ``repro-bench-host/3`` document shaped like bench_host.py's."""
    sec = {"tree_cold": 4.0, "cold": 3.0, "source_cold": 2.5, "prime": 3.1,
           "warm": 2.0, "source_prime": 2.6, "source_warm": 1.6,
           "warm_jobs2": 1.25}
    lat = {"cells": 4, "p50_s": 0.2, "p95_s": 0.4, "p99_s": 0.5}
    checks = dict.fromkeys(
        ("all_runs_ok", "warm_cache_hit", "source_cache_hit",
         "byte_identical", "engine_byte_identical", "speedup_positive",
         "source_speedup_positive", "latency_recorded"), True)
    return {
        "schema": "repro-bench-host/3", "quick": True, "jobs": 2,
        "git": {"sha": "0" * 40, "dirty": False},
        "host": {"python": "3.11.7", "platform": "Linux", "cpu_count": 2},
        "runs": {n: {"argv": ["python", "-m", "repro.validate"], "env": {},
                     "seconds": s, "returncode": 0} for n, s in sec.items()},
        "cache": {"cold_seconds": 3.0, "prime_seconds": 3.1,
                  "warm_seconds": 2.0, "warm_speedup": 2.0,
                  "compile_speedup": 4.0 / 3.0,
                  "stats": {"hits": 5, "misses": 1}},
        "engines": {"tree_cold_seconds": 4.0, "compiled_cold_seconds": 3.0,
                    "source_cold_seconds": 2.5,
                    "compiled_warm_seconds": 2.0,
                    "source_prime_seconds": 2.6,
                    "source_warm_seconds": 1.6,
                    "compiled_warm_speedup": 2.0,
                    "source_warm_speedup": 2.5,
                    "source_vs_compiled_speedup": 1.25,
                    "byte_identical": True, "jit_cache": {}},
        "parallel": {"serial_seconds": 2.0, "parallel_seconds": 1.25,
                     "parallel_speedup": 1.6, "byte_identical": True},
        "latency": {"warm": dict(lat), "source_warm": dict(lat),
                    "warm_jobs2": dict(lat)},
        "baseline": {"tree_cold_seconds": 4.0, "end_to_end_speedup": 2.0},
        "checks": checks, "ok": True,
    }


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """One real payload per schema tag, keyed by tag."""
    from repro.experiments.__main__ import main as experiments
    from repro.faults.sweep import run_sweep
    from repro.lint.engine import lint_source, report_json
    from repro.obs.history import build_entry
    from repro.server.service import RestructurerService
    from repro.telemetry.registry import MetricsRegistry
    from repro.validate.__main__ import main as validate_cli

    tmp = tmp_path_factory.mktemp("artifacts")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert experiments(["table1", "--quick", "--json", "--profile",
                            str(tmp / "prof")]) == 0
    experiment = json.loads(out.getvalue())
    # trimmed to keep the mutation sweep fast; still a valid document
    trace = experiment["experiments"]["table1"]["meta"]["trace"]
    for name in list(trace)[3:]:
        del trace[name]
    profile = json.loads((tmp / "prof" / "table1.profile.json").read_text())
    profile["runs"] = profile["runs"][:4]

    try:
        assert _quiet(validate_cli, [
            "tridag", "--no-bisect", "--telemetry", str(tmp / "telem"),
            "-o", str(tmp / "v.json")]) == 0
    finally:
        telemetry.shutdown()
        telemetry.get_registry().reset()
    metrics = json.loads((tmp / "telem" / "metrics.json").read_text())
    bench_host = _bench_host_payload()

    svc = RestructurerService(workers=0, registry=MetricsRegistry())
    try:
        server = svc.handle("restructure", {"source": SAMPLE.read_text(),
                                            "quick": True})
    finally:
        svc.drain(timeout_s=10.0)
    docs = [
        experiment, profile,
        json.loads((tmp / "v.json").read_text()),
        run_sweep(["cg"], ["healthy", "chaos"], quick=True, timeout=120.0),
        report_json([lint_source(SAMPLE.read_text(), path="sample.f"),
                     lint_source(BROKEN_F, path="broken.f")]),
        metrics, bench_host, build_entry([bench_host, metrics]), server,
    ]
    docs = [json.loads(json.dumps(d)) for d in docs]   # as read from disk
    return {d["schema"]: d for d in docs}


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@contextlib.contextmanager
def _mutated(doc, path, mutation):
    """Apply one mutation in place; restore the document afterwards."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    old = parent[key]
    if mutation == "delete":
        parent.pop(key)
    else:
        parent[key] = mutation
    try:
        yield
    finally:
        if mutation == "delete" and isinstance(parent, list):
            parent.insert(key, old)
        else:
            parent[key] = old


class TestRealPayloads:
    def test_every_tag_is_covered(self, payloads):
        assert set(payloads) == set(schemacheck.schemas())

    def test_every_payload_validates(self, payloads):
        v = _script_validator()
        for tag, doc in payloads.items():
            assert v.validate(doc) == [], tag

    def test_payloads_conform_under_jsonschema(self, payloads):
        jsonschema = pytest.importorskip("jsonschema")
        for tag, doc in payloads.items():
            schema = schemacheck.schemas()[tag]
            assert list(jsonschema.Draft7Validator(schema)
                        .iter_errors(doc)) == [], tag


class TestMutations:
    def test_never_raises_and_never_laxer_than_jsonschema(self, payloads):
        jsonschema = pytest.importorskip("jsonschema")
        v = _script_validator()
        rng = random.Random(20261017)
        cases = laxer = 0
        for tag, doc in sorted(payloads.items()):
            reference = jsonschema.Draft7Validator(
                schemacheck.schemas()[tag])
            paths = list(_paths(doc))
            for path in rng.sample(paths, min(PATHS_PER_PAYLOAD,
                                              len(paths))):
                for mutation in MUTATIONS:
                    with _mutated(doc, path, mutation):
                        problems = v.validate(doc)   # must not raise
                        assert isinstance(problems, list)
                        cases += 1
                        if not problems and not reference.is_valid(doc):
                            laxer += 1
                            print(f"accepted {tag} {path} -> {mutation!r}")
            assert v.validate(doc) == [], f"{tag} not restored"
        assert cases > 2000
        assert laxer == 0


class TestChecker:
    def test_booleans_are_not_numbers(self, payloads):
        doc = payloads["repro-bench-host/3"]
        with _mutated(doc, ("jobs",), True):
            assert schemacheck.check(doc) == [
                "$.jobs: expected integer, got boolean"]
        with _mutated(doc, ("cache", "warm_seconds"), False):
            assert schemacheck.check(doc)

    def test_violations_name_their_path(self, payloads):
        doc = payloads["repro-validate/1"]
        with _mutated(doc, ("workloads", 0, "configs", 0, "status"), "x"):
            problems = schemacheck.check(doc)
        assert problems and all(
            p.startswith("$.workloads[0].configs[0].status: ")
            for p in problems)

    def test_unknown_tag(self):
        assert schemacheck.check({"schema": "nope/1"}) == [
            f"$.schema: expected one of {sorted(schemacheck.schemas())}, "
            f"got 'nope/1'"]

    def test_unsupported_keyword_is_a_load_error(self, tmp_path,
                                                 monkeypatch):
        (tmp_path / "x.schema.json").write_text(json.dumps({
            "$id": "x/1", "type": "object",
            "properties": {"a": {"type": "array", "uniqueItems": True}}}))
        monkeypatch.setattr(schemacheck, "SCHEMA_DIR", tmp_path)
        monkeypatch.setattr(schemacheck, "_registry", None)
        with pytest.raises(schemacheck.SchemaError, match="uniqueItems"):
            schemacheck.check({"schema": "x/1", "a": [1, 1]})

    def test_unresolvable_ref_is_a_load_error(self, tmp_path, monkeypatch):
        (tmp_path / "x.schema.json").write_text(json.dumps({
            "$id": "x/1", "items": {"$ref": "#/definitions/nope"}}))
        monkeypatch.setattr(schemacheck, "SCHEMA_DIR", tmp_path)
        monkeypatch.setattr(schemacheck, "_registry", None)
        with pytest.raises(schemacheck.SchemaError, match="nope"):
            schemacheck.schemas()

    def test_server_result_is_checked_recursively(self, payloads):
        v = _script_validator()
        doc = payloads["repro-server/1"]
        table = doc["result"]["experiment"]["experiments"]
        name = next(iter(table))
        with _mutated(doc, ("result", "experiment", "experiments", name,
                            "title"), -1):
            assert v.validate(doc) == [
                f"$.result.experiment.experiments.{name}.title: "
                f"expected string, got integer"]


def _run(argv, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return subprocess.run([sys.executable, *argv, str(path)],
                          capture_output=True, text=True, cwd=str(ROOT),
                          env={**os.environ,
                               "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)


class TestCliOnMalformedPayloads:
    def test_script_reports_instead_of_crashing(self, payloads, tmp_path):
        doc = json.loads(json.dumps(payloads["repro-experiment/1"]))
        trace = doc["experiments"]["table1"]["meta"]["trace"]
        next(iter(trace.values()))["serial_breakdown"]["groups"] = "x"
        proc = _run(["scripts/validate_experiment_json.py"], tmp_path, doc)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ".serial_breakdown.groups: expected object, got string" \
            in proc.stderr
        assert "1 violation(s)" in proc.stderr

    def test_telemetry_validate_reports_instead_of_crashing(
            self, payloads, tmp_path):
        doc = json.loads(json.dumps(payloads["repro-metrics/1"]))
        doc["metrics"]["histograms"][0]["count"] = "zz"
        proc = _run(["-m", "repro.telemetry", "validate"], tmp_path, doc)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "$.metrics.histograms[0].count: expected integer, got " \
               "string" in proc.stderr
