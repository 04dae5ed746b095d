"""Workload bookkeeping on synthetic inputs, and BENCHMARK.json
consistency."""

import json

from perfbench import wl_serve, wl_validate
from perfbench.common import ROOT
from perfbench.layers import PER_LAYER, report_counts
from perfbench.run import E2E_UNITS, layer_unit


def _config(status="ok", races=()):
    return {"config": "automatic", "status": status, "races": list(races)}


def test_validate_failed_items_counts_programs():
    sw = wl_validate.Sweep(seed=3)
    sw.wdicts = [
        {"workload": "a", "configs": [_config(), _config()]},
        {"workload": "b", "configs": [_config(), _config("divergent")]},
        {"workload": "c", "configs": [_config(races=[{"x": 1}])]},
        {"workload": "d", "configs": [_config("error"), _config("race")]},
    ]
    sw.faults = [{"kind": "crash"}]
    # b, c and d fail once each, however many configs went wrong; the
    # crashed program counts too
    assert wl_validate.failed_items(sw) == 4


def test_same_result_is_exact_and_nan_aware():
    import numpy as np

    a = {"x": np.array([1.0, np.nan]), "n": 3}
    assert wl_validate.same_result(a, {"x": np.array([1.0, np.nan]),
                                       "n": 3})
    assert not wl_validate.same_result(
        a, {"x": np.array([1.0 + 1e-15, np.nan]), "n": 3})
    assert not wl_validate.same_result(a, {"x": np.array([1.0]), "n": 3})
    assert not wl_validate.same_result(a, {"n": 3})


def test_prometheus_parsing_and_label_filtering():
    text = "\n".join([
        "# HELP repro_server_requests_total requests",
        "# TYPE repro_server_requests_total counter",
        'repro_server_requests_total{endpoint="restructure",status="ok"} 7',
        'repro_server_requests_total{endpoint="restructure",'
        'status="invalid-input"} 2',
        'repro_server_requests_total{endpoint="lint",status="ok"} 5',
        'repro_server_request_seconds_sum{endpoint="restructure"} 0.25',
        "repro_server_worker_respawns_total 1",
    ])
    samples = wl_serve.parse_metrics(text)
    assert len(samples) == 5
    total = "repro_server_requests_total"
    assert wl_serve.metric_sum(samples, total) == 14
    assert wl_serve.metric_sum(samples, total, endpoint="restructure") == 9
    assert wl_serve.metric_sum(samples, total, endpoint="restructure",
                               status="ok") == 7
    assert wl_serve.metric_sum(samples, total, status="shed") == 0
    assert wl_serve.metric_sum(
        samples, "repro_server_worker_respawns_total") == 1


def test_request_stream_is_seeded_and_malformed_bodies_fail_lint():
    from repro.lint.engine import lint_source

    def draw(seed, n=60):
        stream = wl_serve.RequestStream(seed, seconds=0)
        return [stream.next() for _ in range(n)]

    first, again = draw(5), draw(5)
    assert first == again
    assert first != draw(6)
    kinds = [kind for _, kind, _ in first]
    assert set(kinds) == {"repeat", "distinct", "malformed"}
    for _, kind, body in first:
        report = lint_source(json.loads(body)["source"])
        assert bool(report.error_count) == (kind == "malformed")


def test_report_counts_tallies_techniques():
    from types import SimpleNamespace as NS

    unit = NS(total_loops=3, parallelized_loops=2)
    events = [NS(technique=t) for t in
              ("xdoall", "xdoall", "serial", "made-up")]
    got = report_counts([NS(units={"u": unit}, events=events)])
    assert got["restructurer.nests_planned"] == 3
    assert got["restructurer.nests_parallelized"] == 2
    assert got["restructurer.decisions"] == 4
    assert got["restructurer.decisions.xdoall"] == 2
    assert got["restructurer.decisions.other"] == 1


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == layer_unit(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        ["validate", "paper", "serve"]


def test_fixed_layer_names_track_the_repo():
    from repro.execmodel.interp import ENGINES
    from repro.experiments import ALL_EXPERIMENTS
    from repro.restructurer.pipeline import PASS_STAGES

    from perfbench import layers

    assert list(layers.STAGE_LABELS) == [label for label, _ in PASS_STAGES]
    assert layers.ENGINES == ENGINES
    assert list(layers.EXPERIMENTS) == list(ALL_EXPERIMENTS)


def test_validate_digest_compares_runs_with_the_same_seed(tmp_path,
                                                          monkeypatch):
    from perfbench import common

    monkeypatch.setattr(common, "WORK", tmp_path)
    assert wl_validate.check_digest(3, "payload") == []     # recorded
    assert wl_validate.check_digest(3, "payload") == []     # matches
    assert wl_validate.check_digest(4, "other") == []       # other seed
    assert wl_validate.check_digest(3, "changed") != []
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["validate-seed3.sha256", "validate-seed4.sha256"]
