"""Differential validation: comparison, bisection, reports, CLI."""

import json
import sys

import numpy as np
import pytest

from repro.restructurer.pipeline import PASS_STAGES, stages_for
from repro.restructurer.options import RestructurerOptions
from repro.validate import (
    PIPELINE_CONFIGS,
    baseline_options,
    bisect_stages,
    build_report,
    compare_outputs,
    options_for_stages,
    validate_workload,
)
from repro.validate import differential
from repro.workloads import validation_cases


def _script_validator():
    sys.path.insert(0, "scripts")
    try:
        import validate_experiment_json as v
    finally:
        sys.path.pop(0)
    return v


class TestCompareOutputs:
    def test_identical_results_are_clean(self):
        base = {"x": np.arange(5.0), "n": 5}
        assert compare_outputs(base, dict(base)) == []

    def test_float_within_tolerance_is_clean(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.ones(4) + 1e-6}
        assert compare_outputs(base, cand) == []

    def test_float_divergence_reported(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.array([1.0, 1.0, 2.0, 1.0])}
        divs = compare_outputs(base, cand, processors=4, seed=9)
        assert len(divs) == 1
        d = divs[0]
        assert d.key == "x" and d.mismatches == 1
        assert d.max_abs == pytest.approx(1.0)
        assert d.processors == 4 and d.seed == 9

    def test_integers_compared_exactly(self):
        base = {"k": np.array([1, 2, 3])}
        cand = {"k": np.array([1, 2, 4])}
        divs = compare_outputs(base, cand)
        assert divs and divs[0].mismatches == 1
        # even a tiny integer delta is a divergence, no tolerance
        assert compare_outputs(base, {"k": np.array([1, 2, 3])}) == []

    def test_permutation_ok_sorts_before_comparing(self):
        base = {"hits": np.array([3, 1, 2])}
        cand = {"hits": np.array([2, 3, 1])}
        assert compare_outputs(base, cand) != []
        assert compare_outputs(base, cand, permutation_ok=True) == []

    def test_shape_mismatch_is_divergent(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.ones(3)}
        divs = compare_outputs(base, cand)
        assert divs and divs[0].max_abs == float("inf")

    def test_scalar_results_compared(self):
        assert compare_outputs({"s": 2.0}, {"s": 2.0}) == []
        assert compare_outputs({"s": 2.0}, {"s": 3.0}) != []


class TestConfigs:
    def test_baseline_disables_every_stage(self):
        assert stages_for(baseline_options()) == []

    def test_options_for_stages_round_trips(self):
        labels = [label for label, _ in PASS_STAGES]
        assert stages_for(options_for_stages(labels)) == labels
        some = ["reduction-recognition", "scalar-privatization"]
        assert stages_for(options_for_stages(some)) == some

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            options_for_stages(["no-such-pass"])

    def test_pipeline_configs_cover_auto_and_manual(self):
        assert set(PIPELINE_CONFIGS) == {"automatic", "manual"}
        for factory in PIPELINE_CONFIGS.values():
            assert isinstance(factory(), RestructurerOptions)


class TestBisection:
    def test_clean_workload_bisects_to_none(self):
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        assert bisect_stages(case, stages, seed=3, processors=2) is None

    def test_bisection_names_the_guilty_stage(self, monkeypatch):
        # fake a pipeline where enabling loop-fusion corrupts x: the
        # bisector must name it without knowing anything else
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        guilty = "loop-fusion"
        assert guilty in stages

        monkeypatch.setattr(differential, "run_baseline",
                            lambda case, seed, **kw: {"x": np.ones(4)})

        def fake_variant(case, options, seed, processors, shadow=None,
                         **kw):
            bad = options.loop_fusion
            out = {"x": np.full(4, 2.0) if bad else np.ones(4)}
            return out, None

        monkeypatch.setattr(differential, "run_variant", fake_variant)
        got = bisect_stages(case, stages, seed=3, processors=2)
        assert got == guilty

    def test_divergent_base_parallelization_named(self, monkeypatch):
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        monkeypatch.setattr(differential, "run_baseline",
                            lambda case, seed, **kw: {"x": np.ones(4)})
        monkeypatch.setattr(
            differential, "run_variant",
            lambda case, options, seed, processors, shadow=None, **kw:
            ({"x": np.zeros(4)}, None))
        got = bisect_stages(case, stages, seed=3, processors=2)
        assert got == "base-parallelization"


class TestValidateWorkload:
    @pytest.fixture(scope="class")
    def result(self):
        case = validation_cases()["tridag"]
        return validate_workload(
            case, {n: PIPELINE_CONFIGS[n] for n in ("automatic", "manual")},
            seeds=(3,), processors=(2,))

    def test_small_workload_validates_clean(self, result):
        assert result.ok
        for c in result.configs:
            assert c.status == "ok"
            assert c.divergences == [] and c.races == []
            assert c.compared_keys, "must compare at least one result key"

    def test_report_conforms_to_schema_checker(self, result):
        payload = build_report([result], configs=["automatic", "manual"])
        payload = json.loads(json.dumps(payload))  # as CI would read it
        v = _script_validator()
        assert v.validate(payload) == []

    def test_checker_rejects_inconsistent_status(self, result):
        payload = json.loads(json.dumps(
            build_report([result], configs=["automatic", "manual"])))
        v = _script_validator()
        broken = json.loads(json.dumps(payload))
        broken["workloads"][0]["configs"][0]["status"] = "race"
        problems = v.validate(broken)
        assert any("without any conflict" in p for p in problems)
        broken = json.loads(json.dumps(payload))
        broken["summary"]["ok"] += 1
        problems = v.validate(broken)
        assert any("recount" in p for p in problems)


def per_p_reference(case, configs, seeds, processors):
    """``validate_workload`` as it was with one race check per P cell:
    the reference the single-check driver must reproduce exactly."""
    wr = differential.WorkloadResult(
        workload=case.name, suite=case.suite, entry=case.entry, n=case.n,
        seeds=list(seeds), processors=list(processors))
    baselines = {s: differential.run_baseline(case, s) for s in seeds}
    for cname, factory in configs.items():
        opts = factory()
        cr = differential.ConfigResult(
            config=cname, stages=differential.config_stages(opts))
        for seed in seeds:
            for p in processors:
                shadow = differential.ShadowRecorder()
                result, report = differential.run_variant(
                    case, opts, seed, p, shadow=shadow)
                cr.loops_checked += shadow.loops_checked
                cr.races.extend(shadow.conflicts)
                cr.divergences.extend(compare_outputs(
                    baselines[seed], result,
                    permutation_ok=case.permutation_ok,
                    processors=p, seed=seed))
                if not cr.compared_keys:
                    cr.compared_keys = sorted(baselines[seed])
                    cr.parallel_loops = sum(
                        u.parallelized_loops for u in report.units.values())
                    cr.discharged = {
                        pl.loop_id: dict(sorted(pl.discharged.items()))
                        for u in report.units.values()
                        for pl in u.plans if pl.discharged}
        if cr.divergences:
            cr.status = "divergent"
        elif cr.races:
            cr.status = "race"
        wr.configs.append(cr)
    return wr


class TestSingleRaceCheck:
    """One race check per (config, seed), credited to every P cell."""

    CONFIGS = {n: PIPELINE_CONFIGS[n] for n in ("automatic", "manual")}
    SEEDS = (3, 17)
    PROCESSORS = (1, 2, 8)

    def test_one_shadow_recorder_per_config_and_seed(self, monkeypatch):
        made = []

        class Counting(differential.ShadowRecorder):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(differential, "ShadowRecorder", Counting)
        wr = validate_workload(validation_cases()["TRACK"], self.CONFIGS,
                               seeds=self.SEEDS, processors=self.PROCESSORS,
                               engine="source")
        assert len(made) == len(self.CONFIGS) * len(self.SEEDS)
        for k, c in enumerate(wr.configs):
            # every P cell is credited its seed's single check
            checks = made[k * len(self.SEEDS):(k + 1) * len(self.SEEDS)]
            assert c.loops_checked > 0
            assert c.loops_checked == len(self.PROCESSORS) * sum(
                sh.loops_checked for sh in checks)

    @pytest.mark.parametrize("name", ["tridag", "TRACK"])
    def test_payload_matches_one_check_per_p(self, name):
        case = validation_cases()[name]
        got = validate_workload(case, self.CONFIGS, seeds=self.SEEDS,
                                processors=self.PROCESSORS,
                                engine="source")
        want = per_p_reference(case, self.CONFIGS, self.SEEDS,
                               self.PROCESSORS)
        assert got.to_dict() == want.to_dict()


class TestCli:
    def test_cli_runs_one_workload_clean(self, capsys, tmp_path):
        from repro.validate.__main__ import main
        out = tmp_path / "v.json"
        rc = main(["tridag", "--processors", "2", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-validate/1"
        assert payload["summary"]["ok"] == payload["summary"]["configs_run"]
        v = _script_validator()
        assert v.validate(payload) == []

    def test_cli_rejects_unknown_workload(self):
        from repro.validate.__main__ import main
        with pytest.raises(SystemExit):
            main(["no-such-workload"])
