"""Which layer functions the traced run wraps, and the per-layer metrics
read off the spans and counters.

Layers are the repo's modules: ``fortran`` (parse), ``lint``,
``restructurer``, ``cedar`` (unparse), ``engine.cache``, ``execmodel``
(interpreter tiers, the ``shadow`` race detector, the ``perf``
estimator with its ``machine`` model), ``validate``, ``experiments``
and ``server``.  :data:`PER_LAYER` is the complete, fixed list of
per-layer metric names every workload's traced run reports; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import Counter

from perfbench.spans import Tracer

#: the paper-program restructurer stages, in pipeline order
STAGE_LABELS = (
    "inline-expansion", "interprocedural", "loop-fusion",
    "induction-substitution", "generalized-induction",
    "recurrence-recognition", "reduction-recognition", "array-reductions",
    "scalar-privatization", "array-privatization", "scalar-expansion",
    "stripmine-vectorize", "if-to-where", "loop-interchange", "doacross",
    "runtime-test", "critical-sections", "cluster-mapping",
)

#: DecisionEvent techniques counted per technique (the planner's
#: candidate versions and the passes that log decisions)
TECHNIQUES = (
    "serial", "xdoall", "xdoall-vector", "cdoall", "cdoall-vector",
    "sdoall-cdoall", "cdoacross", "inner-vector", "library",
    "runtime-two-version", "critical-xdoall", "globalize", "privatize",
    "reduction", "fusion", "induction-substitution", "inline",
)

ENGINES = ("tree", "compiled", "source")
EXPERIMENTS = ("table1", "table2", "fig6", "fig7", "fig8", "fig9", "qcd")
SERVER_STATUSES = ("ok", "degraded", "invalid-input", "shed", "error")
CACHE_KINDS = ("parse", "restructure", "jit_source")

PER_LAYER: tuple[str, ...] = (
    "fortran.parse_s", "fortran.parse_calls",
    "lint.lint_s", "lint.lint_calls", "lint.lint_rejected",
    "restructurer.restructure_s", "restructurer.restructure_calls",
    "restructurer.nests_planned", "restructurer.nests_parallelized",
    "restructurer.decisions",
    *(f"restructurer.decisions.{t}" for t in TECHNIQUES),
    "restructurer.decisions.other",
    "restructurer.stage.base_s",
    *(f"restructurer.stage.{label}_s" for label in STAGE_LABELS),
    "restructurer.stage.unresolved",
    "cedar.unparse_s", "cedar.unparse_lines",
    "engine.cache_s",
    *(f"engine.cache.{k}_hit_ratio" for k in CACHE_KINDS),
    *(f"engine.cache.{k}_lookups" for k in CACHE_KINDS),
    "execmodel.execute_shadow_s", "execmodel.shadow_loops_checked",
    "execmodel.race_conflicts", "execmodel.execute_baseline_s",
    *(f"execmodel.execute.{e}_s" for e in ENGINES),
    "execmodel.source.vectorized_loops", "execmodel.source.source_stmts",
    "execmodel.source.fallback_stmts", "execmodel.source.vectorized_share",
    "execmodel.source.lowered_stmts",
    "execmodel.estimate_s", "execmodel.estimate_calls",
    "validate.self_s", "validate.compare_s", "validate.serialize_s",
    *(f"experiments.{name}_s" for name in EXPERIMENTS),
    "experiments.self_s", "experiments.render_s",
    "serve.repeat_p50_ms", "serve.distinct_p50_ms", "serve.malformed_p50_ms",
    "server.request_ms", "server.http_ms", "server.compute_ms",
    "server.dispatch_ms",
    *(f"server.requests.{s}" for s in SERVER_STATUSES),
    "server.dedup_total", "server.retries_total", "server.respawns_total",
    "server.shed_total",
    "bench.self_s", "bench.trace_overhead", "bench.host_slowness",
    "failed_share",
)


class LayerProbe:
    """A :class:`Tracer` wired to the layer boundaries, plus the counts
    observed there (restructure reports, lint rejections)."""

    def __init__(self):
        self.tracer = Tracer()
        self.reports: list = []
        #: distinct sources restructured through the cache, in order
        self.sources: dict[str, None] = {}
        self.lint_rejected = 0
        self.lint_calls = 0

    def install(self) -> None:
        from repro.engine.cache import CompilationCache
        from repro.execmodel.interp import Interpreter
        from repro.execmodel.perf import PerfEstimator
        from repro.fortran import parser
        from repro.lint import engine as lint_engine
        from repro.restructurer.pipeline import Restructurer
        from repro.validate import differential
        from repro.validate.differential import WorkloadResult

        t = self.tracer
        t.wrap_everywhere(parser, "parse_program", "fortran.parse")
        t.wrap_everywhere(lint_engine, "lint_source", "lint.lint",
                          on_result=self._on_lint)
        t.wrap(Restructurer, "run", "restructurer.restructure",
               on_result=lambda rep, *a, **k: self.reports.append(rep[1]))
        t.wrap(CompilationCache, "parse", "engine.cache")
        t.wrap(CompilationCache, "jit_source", "engine.cache")
        t.wrap(CompilationCache, "restructure", "engine.cache",
               on_result=lambda r, cache, source, *a, **k:
               self.sources.setdefault(source))
        t.wrap(Interpreter, "call", self._execute_name)
        t.wrap(PerfEstimator, "estimate", "execmodel.estimate")
        t.wrap_everywhere(differential, "run_baseline", "validate.baseline")
        t.wrap_everywhere(differential, "compare_outputs",
                          "validate.compare")
        t.wrap(WorkloadResult, "to_dict", "validate.serialize")

    def restore(self) -> None:
        self.tracer.restore()

    def _on_lint(self, report, *args, **kwargs) -> None:
        self.lint_calls += 1
        if report.error_count or report.ast is None:
            self.lint_rejected += 1

    def _execute_name(self, interp, *args, **kwargs) -> str:
        if interp.shadow is not None:
            return "execmodel.execute_shadow"
        if self.tracer.inside("validate.baseline"):
            return "execmodel.execute_baseline"
        return f"execmodel.execute.{interp.engine}"

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Span- and report-derived per-layer metrics (zeros included)."""
        rows = self.tracer.by_name()

        def self_s(name: str) -> float:
            return rows.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return int(rows.get(name, {}).get("calls", 0))

        m: dict[str, float] = {name: 0 for name in PER_LAYER}
        m["fortran.parse_s"] = self_s("fortran.parse")
        m["fortran.parse_calls"] = calls("fortran.parse")
        m["lint.lint_s"] = self_s("lint.lint")
        m["lint.lint_calls"] = self.lint_calls
        m["lint.lint_rejected"] = self.lint_rejected
        m["restructurer.restructure_s"] = self_s("restructurer.restructure")
        m["restructurer.restructure_calls"] = calls(
            "restructurer.restructure")
        m.update(report_counts(self.reports))
        m["engine.cache_s"] = self_s("engine.cache")
        m["execmodel.execute_shadow_s"] = self_s("execmodel.execute_shadow")
        m["execmodel.execute_baseline_s"] = self_s(
            "execmodel.execute_baseline")
        for e in ENGINES:
            m[f"execmodel.execute.{e}_s"] = self_s(f"execmodel.execute.{e}")
        m["execmodel.estimate_s"] = self_s("execmodel.estimate")
        m["execmodel.estimate_calls"] = calls("execmodel.estimate")
        # a validate cell's own time: input generation, the baseline and
        # variant plumbing around the interpreter calls
        m["validate.self_s"] = self_s("validate.cell") \
            + self_s("validate.baseline")
        m["validate.compare_s"] = self_s("validate.compare")
        m["validate.serialize_s"] = self_s("validate.serialize")
        m["bench.self_s"] = sum(r["self_s"] for n, r in rows.items()
                                if n.startswith("bench."))
        m["experiments.self_s"] = sum(
            self_s(f"experiments.{name}") for name in EXPERIMENTS)
        for name in EXPERIMENTS:
            m[f"experiments.{name}_s"] = rows.get(
                f"experiments.{name}", {}).get("total_s", 0.0)
        m["experiments.render_s"] = self_s("experiments.render")
        return m


def report_counts(reports) -> dict[str, float]:
    """Restructurer work counts over a list of RestructureReports."""
    techniques: Counter = Counter()
    planned = parallelized = 0
    for rep in reports:
        for unit in rep.units.values():
            planned += unit.total_loops
            parallelized += unit.parallelized_loops
        techniques.update(e.technique for e in rep.events)
    out: dict[str, float] = {
        "restructurer.nests_planned": planned,
        "restructurer.nests_parallelized": parallelized,
        "restructurer.decisions": sum(techniques.values()),
    }
    for t in TECHNIQUES:
        out[f"restructurer.decisions.{t}"] = techniques.pop(t, 0)
    out["restructurer.decisions.other"] = sum(techniques.values())
    return out


def cache_ratios(stats: dict) -> dict[str, float]:
    """Hit ratio and lookup count per artifact kind, from
    ``CompilationCache.stats()``."""
    by_kind = stats.get("by_kind", {})
    out: dict[str, float] = {}
    for kind in CACHE_KINDS:
        row = by_kind.get(kind.replace("_", "-"), {})
        hits, misses = row.get("hits", 0), row.get("misses", 0)
        out[f"engine.cache.{kind}_lookups"] = hits + misses
        out[f"engine.cache.{kind}_hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
    return out
