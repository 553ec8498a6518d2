"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the tracer primitives and their null-object twins, the
ContextTrace edge cases, per-delinquent-load prefetch
coverage/accuracy/timeliness attribution end to end, both exporters
(JSONL + Chrome trace), the metrics document and report renderer,
per-load prefetch rows recomputed from a cached result, and the CLI
surface (``--trace``/``--metrics-json``/``--gantt``/``--telemetry-json``
and the ``report`` subcommand).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import (
    NULL_TRACER,
    SIM_PID,
    Tracer,
    chrome_trace_events,
    collect_metrics,
    ensure_tracer,
    jsonl_records,
    render_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NullTracer
from repro.profiling import collect_profile
from repro.sim import ContextTrace, SimStats, trace_run
from repro.tool import SSPPostPassTool
from repro.tool.cli import main
from repro.workloads import make_workload

#: The post-pass pipeline stages, in order (asserted against span names).
PIPELINE_PASSES = ["profiling", "analysis", "slicing", "scheduling",
                   "triggers", "codegen"]


@pytest.fixture(scope="module")
def observed():
    """One fully-observed treeadd run: profile, adapt, traced simulate."""
    workload = make_workload("treeadd.df", scale="tiny")
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    tracer = Tracer()
    result = SSPPostPassTool(tracer=tracer).adapt(program, profile)
    assert result.adapted is not None
    heap = workload.build_heap()
    with tracer.span("simulate", category="sim"):
        stats, context_trace = trace_run(result.program, heap)
    workload.check_output(heap)
    return SimpleNamespace(workload=workload, profile=profile,
                           tracer=tracer, result=result, stats=stats,
                           context_trace=context_trace)


class TestTracer:
    def test_span_records_wall_time_and_metrics(self):
        tracer = Tracer()
        with tracer.span("slicing", loads=3) as span:
            span.set(slices=2)
        assert [s.name for s in tracer.spans] == ["slicing"]
        span = tracer.spans[0]
        assert span.metrics == {"loads": 3, "slices": 2}
        assert span.end >= span.start
        assert span.to_dict()["type"] == "span"

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        assert [s.name for s in tracer.spans] == ["broken"]

    def test_events_counters_histograms(self):
        tracer = Tracer()
        tracer.event("spawn", slot=1)
        tracer.counter("spawns").add(2)
        tracer.counter("spawns").add()
        for v in (1.0, 2.0, 3.0, 10.0):
            tracer.histogram("sizes").observe(v)
        assert tracer.events[0]["name"] == "spawn"
        assert tracer.counters_snapshot() == {"spawns": 3}
        hist = tracer.histograms_snapshot()["sizes"]
        assert hist["count"] == 4
        assert hist["min"] == 1.0 and hist["max"] == 10.0
        assert hist["mean"] == 4.0
        assert tracer.histogram("sizes").percentile(0) == 1.0
        assert tracer.histogram("sizes").percentile(100) == 10.0

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", loads=1) as span:
            span.set(more=2)
        NULL_TRACER.event("x")
        NULL_TRACER.counter("c").add(5)
        NULL_TRACER.histogram("h").observe(1.0)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.events == []
        assert NULL_TRACER.counters_snapshot() == {}
        assert NULL_TRACER.histograms_snapshot() == {}
        assert NULL_TRACER.span_dicts() == []
        assert not NULL_TRACER.enabled

    def test_null_tracer_shares_singletons(self):
        assert NULL_TRACER.counter("a") is NULL_TRACER.counter("b")
        assert NULL_TRACER.histogram("a") is NULL_TRACER.histogram("b")
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_ensure_tracer(self):
        tracer = Tracer()
        assert ensure_tracer(tracer) is tracer
        assert ensure_tracer(None) is NULL_TRACER
        assert isinstance(ensure_tracer(None), NullTracer)


class TestContextTraceEdgeCases:
    def test_release_without_occupy_is_ignored(self):
        trace = ContextTrace(2)
        trace.release(1, cycle=10)
        assert trace.intervals[1] == []
        assert trace.thread_count() == 0

    def test_finish_closes_open_intervals(self):
        trace = ContextTrace(3)
        trace.occupy(0, tid=0, cycle=0)
        trace.occupy(2, tid=7, cycle=5)
        trace.finish(100)
        assert trace.intervals[0] == [(0, 0, 100)]
        assert trace.intervals[2] == [(7, 5, 100)]
        assert trace._open == {}

    def test_max_concurrent_with_interleaved_spans(self):
        trace = ContextTrace(4)
        # Main thread does not count as speculative.
        trace.occupy(0, tid=0, cycle=0)
        trace.release(0, 100)
        # slot1: [0,10), slot2: [5,15) overlap; slot3: [20,30) disjoint.
        trace.occupy(1, tid=1, cycle=0)
        trace.occupy(2, tid=2, cycle=5)
        trace.release(1, 10)
        trace.release(2, 15)
        trace.occupy(3, tid=3, cycle=20)
        trace.release(3, 30)
        assert trace.max_concurrent_speculative() == 2
        assert trace.speculative_busy_cycles() == 10 + 10 + 10

    def test_reoccupied_slot_records_both_intervals(self):
        trace = ContextTrace(2)
        trace.occupy(1, tid=1, cycle=0)
        trace.release(1, 10)
        trace.occupy(1, tid=2, cycle=12)
        trace.release(1, 20)
        assert trace.intervals[1] == [(1, 0, 10), (2, 12, 20)]

    def test_note_records_sim_events(self):
        trace = ContextTrace(1)
        trace.note(42, "spawn", slot=1, tid=3)
        assert trace.events == [(42, "spawn", {"slot": 1, "tid": 3})]

    def test_render_gantt_marks_occupancy(self):
        trace = ContextTrace(2)
        trace.occupy(0, tid=0, cycle=0)
        trace.occupy(1, tid=1, cycle=10)
        trace.finish(100)
        chart = trace.render_gantt(width=20)
        assert "main " in chart and "spec1" in chart
        assert "M" in chart and "#" in chart


class TestPrefetchAttribution:
    def test_pass_spans_cover_the_pipeline(self, observed):
        names = [s.name for s in observed.tracer.spans]
        assert names[:len(PIPELINE_PASSES)] == PIPELINE_PASSES
        assert all(s.end >= s.start for s in observed.tracer.spans)

    def test_prefetch_sources_flow_into_the_simulator(self, observed):
        sources = observed.result.program.prefetch_sources
        assert sources, "emitter recorded no prefetch attribution"
        assert set(sources.values()) <= set(observed.result.delinquent_uids)

    def test_coverage_accuracy_timeliness(self, observed):
        metrics = observed.stats.prefetch_metrics(
            observed.result.delinquent_uids)
        assert set(metrics) == set(observed.result.delinquent_uids)
        for row in metrics.values():
            assert 0.0 <= row["coverage"] <= 1.0
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 <= row["timeliness"] <= 1.0
            assert row["covered_timely"] + row["covered_late"] <= \
                row["prefetches_useful"] + row["l1_misses"]
        # The SSP speedup on treeadd comes from covering the pointer
        # chase: at least one delinquent load must show real coverage.
        assert any(row["coverage"] > 0.5 for row in metrics.values())
        assert any(row["timeliness"] > 0.0 for row in metrics.values())

    def test_stats_roundtrip_preserves_prefetch_data(self, observed):
        blob = json.dumps(observed.stats.to_dict())
        restored = SimStats.from_dict(json.loads(blob))
        uids = observed.result.delinquent_uids
        assert restored.prefetch_metrics(uids) == \
            observed.stats.prefetch_metrics(uids)

    def test_from_dict_tolerates_pre_observability_entries(self):
        # A cache entry written before prefetch attribution existed.
        from repro.sim import MemorySystem
        from repro.sim.config import MachineConfig
        stats = SimStats(MemorySystem(MachineConfig()))
        d = stats.to_dict()
        for key in ("prefetch_stats", "prefetch_sources"):
            d["memory"].pop(key, None)
        restored = SimStats.from_dict(d)
        row = restored.prefetch_metrics([1])[1]
        assert row["coverage"] == 0.0 and row["accuracy"] == 0.0


class TestExporters:
    def test_jsonl_records_schema(self, observed, tmp_path):
        records = jsonl_records(observed.tracer, observed.context_trace,
                                meta={"workload": "treeadd.df"})
        assert records[0]["type"] == "meta"
        assert records[0]["workload"] == "treeadd.df"
        types = {r["type"] for r in records}
        assert {"meta", "span", "context_interval",
                "sim_event"} <= types
        path = tmp_path / "events.jsonl"
        write_jsonl(path, records)
        lines = path.read_text().splitlines()
        assert len(lines) == len(records)
        for line in lines:
            json.loads(line)

    def test_chrome_trace_loads_and_covers_every_context(
            self, observed, tmp_path):
        events = chrome_trace_events(observed.tracer,
                                     observed.context_trace)
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(path, events)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        loaded = doc["traceEvents"]
        # One named track (and thus >= 1 event) per hardware context.
        for slot in range(observed.context_trace.num_contexts):
            per_context = [e for e in loaded
                           if e["pid"] == SIM_PID and e["tid"] == slot]
            assert per_context, f"no events for hardware context {slot}"
        # Duration events carry positive durations and the pass names.
        tool_spans = {e["name"] for e in loaded
                      if e["pid"] != SIM_PID and e["ph"] == "X"}
        assert set(PIPELINE_PASSES) <= tool_spans
        assert all(e["dur"] > 0 for e in loaded if e["ph"] == "X")

    def test_chrome_trace_without_context_trace(self, observed):
        events = chrome_trace_events(observed.tracer, None)
        assert all(e["pid"] != SIM_PID for e in events)
        assert any(e["ph"] == "X" for e in events)


class TestMetricsAndReport:
    def test_collect_metrics_document(self, observed):
        doc = collect_metrics(
            "treeadd.df", "tiny", "inorder", profile=observed.profile,
            tool_result=observed.result, stats=observed.stats,
            baseline_cycles=observed.profile.baseline_cycles,
            tracer=observed.tracer)
        json.dumps(doc)  # must be JSON-safe
        assert doc["workload"] == "treeadd.df"
        assert [p["name"] for p in doc["passes"]][:6] == PIPELINE_PASSES
        assert doc["table2"]["slices"] >= 1
        assert doc["slices"][0]["triggers"] >= 1
        loads = doc["delinquent_loads"]
        assert set(loads) == {str(u) for u in
                              observed.result.delinquent_uids}
        for row in loads.values():
            assert "coverage" in row and "profiled_miss_cycles" in row
        assert doc["sim"]["speedup"] > 1.0

    def test_render_report_sections(self, observed):
        doc = collect_metrics(
            "treeadd.df", "tiny", "inorder", profile=observed.profile,
            tool_result=observed.result, stats=observed.stats,
            baseline_cycles=observed.profile.baseline_cycles,
            tracer=observed.tracer)
        text = render_report(doc)
        assert "pipeline passes" in text
        assert "Table 2 material" in text
        assert "coverage / accuracy / timeliness" in text
        for name in PIPELINE_PASSES:
            assert name in text
        assert "speedup" in text

    def test_render_report_minimal_document(self):
        text = render_report({"workload": "x", "scale": "tiny",
                              "model": "inorder"})
        assert "observability report: x" in text


class TestReportPartialDocuments:
    """The renderer must survive any missing, empty or partial section."""

    def test_empty_document(self):
        assert "observability report" in render_report({})

    def test_profile_without_baseline_cycles(self):
        text = render_report({"profile": {"total_miss_cycles": 9}})
        assert "baseline cycles: -" in text

    def test_zero_run_telemetry(self):
        from repro.runner import RunnerTelemetry
        doc = {"workload": "x", "runner": RunnerTelemetry().snapshot()}
        text = render_report(doc)
        assert "runner: 0 launched" in text
        assert "0% hit rate" in text

    def test_runner_section_missing_newer_keys(self):
        # An old metrics document from before service/resilience mode.
        doc = {"runner": {"launched": 2, "cache_hits": 1}}
        text = render_report(doc)
        assert "runner: 2 launched" in text
        assert "resilience" not in text

    def test_guard_section_with_bare_diagnostics(self):
        doc = {"guard": {"degraded": True,
                         "diagnostics": [{}]}}  # all keys absent
        text = render_report(doc)
        assert "guard: adapted=0 skipped=0 failed=0" in text
        assert "[?]" in text

    def test_sim_section_with_empty_breakdown(self):
        doc = {"sim": {"cycles": 10, "cycle_breakdown": {}}}
        text = render_report(doc)
        assert "cycles=10" in text
        assert "cycle breakdown" not in text

    def test_empty_histograms_and_profiler(self):
        from repro.obs import CycleProfiler
        doc = {"workload": "x", "histograms": {},
               "profiler": CycleProfiler().to_dict()}
        text = render_report(doc)
        assert "cycle profile" in text

    def test_fleet_section_from_bare_dict(self):
        text = render_report({"fleet": {"root": "/tmp/x"}})
        assert "fleet @ /tmp/x" in text


class TestHistogramPercentileCache:
    def test_percentile_cached_between_observes(self):
        from repro.obs.tracer import Histogram
        hist = Histogram("h")
        for v in (5.0, 1.0, 3.0):
            hist.observe(v)
        assert hist.percentile(100) == 5.0
        # Cached: repeated queries reuse one sorted copy.
        assert hist._sorted is not None
        assert hist.percentile(0) == 1.0

    def test_observe_invalidates_the_cache(self):
        from repro.obs.tracer import Histogram
        hist = Histogram("h")
        hist.observe(1.0)
        assert hist.percentile(100) == 1.0
        hist.observe(10.0)
        assert hist._sorted is None
        assert hist.percentile(100) == 10.0
        summary = hist.summary()
        assert summary["min"] == 1.0 and summary["max"] == 10.0


class TestTelemetryBackendAccumulation:
    def test_empty_until_recorded(self):
        from repro.runner import RunnerTelemetry
        assert RunnerTelemetry().snapshot()["cache_backend"] is None

    def test_same_backend_keeps_latest_snapshot(self, tmp_path):
        from repro.runner import ResultCache, Runner, RunSpec
        cache = ResultCache(root=tmp_path / "cache")
        runner = Runner(cache=cache, task_fn=_fake_payload)
        spec = RunSpec.create("mcf", scale="tiny", variant="base")
        runner.run_one(spec)
        assert runner.telemetry.snapshot()["cache_backend"]["hits"] == 0
        runner.run_one(spec)
        # The cache's counters are cumulative: the latest snapshot wins.
        assert runner.telemetry.snapshot()["cache_backend"] \
            == cache.counters_snapshot()
        assert runner.telemetry.snapshot()["cache_backend"]["hits"] == 1


def _fake_payload(spec):
    from repro.sim.caches import MemorySystem
    from repro.sim.config import MachineConfig
    from repro.sim.stats import SimStats
    stats = SimStats(MemorySystem(MachineConfig())).to_dict()
    return {"stats": stats, "wall_time": 0.5}


_EXECUTE_INTO_CACHE = """
import json, sys
from repro.runner import ResultCache, Runner, RunSpec
from repro.runner.worker import artifacts_for
from repro.workloads import make_workload
for name in ("em3d", "health", "mst"):
    make_workload(name, "tiny").build_program()
spec = RunSpec.create("treeadd.df", scale="tiny", model="inorder",
                      variant="ssp")
result = Runner(cache=ResultCache(root=sys.argv[1])).run_one(spec)
assert result.ok and not result.cached, result.error
rows = result.stats.prefetch_metrics(artifacts_for(spec).delinquent_uids)
print(json.dumps({str(uid): row for uid, row in rows.items()}))
"""


class TestRunnerMetricsPassthrough:
    def test_prefetch_rows_from_a_cache_hit_match_the_executor(
            self, tmp_path):
        """A fresh interpreter that first built other workloads executes
        the spec into the cache; this process recomputes the per-load
        prefetch rows from the hit with its own delinquent uids."""
        from repro.runner import ResultCache, Runner, RunSpec
        from repro.runner.worker import artifacts_for
        src = Path(__file__).resolve().parents[1] / "src"
        cache_root = tmp_path / "cache"
        out = subprocess.run(
            [sys.executable, "-c", _EXECUTE_INTO_CACHE, str(cache_root)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        executed = {int(uid): row for uid, row in
                    json.loads(out.stdout.strip().splitlines()[-1]).items()}
        assert any(row["coverage"] > 0 for row in executed.values())

        spec = RunSpec.create("treeadd.df", scale="tiny",
                              model="inorder", variant="ssp")
        hit = Runner(cache=ResultCache(root=cache_root)).run_one(spec)
        assert hit.cached
        uids = artifacts_for(spec).delinquent_uids
        assert hit.stats.prefetch_metrics(uids) == executed

    def test_base_runs_attach_no_metrics(self, tmp_path):
        from repro.runner import ResultCache, Runner, RunSpec
        spec = RunSpec.create("treeadd.df", scale="tiny",
                              model="inorder", variant="base")
        cache = ResultCache(root=tmp_path / "cache")
        result = Runner(cache=cache).run_one(spec)
        assert result.ok and result.metrics == {}

    def test_telemetry_to_dict(self, tmp_path):
        from repro.obs import SCHEMA
        from repro.runner import Runner, RunSpec
        runner = Runner(cache=None, task_fn=_fake_payload)
        spec = RunSpec.create("mcf", scale="tiny", variant="base")
        runner.run_one(spec)
        doc = runner.telemetry.to_dict()
        json.dumps(doc)
        assert doc["schema"] == SCHEMA
        assert doc["runner"]["launched"] == 1
        assert doc["runner"]["sim_wall_time"] == 0.5
        assert doc["records"][0]["label"] == spec.label()


class TestCLIObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        gantt = tmp_path / "gantt.txt"
        telemetry = tmp_path / "telemetry.json"
        assert main(["treeadd.df", "--scale", "tiny", "--no-cache",
                     "--trace", str(trace),
                     "--metrics-json", str(metrics),
                     "--gantt", str(gantt),
                     "--telemetry-json", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "prefetch effectiveness per delinquent load" in out
        assert "coverage" in out

        for line in trace.read_text().splitlines():
            json.loads(line)
        chrome = trace.with_suffix(".chrome.json")
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert "cycles" in gantt.read_text()
        saved = json.loads(metrics.read_text())
        assert saved["workload"] == "treeadd.df"
        assert saved["delinquent_loads"]
        assert "runner" in json.loads(telemetry.read_text())

    def test_ooo_gantt(self, tmp_path, capsys):
        gantt = tmp_path / "gantt.txt"
        assert main(["treeadd.df", "--scale", "tiny", "--no-cache",
                     "--model", "ooo", "--gantt", str(gantt)]) == 0
        assert f"gantt chart written to {gantt}" in capsys.readouterr().out
        rows = {line.split("|")[0].strip(): line
                for line in gantt.read_text().splitlines()[1:]}
        assert "M" in rows["main"] and "#" in rows["spec1"]

    def test_plain_run_still_prints_effectiveness(self, capsys):
        assert main(["treeadd.df", "--scale", "tiny", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "prefetch effectiveness per delinquent load" in out
        assert "timeliness" in out

    def test_report_subcommand(self, capsys):
        assert main(["report", "treeadd.df", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "pipeline passes" in out
        assert "coverage / accuracy / timeliness" in out
        for name in PIPELINE_PASSES:
            assert name in out

    def test_report_from_file(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["treeadd.df", "--scale", "tiny", "--no-cache",
                     "--metrics-json", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", "--from", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "observability report: treeadd.df" in out
        assert "coverage / accuracy / timeliness" in out

    def test_report_without_workload_prints_usage(self, capsys):
        assert main(["report"]) == 2

    def test_disabled_tool_records_nothing(self):
        # The default tool uses the shared null tracer: nothing global
        # accumulates across adaptations (the zero-overhead guarantee).
        tool = SSPPostPassTool()
        assert tool.tracer is NULL_TRACER
        assert NULL_TRACER.spans == []
