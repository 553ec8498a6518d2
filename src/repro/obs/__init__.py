"""Unified observability layer: tracing, metrics, timeline export.

Zero-overhead-when-disabled instrumentation for the whole reproduction:

* :class:`~repro.obs.tracer.Tracer` — structured spans / events plus a
  counters-and-histograms registry (:data:`~repro.obs.tracer.NULL_TRACER`
  is the shared no-op used on disabled paths);
* pass-level spans around every post-pass stage, recorded by
  :class:`~repro.tool.postpass.SSPPostPassTool`;
* per-delinquent-load prefetch coverage / accuracy / timeliness from the
  simulator (:meth:`repro.sim.stats.SimStats.prefetch_metrics`);
* exporters — JSONL event log and Chrome trace-event JSON loadable in
  Perfetto, with simulator thread tracks derived from
  :class:`~repro.sim.trace.ContextTrace`;
* one run record (:mod:`~repro.obs.record`): one schema version and one
  counter vocabulary shared by the metrics document, the runner
  telemetry, the fleet document and the trace's ``meta`` line;
* a metrics-document collector and the ``repro report`` renderer.

The names below resolve on first use (PEP 562): the guard imports the
tracer, and a command that records nothing must not load the exporters,
the profiler and the fleet view.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "Counter": ".tracer", "Histogram": ".tracer", "NullTracer": ".tracer",
    "NULL_TRACER": ".tracer", "Span": ".tracer", "Tracer": ".tracer",
    "ensure_tracer": ".tracer",
    "SIM_PID": ".export", "TOOL_PID": ".export",
    "chrome_trace_events": ".export", "jsonl_records": ".export",
    "profiler_counter_events": ".export", "write_chrome_trace": ".export",
    "write_jsonl": ".export",
    "collect_metrics": ".metrics", "delinquent_rows": ".metrics",
    "slice_rows": ".metrics",
    "CycleProfiler": ".profiler", "DEFAULT_INTERVAL": ".profiler",
    "profile_run": ".profiler", "render_profile": ".profiler",
    "collect_fleet": ".fleet", "fleet_summary_lines": ".fleet",
    "render_fleet": ".fleet",
    "COUNTERS": ".record", "SCHEMA": ".record",
    "render_report": ".report",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
