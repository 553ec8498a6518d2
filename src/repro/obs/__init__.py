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
"""

from .tracer import (
    Counter,
    Histogram,
    NullTracer,
    NULL_TRACER,
    Span,
    Tracer,
    ensure_tracer,
)
from .export import (
    SIM_PID,
    TOOL_PID,
    chrome_trace_events,
    jsonl_records,
    profiler_counter_events,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    collect_metrics,
    delinquent_rows,
    slice_rows,
)
from .profiler import (
    CycleProfiler,
    DEFAULT_INTERVAL,
    profile_run,
    render_profile,
)
from .fleet import (
    collect_fleet,
    fleet_summary_lines,
    render_fleet,
)
from .record import COUNTERS, SCHEMA
from .report import render_report

__all__ = [
    "Counter", "Histogram", "NullTracer", "NULL_TRACER", "Span", "Tracer",
    "ensure_tracer",
    "SIM_PID", "TOOL_PID", "chrome_trace_events",
    "jsonl_records", "profiler_counter_events", "write_chrome_trace",
    "write_jsonl",
    "collect_metrics", "delinquent_rows", "slice_rows",
    "CycleProfiler", "DEFAULT_INTERVAL", "profile_run", "render_profile",
    "collect_fleet", "fleet_summary_lines", "render_fleet",
    "COUNTERS", "SCHEMA", "render_report",
]
