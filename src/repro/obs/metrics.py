"""Per-workload observability metrics: one JSON-safe dict per run.

:func:`collect_metrics` gathers everything the observability layer knows
about one adapted workload run — pass spans with their wall times and
recorded metrics, the Table 2 slice statistics, per-delinquent-load miss
attribution and prefetch coverage / accuracy / timeliness, and the
simulation outcome — into a single dict suitable for ``--metrics-json``
and for rendering with :func:`repro.obs.report.render_report`.  The
document is the whole run record (:mod:`repro.obs.record`); its
``runner`` and ``fleet`` sections are the runner telemetry and the
fleet document.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .record import SCHEMA


def slice_rows(tool_result) -> list:
    """Per-emitted-slice Table 2 material."""
    if tool_result is None or tool_result.adapted is None:
        return []
    rows = []
    for record in tool_result.adapted.records:
        scheduled = record.scheduled
        rows.append({
            "slice_label": record.slice_label,
            "kind": record.kind,
            "interprocedural": bool(record.interprocedural),
            "size": scheduled.size(),
            "emitted_size": record.emitted_size,
            "live_ins": record.num_live_ins,
            "slack_per_iteration": scheduled.slack_per_iteration,
            "height_region": scheduled.height_region,
            "height_critical": scheduled.height_critical,
            "height_slice": scheduled.height_slice,
            "triggers": len(record.triggers),
            "delinquent_uids": sorted(
                scheduled.region_slice.delinquent_uids),
        })
    return rows


def delinquent_rows(tool_result, stats=None,
                    profile=None) -> Dict[str, Dict[str, Any]]:
    """Per-delinquent-load attribution, keyed by the load's uid (str)."""
    if tool_result is None:
        return {}
    prefetch = (stats.prefetch_metrics(tool_result.delinquent_uids)
                if stats is not None else {})
    rows: Dict[str, Dict[str, Any]] = {}
    for uid in tool_result.delinquent_uids:
        row: Dict[str, Any] = {"uid": uid}
        if profile is not None:
            row["profiled_miss_cycles"] = profile.miss_cycles_of(uid)
        row.update(prefetch.get(uid, {}))
        rows[str(uid)] = row
    return rows


def collect_metrics(workload: str, scale: str, model: str,
                    profile=None, tool_result=None, stats=None,
                    baseline_cycles: Optional[int] = None,
                    tracer=None, telemetry=None,
                    resilience: Optional[Dict[str, Any]] = None,
                    profiler=None,
                    fleet: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Assemble the observability metrics document for one run.

    ``resilience`` is the per-run resilience metadata from
    ``RunResult.metrics["resilience"]`` (ladder step, watchdog kills,
    checkpoint/resume counts); the session's counters arrive via
    ``telemetry`` under ``doc["runner"]``.  ``profiler``
    is a :class:`~repro.obs.profiler.CycleProfiler` (or its document)
    and ``fleet`` a :func:`repro.obs.fleet.collect_fleet` document.
    """
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload,
        "scale": scale,
        "model": model,
    }
    if tracer is not None:
        doc["passes"] = [
            {"name": span.name, "cat": span.category,
             "wall_time": span.wall_time, "metrics": dict(span.metrics)}
            for span in tracer.spans]
        counters = tracer.counters_snapshot()
        if counters:
            doc["counters"] = counters
        histograms = tracer.histograms_snapshot()
        if histograms:
            doc["histograms"] = histograms
    if profile is not None:
        doc["profile"] = {
            "baseline_cycles": profile.baseline_cycles,
            "total_miss_cycles": profile.total_miss_cycles(),
        }
    if tool_result is not None:
        doc["delinquent_uids"] = list(tool_result.delinquent_uids)
        doc["table2"] = tool_result.table2_row()
        doc["slices"] = slice_rows(tool_result)
        doc["delinquent_loads"] = delinquent_rows(tool_result, stats,
                                                  profile)
        doc["guard"] = tool_result.guard.to_dict()
    if stats is not None:
        sim: Dict[str, Any] = {
            "cycles": stats.cycles,
            "main_instructions": stats.main_instructions,
            "spec_instructions": stats.spec_instructions,
            "spawns": stats.spawns,
            "spawn_failures": stats.spawn_failures,
            "chk_fired": stats.chk_fired,
            "chk_ignored": stats.chk_ignored,
            "threads_completed": stats.threads_completed,
            "budget_kills": stats.budget_kills,
            "prefetches_issued": stats.memory.prefetches_issued,
            "prefetches_dropped": stats.memory.prefetches_dropped,
            "cycle_breakdown": dict(stats.cycle_breakdown),
        }
        if baseline_cycles:
            sim["baseline_cycles"] = baseline_cycles
            if stats.cycles:
                sim["speedup"] = baseline_cycles / stats.cycles
        doc["sim"] = sim
    if telemetry is not None:
        doc["runner"] = telemetry.snapshot()
    if resilience is not None:
        doc["resilience"] = dict(resilience)
    if profiler is not None:
        doc["profiler"] = (dict(profiler) if isinstance(profiler, dict)
                           else profiler.to_dict())
    if fleet is not None:
        doc["fleet"] = dict(fleet)
    return doc
