"""Exporters: JSONL event log and Chrome trace-event JSON (Perfetto).

Two serialisations of one observed run:

* :func:`write_jsonl` — an append-friendly machine-readable log, one JSON
  object per line.  Record ``type``s: ``meta`` (first, carrying the run
  record's :data:`~repro.obs.record.SCHEMA`), ``span``, ``event``,
  ``counter``, ``histogram``, ``sim_event`` and ``context_interval``.
* :func:`write_chrome_trace` — the Chrome trace-event format
  (``{"traceEvents": [...]}``), loadable in Perfetto / ``chrome://tracing``.
  Tool passes appear as duration events on a "post-pass tool" process
  (wall-clock microseconds); the simulator timeline is derived from a
  :class:`~repro.sim.trace.ContextTrace` — one thread track per hardware
  context, one duration slice per thread occupancy interval, instant
  events for spawns and fired triggers — on a "simulator" process where
  **1 simulated cycle is rendered as 1 microsecond**.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .record import SCHEMA

#: Synthetic process ids for the two timelines of a Chrome trace.
TOOL_PID = 1
SIM_PID = 2


def jsonl_records(tracer=None, context_trace=None,
                  meta: Optional[Dict[str, Any]] = None
                  ) -> List[Dict[str, Any]]:
    """All observability records of one run, in emission order."""
    records: List[Dict[str, Any]] = []
    head: Dict[str, Any] = {"type": "meta", "schema": SCHEMA}
    if meta:
        head.update(meta)
    records.append(head)
    if tracer is not None:
        records.extend(tracer.span_dicts())
        records.extend(tracer.events)
        for name, value in tracer.counters_snapshot().items():
            records.append({"type": "counter", "name": name,
                            "value": value})
        for name, summary in tracer.histograms_snapshot().items():
            records.append({"type": "histogram", "name": name, **summary})
    if context_trace is not None:
        for slot in range(context_trace.num_contexts):
            for tid, start, end in context_trace.intervals[slot]:
                records.append({"type": "context_interval", "context": slot,
                                "tid": tid, "start_cycle": start,
                                "end_cycle": end})
        for cycle, name, args in getattr(context_trace, "events", []):
            records.append({"type": "sim_event", "cycle": cycle,
                            "name": name, "args": args})
    return records


def write_jsonl(path, records: Iterable[Dict[str, Any]]) -> None:
    """Write records as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def _metadata(pid: int, tid: int, kind: str, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def profiler_counter_events(profiler) -> List[Dict[str, Any]]:
    """Perfetto counter tracks from a cycle-attribution profiler.

    Two counters on the simulator process timeline (1 cycle = 1 µs):
    host simulation throughput (cycles/second of wall time) and the
    main-vs-speculative instruction ticks of each sampling window.
    ``profiler`` is a live :class:`~repro.obs.profiler.CycleProfiler`
    or its ``to_dict()`` document.
    """
    if profiler is None:
        return []
    doc = profiler if isinstance(profiler, dict) else profiler.to_dict()
    events: List[Dict[str, Any]] = []
    for point in doc.get("track", []):
        ts = float(point["cycle"])
        events.append({
            "ph": "C", "name": "sim throughput", "cat": "profiler",
            "pid": SIM_PID, "tid": 0, "ts": ts,
            "args": {"cycles_per_sec":
                     round(point["cycles_per_sec"], 1)},
        })
        events.append({
            "ph": "C", "name": "instruction ticks", "cat": "profiler",
            "pid": SIM_PID, "tid": 0, "ts": ts,
            "args": {"main": point["main_ticks"],
                     "spec": point["spec_ticks"]},
        })
    return events


def chrome_trace_events(tracer=None, context_trace=None, profiler=None
                        ) -> List[Dict[str, Any]]:
    """Chrome trace-event list for one observed run."""
    events: List[Dict[str, Any]] = []

    if tracer is not None and (tracer.spans or tracer.events):
        events.append(_metadata(TOOL_PID, 0, "process_name",
                                "post-pass tool"))
        events.append(_metadata(TOOL_PID, 0, "thread_name", "pipeline"))
        for span in tracer.spans:
            events.append({
                "ph": "X", "name": span.name, "cat": span.category,
                "pid": TOOL_PID, "tid": 0,
                "ts": span.start * 1e6,
                "dur": max(span.wall_time * 1e6, 1.0),
                "args": dict(span.metrics),
            })
        for event in tracer.events:
            events.append({
                "ph": "i", "s": "p", "name": event["name"],
                "cat": event.get("cat", "event"),
                "pid": TOOL_PID, "tid": 0,
                "ts": event["ts"] * 1e6,
                "args": dict(event.get("args", {})),
            })

    if context_trace is not None:
        events.append(_metadata(SIM_PID, 0, "process_name",
                                "simulator (1 cycle = 1us)"))
        for slot in range(context_trace.num_contexts):
            label = ("main (context 0)" if slot == 0
                     else f"spec context {slot}")
            events.append(_metadata(SIM_PID, slot, "thread_name", label))
            for tid, start, end in context_trace.intervals[slot]:
                events.append({
                    "ph": "X",
                    "name": "main" if slot == 0 else f"thread {tid}",
                    "cat": "context", "pid": SIM_PID, "tid": slot,
                    "ts": float(start),
                    "dur": float(max(end - start, 1)),
                    "args": {"tid": tid},
                })
        for cycle, name, args in getattr(context_trace, "events", []):
            events.append({
                "ph": "i", "s": "t", "name": name, "cat": "sim",
                "pid": SIM_PID, "tid": int(args.get("slot", 0)),
                "ts": float(cycle), "args": dict(args),
            })

    if profiler is not None:
        counter_events = profiler_counter_events(profiler)
        if counter_events and context_trace is None:
            # The counters live on the simulator timeline; name the
            # process when no context trace already did.
            events.append(_metadata(SIM_PID, 0, "process_name",
                                    "simulator (1 cycle = 1us)"))
        events.extend(counter_events)
    return events


def write_chrome_trace(path, events: List[Dict[str, Any]]) -> None:
    """Write a ``{"traceEvents": [...]}`` JSON file Perfetto accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
