"""Traced calls into the program's layers.

:func:`traced_task` is the unit of work the traced run hands to
``Runner`` and to the service worker in place of ``execute_spec``.  It
makes the same public calls ``execute_spec`` makes -- ``artifacts_for``
(workload build, ``collect_profile``, ``SSPPostPassTool.adapt``),
``make_simulator(...).run`` and the kernel output check -- with a span
around each, the tool's own per-pass spans copied in, and a
``CycleProfiler`` attached to the simulator.  It is a module-level
function so a process pool can pickle it by name; its spans travel back
in the payload's metrics.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.obs.profiler import CycleProfiler
from repro.runner import artifacts_for, config_for
from repro.sim.machine import make_simulator

from spans import EpochTracer, Recorder, clock, graft_tool_passes

#: Variants whose kernel leaves a checkable result (as in the runner).
CHECKED_VARIANTS = ("base", "ssp")


def record_adapt(rec: Recorder, tool_tracer: EpochTracer, first: int,
                 start: float, kernel: str, result) -> None:
    """Record one adaptation of ``kernel`` that began at ``start``: a
    ``tool.adapt`` span, the tool's passes beneath it, and its counts
    (which must not move for a speed-only change)."""
    adapt = rec.add("tool.adapt", start, clock())
    graft_tool_passes(rec, tool_tracer, first, adapt)
    rec.fact(kernel, "tool.delinquent_loads", len(result.delinquent_uids))
    rec.fact(kernel, "tool.adapted_loads", result.guard.adapted_loads)
    rec.fact(kernel, "tool.slices",
             len(result.adapted.records) if result.adapted else 0)
    rec.fact(kernel, "tool.rollbacks", len(result.guard.rollbacks))


def _build_adaptation(rec: Recorder, kernel: str, artifacts) -> None:
    """Profile and adapt through the artifact memo.  The memo records a
    span on its tracer for each build it performs, so spans are added
    only for the builds this call actually made."""
    tracer = artifacts.tracer
    first = len(tracer.spans)
    start = clock()
    profile = artifacts.profile
    if len(tracer.spans) > first:
        rec.add("profiling.collect", start, clock())
        rec.fact(kernel, "profiling.baseline_cycles",
                 profile.baseline_cycles)
    first = len(tracer.spans)
    start = clock()
    result = artifacts.tool_result
    if len(tracer.spans) > first:
        record_adapt(rec, tracer, first, start, kernel, result)


def record_sim(rec: Recorder, model: str, stats,
               profiler: CycleProfiler) -> None:
    rec.count(f"sim.{model}.cycles", stats.cycles)
    for phase, seconds in profiler.phase_wall.items():
        rec.count(f"sim.{model}.phase.{phase}", seconds)


def traced_task(spec) -> Dict:
    """``execute_spec`` with a span around every layer call."""
    rec = Recorder()
    with rec.span("runner.exec"):
        started = clock()
        with rec.span("workloads.build"):
            artifacts = artifacts_for(spec)
        if not isinstance(artifacts.tracer, EpochTracer):
            # First use of these artifacts in this process.
            artifacts.tracer = EpochTracer()
        if spec.variant == "ssp":
            _build_adaptation(rec, spec.workload, artifacts)
        with rec.span("workloads.build"):
            program, heap_workload = artifacts.run_inputs(spec.variant)
            heap = heap_workload.build_heap()
        sim = make_simulator(program, heap, spec.model,
                             config=config_for(spec, artifacts),
                             spawning=spec.effective_spawning,
                             max_cycles=spec.max_cycles)
        profiler = CycleProfiler()
        sim.attach_profiler(profiler)
        with rec.span(f"sim.{spec.model}.run"):
            stats = sim.run()
        if spec.variant in CHECKED_VARIANTS:
            heap_workload.check_output(sim.heap)
        record_sim(rec, spec.model, stats, profiler)
        payload = {"stats": stats.to_dict(),
                   "wall_time": clock() - started}
        metrics: Dict = {}
        if spec.variant == "ssp":
            # The attachment execute_spec makes, so both do the same work.
            uids = artifacts.delinquent_uids
            metrics["delinquent_uids"] = list(uids)
            metrics["prefetch"] = {
                str(uid): row
                for uid, row in stats.prefetch_metrics(uids).items()}
    metrics["bench"] = dict(rec.export(), pid=os.getpid())
    payload["metrics"] = metrics
    return payload


class Collect:
    """In-process task wrapper that keeps each traced payload's spans
    (the service stores results, not who computed them)."""

    def __init__(self) -> None:
        self.exports = []

    def __call__(self, spec) -> Dict:
        payload = traced_task(spec)
        self.exports.append(payload["metrics"]["bench"])
        return payload
