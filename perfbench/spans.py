"""Spans recorded by the benchmark around calls into the program's layers.

The traced run wraps each layer call (``Runner.run``, a cache ``get``,
``collect_profile``, ``SSPPostPassTool.adapt``, a simulator ``run``, ...)
in a :class:`Span`.  Work done in a pool child is recorded by the child's
own :class:`Recorder`, shipped back in the task payload, and grafted under
the parent span that dispatched it.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, so parent and child timestamps share one
time base.

:func:`attribute` turns a span tree into wall-time shares: every instant
of the root span goes to the innermost spans active at that instant,
split evenly when several run at once (two pool workers each get half).
The shares of all spans therefore add up to the root's wall time, and the
root's own share is time no layer explains.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import Tracer

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder's list (None = root).
    parent: Optional[int] = None


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: kernel -> facts about it that any process computing them
        #: finds equal (tool counts), so duplicates overwrite.
        self.facts: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        self.spans.append(Span(name, clock(), 0.0, self.current()))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = clock()

    def current(self) -> Optional[int]:
        return self._open[-1] if self._open else None

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record an already-closed span (default: under the open one)."""
        self.spans.append(Span(name, start, end,
                               self.current() if parent is None
                               else parent))
        return len(self.spans) - 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def fact(self, kernel: str, name: str, value: float) -> None:
        self.facts[kernel][name] = value

    def fact_total(self, name: str) -> float:
        return sum(facts.get(name, 0) for facts in self.facts.values())

    def export(self) -> Dict:
        """JSON-safe form, for shipping out of a pool child."""
        return {"spans": [(s.name, s.start, s.end, s.parent)
                          for s in self.spans],
                "counts": dict(self.counts),
                "facts": dict(self.facts)}

    def graft(self, exported: Dict, parent: int) -> None:
        """Adopt another recorder's spans under ``parent``."""
        offset = len(self.spans)
        for name, start, end, sub in exported["spans"]:
            self.spans.append(Span(name, start, end,
                                   parent if sub is None else sub + offset))
        for name, n in exported["counts"].items():
            self.counts[name] += n
        for kernel, facts in exported["facts"].items():
            self.facts[kernel].update(facts)


def attribute(spans: List[Span], root: int
              ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split the root span's wall time over the innermost active spans.

    Returns ``(self_time, inclusive_time)`` keyed by span name: a span's
    self time is its share while no child of it was active; its
    inclusive time adds the shares of all its descendants.
    """
    lo, hi = spans[root].start, spans[root].end
    edges = sorted({min(max(t, lo), hi) for s in spans
                    for t in (s.start, s.end)})
    own: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        active = [i for i, s in enumerate(spans) if s.start <= mid < s.end]
        parents = {spans[i].parent for i in active}
        leaves = [i for i in active if i not in parents]
        if not leaves:
            continue
        share = (b - a) / len(leaves)
        for i in leaves:
            own[spans[i].name] += share
            while i is not None:
                inclusive[spans[i].name] += share
                i = spans[i].parent
    return own, inclusive


class _EpochClock:
    """``perf_counter`` that remembers its first reading."""

    def __init__(self) -> None:
        self.epoch: Optional[float] = None

    def __call__(self) -> float:
        now = clock()
        if self.epoch is None:
            self.epoch = now
        return now


class EpochTracer(Tracer):
    """The program's tracer, with its epoch exposed so its span times
    (seconds since the epoch) can be placed on the benchmark's clock."""

    def __init__(self) -> None:
        epoch_clock = _EpochClock()
        super().__init__(clock=epoch_clock)
        self.epoch = epoch_clock.epoch


#: The post-pass tool's own per-pass spans (``SSPPostPassTool.adapt``)
#: reported as layers; its short delinquent-load selection pass stays in
#: ``tool.adapt``'s self time.
TOOL_PASSES = ("analysis", "slicing", "scheduling", "triggers", "codegen",
               "verify")


def graft_tool_passes(rec: Recorder, tracer: EpochTracer, first: int,
                      adapt_span: int) -> None:
    """Copy the tool passes recorded since span ``first`` under
    ``adapt_span``, as ``tool.<pass>`` spans."""
    for span in tracer.spans[first:]:
        if span.name in TOOL_PASSES:
            rec.add(f"tool.{span.name}", tracer.epoch + span.start,
                    tracer.epoch + span.end, parent=adapt_span)


class TimedBackend:
    """A cache backend that records a span around every ``get``/``put``.

    Everything else is delegated, so the runner and the service see the
    wrapped backend's counters and maintenance calls unchanged.
    """

    def __init__(self, inner, rec: Recorder, prefix: str):
        self._inner = inner
        self._rec = rec
        self._prefix = prefix

    def get(self, spec):
        self._rec.count(f"{self._prefix}.gets")
        with self._rec.span(f"{self._prefix}.get"):
            return self._inner.get(spec)

    def put(self, *args, **kwargs):
        with self._rec.span(f"{self._prefix}.put"):
            return self._inner.put(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: The cycle profiler's phase laps of each simulator's run loop.
SIM_PHASES = {
    "inorder": ("reap", "select", "issue", "account"),
    "ooo": ("fetch", "schedule", "interp", "timing", "account"),
}


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced pass pair (root span 0).

    ``*_s`` values are shares of the pair's wall time (see
    :func:`attribute`); counts and ratios come from the recorder.
    """
    own, inclusive = attribute(rec.spans, 0)
    counts = rec.counts
    m = {
        "workloads.build_s": own["workloads.build"],
        "profiling.collect_s": inclusive["profiling.collect"],
        "profiling.baseline_cycles": rec.fact_total(
            "profiling.baseline_cycles"),
        "tool.adapt_s": inclusive["tool.adapt"],
    }
    for name in TOOL_PASSES:
        m[f"tool.{name}_s"] = inclusive[f"tool.{name}"]
    delinquent = rec.fact_total("tool.delinquent_loads")
    m["tool.delinquent_loads"] = delinquent
    m["tool.adapted_frac"] = (rec.fact_total("tool.adapted_loads")
                              / delinquent if delinquent else 0.0)
    m["tool.slices"] = rec.fact_total("tool.slices")
    m["tool.rollbacks"] = rec.fact_total("tool.rollbacks")
    for model, phases in SIM_PHASES.items():
        name = f"sim.{model}.run"
        raw = sum(s.end - s.start for s in rec.spans if s.name == name)
        cycles = counts[f"sim.{model}.cycles"]
        m[f"sim.{model}.run_s"] = inclusive[name]
        m[f"sim.{model}.ns_per_cycle"] = (raw / cycles * 1e9 if cycles
                                          else 0.0)
        walls = {p: counts[f"sim.{model}.phase.{p}"] for p in phases}
        total = sum(walls.values())
        for phase, wall in walls.items():
            m[f"sim.{model}.{phase}_frac"] = wall / total if total else 0.0
    lookups = counts["runner.cache.lookups"]
    submitted = counts["service.submitted"]
    wall = rec.spans[0].end - rec.spans[0].start
    m.update({
        "runner.exec_s": inclusive["runner.exec"],
        "runner.overhead_s": own["runner.run"],
        "runner.cache_get_s": own["runner.cache.get"],
        "runner.cache_put_s": own["runner.cache.put"],
        "runner.hit_rate": (counts["runner.cache.hits"] / lookups
                            if lookups else 0.0),
        "runner.artifact_builds": counts["runner.artifact_builds"],
        "service.submit_s": inclusive["service.submit"],
        "service.wait_s": own["service.wait"],
        "service.fetch_s": inclusive["service.fetch"],
        "service.overhead_s": (wall - inclusive["runner.exec"]
                               if submitted else 0.0),
        "service.dedupe_frac": (1 - counts["service.executed"] / submitted
                                if submitted else 0.0),
        "service.backend_gets": counts["service.backend.gets"],
        "bench.unattributed_s": own["pass"],
    })
    return m
