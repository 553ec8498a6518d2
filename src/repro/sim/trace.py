"""Thread-context occupancy tracing.

Records, per hardware context, the intervals during which a thread
occupied it — enough to *see* chaining SP working: the main thread in
context 0 and a relay of short speculative threads cycling through
contexts 1-3, far ahead of the main thread's program counter.

``render_gantt`` draws an ASCII occupancy chart; tests use the interval
data to assert scheduling properties (e.g. that several speculative
threads were ever alive at once).  The context policy of
:mod:`repro.sim.smt` records into a simulator's ``trace`` when one is set,
so both machine models trace the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.memory import Heap
from ..isa.program import Program
from .config import MachineConfig
from .machine import make_simulator
from .stats import SimStats


class ContextTrace:
    """Occupancy intervals per hardware context."""

    def __init__(self, num_contexts: int):
        self.num_contexts = num_contexts
        #: context -> list of (tid, start_cycle, end_cycle).
        self.intervals: Dict[int, List[Tuple[int, int, int]]] = {
            slot: [] for slot in range(num_contexts)}
        self._open: Dict[int, Tuple[int, int]] = {}
        #: Simulation-time point events: (cycle, name, args) — spawns,
        #: fired triggers, thread lifecycle (the timeline exporters turn
        #: these into instant events on the context tracks).
        self.events: List[Tuple[int, str, Dict]] = []
        #: The run's last cycle, once :meth:`finish` has been called.
        self.end = 0

    def note(self, cycle: int, name: str, **args) -> None:
        """Record a simulation-time point event."""
        self.events.append((cycle, name, args))

    def occupy(self, slot: int, tid: int, cycle: int) -> None:
        self._open[slot] = (tid, cycle)

    def release(self, slot: int, cycle: int) -> None:
        if slot in self._open:
            tid, start = self._open.pop(slot)
            self.intervals[slot].append((tid, start, cycle))

    def finish(self, cycle: int) -> None:
        """Close the open intervals at ``cycle``, the run's end, and clip
        every interval to it (the OOO model releases a context at the
        fetch cycle that finds it done, which can lie past the main
        thread's last retirement)."""
        self.end = cycle
        for slot in list(self._open):
            self.release(slot, cycle)
        for slot, spans in self.intervals.items():
            self.intervals[slot] = [(tid, min(start, cycle), min(end, cycle))
                                    for tid, start, end in spans]

    # -- queries -------------------------------------------------------------------

    def thread_count(self) -> int:
        return sum(len(v) for v in self.intervals.values())

    def max_concurrent_speculative(self) -> int:
        """Peak number of simultaneously-live speculative threads."""
        events: List[Tuple[int, int]] = []
        for slot, spans in self.intervals.items():
            if slot == 0:
                continue
            for _, start, end in spans:
                events.append((start, 1))
                events.append((end, -1))
        events.sort()
        live = peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        return peak

    def speculative_busy_cycles(self) -> int:
        return sum(end - start
                   for slot, spans in self.intervals.items()
                   if slot != 0 for _, start, end in spans)

    def render_gantt(self, width: int = 72) -> str:
        """ASCII occupancy chart, one row per hardware context."""
        horizon = max([1, self.end] + [end for spans in self.intervals.values()
                                       for _, _, end in spans])
        scale = horizon / width
        lines = [f"cycles 0..{horizon} "
                 f"({scale:.0f} cycles per column)"]
        for slot in range(self.num_contexts):
            row = [" "] * width
            for tid, start, end in self.intervals[slot]:
                lo = min(width - 1, int(start / scale))
                hi = min(width - 1, max(lo, int((end - 1) / scale)))
                for i in range(lo, hi + 1):
                    row[i] = "M" if tid == 0 else "#"
            label = "main " if slot == 0 else f"spec{slot}"
            lines.append(f"{label} |{''.join(row)}|")
        return "\n".join(lines)


def trace_run(program: Program, heap: Heap,
              config: Optional[MachineConfig] = None,
              spawning: bool = True,
              profiler=None,
              model: str = "inorder") -> Tuple[SimStats, ContextTrace]:
    """Simulate on ``model`` with context tracing.

    ``profiler`` optionally attaches a
    :class:`~repro.obs.profiler.CycleProfiler` so one traced run yields
    both the context-occupancy trace and the cycle-attribution profile.
    """
    sim = make_simulator(program, heap, model, config, spawning)
    sim.trace = trace = ContextTrace(sim.config.hardware_contexts)
    if profiler is not None:
        sim.attach_profiler(profiler)
    stats = sim.run()
    trace.finish(stats.cycles)
    return stats, trace
