"""Profile data structures (Section 2.2's profiling feedback).

A :class:`ProgramProfile` bundles everything the post-pass tool consumes:

* the **cache profile** from the simulator — per-static-load access/miss
  counts and miss cycles ("the tool employs cache profile data from the
  simulator"),
* the **block profile** — execution counts per basic block, used by
  control-flow speculative slicing and trip-count estimation,
* the **dynamic call graph** for indirect call sites ("we instrument all
  the indirect procedural calls to capture the call graph during
  profiling"),
* the **reference run** — the profiling run's initial and final heap
  digests and final main-thread state, which the tool's verify reuses
  instead of re-running the original binary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..isa.program import Program
from ..sim.caches import LoadStats

if TYPE_CHECKING:  # pragma: no cover
    from ..codegen.verify import ReferenceRun


class ProgramProfile:
    """Profiling feedback for one program."""

    def __init__(self, program: Program,
                 load_stats: Dict[int, LoadStats],
                 exec_counts: Dict[int, int],
                 indirect_targets: Dict[int, Dict[str, int]],
                 baseline_cycles: int,
                 l1_latency: int = 2,
                 reference: Optional["ReferenceRun"] = None):
        self.program = program
        self.load_stats = load_stats
        self.exec_counts = exec_counts
        self.indirect_targets = indirect_targets
        self.baseline_cycles = baseline_cycles
        self.l1_latency = l1_latency
        #: Recorded profiling run of ``program`` (None when the program
        #: already speculates, so its run is not a shadow run).
        self.reference = reference
        self.block_freq: Dict[str, Dict[str, int]] = {}
        for name, func in program.functions.items():
            freqs: Dict[str, int] = {}
            for block in func.blocks:
                if block.instrs:
                    freqs[block.label] = exec_counts.get(
                        block.instrs[0].uid, 0)
            self.block_freq[name] = freqs

    # -- cache profile -----------------------------------------------------------

    def misses_of(self, uid: int) -> int:
        stats = self.load_stats.get(uid)
        return stats.l1_misses if stats else 0

    def miss_cycles_of(self, uid: int) -> int:
        stats = self.load_stats.get(uid)
        return stats.miss_cycles if stats else 0

    def total_misses(self) -> int:
        return sum(s.l1_misses for s in self.load_stats.values())

    def total_miss_cycles(self) -> int:
        return sum(s.miss_cycles for s in self.load_stats.values())

    def average_load_latency(self, uid: int) -> Optional[float]:
        """Mean observed latency of a static load, for dependence-graph
        edge annotation (Section 3.2)."""
        stats = self.load_stats.get(uid)
        if stats is None or stats.accesses == 0:
            return None
        return self.l1_latency + stats.miss_cycles / stats.accesses

    def load_latency_map(self) -> Dict[int, float]:
        return {uid: self.l1_latency + s.miss_cycles / s.accesses
                for uid, s in self.load_stats.items() if s.accesses}

    # -- block profile -----------------------------------------------------------

    def block_count(self, function: str, label: str) -> int:
        return self.block_freq.get(function, {}).get(label, 0)

    def executions_of(self, uid: int) -> int:
        return self.exec_counts.get(uid, 0)
