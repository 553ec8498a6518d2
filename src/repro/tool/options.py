"""The post-pass tool's knobs, apart from the tool itself.

:class:`ToolOptions` and the degradation ladder's presets are plain
data: a run spec, the ladder and the command line read them without
loading the tool's analyses, the simulators and the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..isa.registers import LIB_SLOTS


@dataclass
class ToolOptions:
    """Knobs of the post-pass tool (Section 3.4.1 heuristics)."""

    #: Delinquent-load coverage of total misses.
    coverage: float = 0.90
    max_delinquent_loads: int = 10
    #: reduced-miss-cycle threshold = cutoff_percentage * load miss cycles
    #: ("the value is calculated as the product of the cutoff percentage
    #: and the miss cycles from cache profiling").
    cutoff_percentage: float = 0.10
    #: "we also stop the traversal of the region graph when it is nested
    #: several levels deep".
    max_region_nesting: int = 3
    #: Trip counts below this use basic SP ("if the trip count is small").
    small_trip_count: float = 8.0
    #: "To avoid a slice becoming too big that often leads to wrong
    #: address calculations".
    max_slice_size: int = 64
    max_live_ins: int = LIB_SLOTS
    #: Ablation: restrict the tool to basic SP (no chaining), to measure
    #: the paper's claim that "long-range prefetching using chaining
    #: triggers is the key to high performance".
    disable_chaining: bool = False
    #: Run the differential semantic-equivalence check on the adapted
    #: binary (needs a heap factory) and roll back on mismatch.
    differential_verify: bool = True


#: :class:`ToolOptions` overrides for each rung of the resilience
#: degradation ladder (see :mod:`repro.resilience.ladder`): when a run
#: blows its budgets the worker re-adapts with progressively weaker
#: speculation — basic SP only, then basic SP for the single worst
#: delinquent load — before giving up on adaptation entirely.  Kept here,
#: next to the knobs they override, so tool and ladder cannot drift, and
#: out of :mod:`repro.tool.postpass`, so the ladder does not load the
#: tool.
DEGRADATION_PRESETS: Dict[str, Dict[str, object]] = {
    "basic": {"disable_chaining": True},
    "top1": {"disable_chaining": True, "max_delinquent_loads": 1},
}
