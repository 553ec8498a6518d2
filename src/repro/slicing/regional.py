"""Region-based slicing (Section 3.1.1) — restricting a slice to a region.

Region-based slicing "allows us to increase the slack value incrementally
from one code region to its outer ones, to find slices with large enough
slack to avoid untimely prefetches, but small enough slack to avoid early
eviction".  The post-pass tool walks the region graph outward
(:meth:`repro.analysis.regions.RegionGraph.outward_chain`), and at each
region builds a :class:`RegionSlice`: the whole-program slice pruned to the
instructions of that region (plus spliced callee summaries for calls made
*inside* the region).

The pruning is the "slice-pruning" operation the paper calls key for SSP:
dependences leading out of the region are cut and their values become
live-ins supplied by the main thread at the trigger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..isa.instructions import Instruction
from ..analysis.depgraph import DependenceGraph
from ..analysis.regions import Region, RegionGraph
from .slicer import ProgramSlice


class RegionSlice:
    """A program slice restricted to one region."""

    def __init__(self, slice_: ProgramSlice, region: Region,
                 body: List[Instruction], dg: DependenceGraph):
        #: The underlying whole-program slice.
        self.slice = slice_
        #: The region this slice will precompute within.
        self.region = region
        #: Slice instructions inside the region, in layout order.
        self.body = body
        #: The region function's dependence graph.
        self.dg = dg
        #: Callee functions whose summaries the body's calls splice in.
        self.callees: Set[str] = set(slice_.callees)
        #: All delinquent loads this slice covers (grows when slices that
        #: share dependence-graph nodes are combined, Section 3.4.1).
        self.delinquent_uids: Set[int] = {slice_.load.uid}
        #: (producer uid, offset) recursive-context prefetch substitutions
        #: whose producers live in this body.
        body_uids = {ins.uid for ins in body}
        self.extra_prefetches = [
            (uid, off) for uid, off in slice_.substituted_prefetches
            if uid in body_uids]

    @property
    def load(self) -> Instruction:
        return self.slice.load

    @property
    def body_uids(self) -> Set[int]:
        return {ins.uid for ins in self.body}

    def size(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RegionSlice(load={self.load.uid}, region="
                f"{self.region.name}, {len(self.body)} instrs)")


def restrict_to_region(slice_: ProgramSlice, region: Region,
                       region_graph: RegionGraph,
                       depgraphs: Dict[str, DependenceGraph]
                       ) -> Optional[RegionSlice]:
    """Prune ``slice_`` to ``region``; None when the region holds none of
    the slice (the load is elsewhere and nothing can be precomputed)."""
    func_name = region.function
    uids = slice_.uids_in(func_name)
    if not uids:
        return None
    dg = depgraphs[func_name]
    func = region_graph.program.function(func_name)
    body: List[Instruction] = []
    for block in func.blocks:
        if block.label not in region.blocks:
            continue
        for instr in block.instrs:
            if instr.uid in uids and not instr.is_store:
                body.append(instr)
    if not any(ins.uid == slice_.load.uid for ins in body):
        return None
    return RegionSlice(slice_, region, body, dg)


def merge_region_slices(slices: List[RegionSlice]) -> RegionSlice:
    """Combine slices that target the same region (Section 3.4.1:
    "different slices are combined if they share nodes in the dependence
    graph").  The merged body is the uid-union in layout order; all covered
    delinquent loads are prefetched by the one combined p-slice."""
    if not slices:
        raise ValueError("nothing to merge")
    if len(slices) == 1:
        return slices[0]
    primary = slices[0]
    union: Set[int] = set()
    for rs in slices:
        if rs.region is not primary.region:
            raise ValueError("can only merge slices of the same region")
        union |= rs.body_uids
    func = primary.dg.func
    body: List[Instruction] = []
    for block in func.blocks:
        if block.label not in primary.region.blocks:
            continue
        for instr in block.instrs:
            if instr.uid in union:
                body.append(instr)
    merged = RegionSlice(primary.slice, primary.region, body, primary.dg)
    merged.extra_prefetches = []
    for rs in slices:
        merged.callees |= rs.callees
        merged.delinquent_uids |= rs.delinquent_uids
        for pair in rs.extra_prefetches:
            if pair not in merged.extra_prefetches:
                merged.extra_prefetches.append(pair)
    return merged


def live_in_registers(region_slice: RegionSlice) -> List[str]:
    """Registers the slice body reads before defining — the live-ins the
    main thread must supply through the live-in buffer (Section 3.4.2).

    Order is deterministic (first-use order) so live-in buffer slots are
    stable across stub and slice codegen.
    """
    from ..analysis.dataflow import instruction_defs, instruction_uses
    from ..isa import registers as regs

    func = region_slice.dg.func
    defined: Set[str] = set()
    live: List[str] = []
    for instr in region_slice.body:
        for reg in instruction_uses(instr, func):
            if reg in (regs.ZERO, regs.TRUE_PREDICATE):
                continue
            if reg.startswith("p"):
                continue  # predicates are recomputed inside the slice
            if reg not in defined and reg not in live:
                live.append(reg)
        for reg in instruction_defs(instr):
            defined.add(reg)
    return live
