"""The region graph (Section 3.1.1).

"A region represents a loop, a loop body, or a procedure in the program.
Derived using CFG information, a region graph is a hierarchical program
representation that uses edges to connect a parent region to its child
regions, that is, from callers to callees, and from an outer scope to an
inner scope."

Region-based slicing walks this graph outward from the innermost region
containing a delinquent load, growing the slice until the slack is large
enough; region/model selection (Section 3.4.1) walks it with the
reduced-miss-cycle threshold.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..isa.instructions import Instruction
from ..isa.program import Program
from .callgraph import CallGraph
from .cfg import CFG
from .dominance import dominator_tree
from .loops import Loop, find_loops, innermost_loop

PROCEDURE, LOOP = "procedure", "loop"


class Region:
    """One region: a procedure or a (natural) loop."""

    def __init__(self, kind: str, function: str,
                 blocks: Set[str], loop: Optional[Loop] = None):
        self.kind = kind
        self.function = function
        self.blocks = blocks
        self.loop = loop
        self.parent: Optional["Region"] = None
        self.children: List["Region"] = []
        #: Estimated iterations per entry (1 for non-loop regions,
        #: Section 3.4.1); filled in from block profiles when available.
        self.trip_count: float = 1.0
        #: Total times the region was entered (profile).
        self.entries: int = 0

    @property
    def name(self) -> str:
        if self.kind == PROCEDURE:
            return f"proc:{self.function}"
        return f"loop:{self.function}:{self.loop.header}"

    @property
    def depth(self) -> int:
        depth, cur = 0, self.parent
        while cur is not None:
            depth += 1
            cur = cur.parent
        return depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region({self.name}, trip={self.trip_count:.1f})"


class RegionGraph:
    """All regions of a program, linked outer->inner and caller->callee."""

    def __init__(self, program: Program, callgraph: CallGraph,
                 block_freq: Optional[Dict[str, Dict[str, int]]] = None):
        """``block_freq`` maps function -> {block label -> execution count}
        (from the block profile)."""
        self.program = program
        self.callgraph = callgraph
        self.cfgs: Dict[str, CFG] = {}
        self.proc_region: Dict[str, Region] = {}
        self.loops: Dict[str, List[Loop]] = {}
        self._loop_region: Dict[str, Dict[str, Region]] = {}
        self.regions: List[Region] = []
        block_freq = block_freq or {}

        for name, func in program.functions.items():
            if not func.blocks:
                continue
            cfg = CFG(func)
            self.cfgs[name] = cfg
            proc = Region(PROCEDURE, name, set(cfg.labels))
            self.proc_region[name] = proc
            self.regions.append(proc)
            loops = find_loops(cfg, dominator_tree(cfg))
            self.loops[name] = loops
            per_header: Dict[str, Region] = {}
            for loop in loops:
                region = Region(LOOP, name, set(loop.body), loop)
                per_header[loop.header] = region
                self.regions.append(region)
            self._loop_region[name] = per_header
            # Link the scope hierarchy inside the function.
            for loop in loops:
                region = per_header[loop.header]
                if loop.parent is not None:
                    region.parent = per_header[loop.parent.header]
                else:
                    region.parent = proc
                region.parent.children.append(region)
            self._estimate_trip_counts(name, cfg, block_freq.get(name, {}))

    def _estimate_trip_counts(self, name: str, cfg: CFG,
                              freq: Dict[str, int]) -> None:
        for loop in self.loops[name]:
            region = self._loop_region[name][loop.header]
            header_count = freq.get(loop.header, 0)
            entry_count = 0
            for pred in cfg.predecessors(loop.header):
                if pred not in loop.body:
                    entry_count += freq.get(pred, 0)
            region.entries = entry_count
            if header_count and entry_count:
                region.trip_count = header_count / entry_count
            elif header_count:
                region.trip_count = float(header_count)
            else:
                # No profile: estimate (the paper: "the trip counts are
                # derived from block profiling if available; otherwise,
                # they are estimated").
                region.trip_count = 100.0

    # -- lookup ---------------------------------------------------------------------

    def region_of_block(self, function: str, label: str) -> Region:
        """Innermost region containing block ``label``."""
        loops = self.loops.get(function, [])
        loop = innermost_loop(loops, label)
        if loop is not None:
            return self._loop_region[function][loop.header]
        return self.proc_region[function]

    def instructions_in(self, region: Region) -> List[Instruction]:
        func = self.program.function(region.function)
        out: List[Instruction] = []
        for block in func.blocks:
            if block.label in region.blocks:
                out.extend(block.instrs)
        return out

    def outward_chain(self, region: Region) -> Iterable[Region]:
        """The region and its enclosing scopes, innermost first, extended
        through call sites into callers (the order region-based slicing
        grows the slack, Section 3.1.1)."""
        cur: Optional[Region] = region
        while cur is not None:
            yield cur
            if cur.parent is not None:
                cur = cur.parent
                continue
            # Procedure region: continue in the (unique, non-recursive)
            # caller's innermost region around the call site.
            callers = self.callgraph.callers(cur.function)
            if len(callers) != 1:
                return
            (caller,) = callers
            if self.callgraph.is_recursive(cur.function) or \
                    caller == cur.function:
                return
            sites = self.callgraph.call_sites_of(caller, cur.function)
            if len(sites) != 1:
                return
            func = self.program.function(caller)
            site_block = None
            for block in func.blocks:
                for ins in block.instrs:
                    if ins.uid == sites[0].uid:
                        site_block = block.label
                        break
            if site_block is None:
                return
            cur = self.region_of_block(caller, site_block)
