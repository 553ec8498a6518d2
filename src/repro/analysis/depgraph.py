"""The latency-annotated dependence graph of a function.

Section 3.2: "the scheduling algorithm requires latency information in
combination with the dependence graph.  The latency of a memory operation is
determined by cache profiling, and the machine model provides latency
estimates for other instructions.  The latency information is annotated on
a dependence graph edge."

Edge kinds:

* ``flow`` — true register dependence (def -> use), from the reaching-defs
  solution.  ``loop_carried`` is set when the def sits at or after the use
  in layout order (the dependence wraps around a back edge).
* ``anti`` / ``output`` — false dependences, recorded *intra-iteration
  only*: the slicer and the chaining scheduler both ignore loop-carried
  false dependences (Sections 3.1 and 3.2.1.1), and across chained threads
  they are void anyway because every speculative thread has a private
  register file.
* ``control`` — instruction -> controlling conditional branch, from the
  post-dominance-frontier control-dependence analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..isa import registers as regs
from ..isa.instructions import Instruction
from ..isa.program import Function
from .cfg import CFG
from .dataflow import FunctionDataflow, instruction_defs, instruction_uses
from .dominance import control_dependences

FLOW, ANTI, OUTPUT, CONTROL = "flow", "anti", "output", "control"


class DepEdge:
    """A dependence edge ``src`` -> ``dst`` (dst depends on src)."""

    __slots__ = ("src", "dst", "kind", "loop_carried", "latency")

    def __init__(self, src: int, dst: int, kind: str,
                 loop_carried: bool = False, latency: int = 1):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.loop_carried = loop_carried
        self.latency = latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lc = " carried" if self.loop_carried else ""
        return f"DepEdge({self.src}->{self.dst} {self.kind}{lc} " \
               f"lat={self.latency})"


class DependenceGraph:
    """Dependence graph over one function's instructions (keyed by uid)."""

    def __init__(self, func: Function, cfg: CFG,
                 load_latency: Optional[Dict[int, float]] = None,
                 l1_latency: int = 2):
        self.func = func
        self.cfg = cfg
        self.dataflow = FunctionDataflow(func, cfg)
        self.instr_of: Dict[int, Instruction] = {
            ins.uid: ins for ins in self.dataflow.instrs}
        self.position = self.dataflow.position
        self.block_of = self.dataflow.block_of
        self._load_latency = load_latency or {}
        self._l1_latency = l1_latency
        self.out_edges: Dict[int, List[DepEdge]] = {
            uid: [] for uid in self.instr_of}
        self.in_edges: Dict[int, List[DepEdge]] = {
            uid: [] for uid in self.instr_of}
        self._build_flow_edges()
        self._build_false_edges()
        self._build_control_edges()
        self._height_cache: Dict[int, int] = {}

    # -- latency model -----------------------------------------------------------------

    def latency(self, uid: int) -> int:
        """Estimated latency of an instruction (profiled for loads)."""
        instr = self.instr_of[uid]
        if instr.op == "ld":
            profiled = self._load_latency.get(uid)
            if profiled is not None:
                return max(self._l1_latency, int(round(profiled)))
            return self._l1_latency
        return instr.fixed_latency()

    # -- construction --------------------------------------------------------------------

    def _add(self, edge: DepEdge) -> None:
        self.out_edges[edge.src].append(edge)
        self.in_edges[edge.dst].append(edge)

    def _build_flow_edges(self) -> None:
        position = self.position
        for (use_uid, reg), defs in self.dataflow.use_defs.items():
            for def_uid in defs:
                carried = position[def_uid] >= position[use_uid]
                self._add(DepEdge(def_uid, use_uid, FLOW, carried,
                                  self.latency(def_uid)))

    def _build_false_edges(self) -> None:
        """Intra-iteration anti/output dependences (positional, forward)."""
        last_def: Dict[str, int] = {}
        last_uses: Dict[str, List[int]] = {}
        for ins in self.dataflow.instrs:
            for reg in instruction_uses(ins, self.func):
                if reg in (regs.ZERO, regs.TRUE_PREDICATE):
                    continue
                last_uses.setdefault(reg, []).append(ins.uid)
            for reg in instruction_defs(ins):
                if reg == regs.ZERO:
                    continue
                for use_uid in last_uses.get(reg, []):
                    if use_uid != ins.uid:
                        self._add(DepEdge(use_uid, ins.uid, ANTI, False, 0))
                last_uses[reg] = []
                if reg in last_def and last_def[reg] != ins.uid:
                    self._add(DepEdge(last_def[reg], ins.uid, OUTPUT,
                                      False, 0))
                last_def[reg] = ins.uid

    def _build_control_edges(self) -> None:
        cdeps = control_dependences(self.cfg)
        terminator_of: Dict[str, Optional[int]] = {}
        for block in self.func.blocks:
            term = None
            if block.instrs and block.instrs[-1].op == "br.cond":
                term = block.instrs[-1].uid
            terminator_of[block.label] = term
        for block in self.func.blocks:
            controllers = cdeps.get(block.label, set())
            for ctrl_label in controllers:
                branch_uid = terminator_of.get(ctrl_label)
                if branch_uid is None:
                    continue
                for ins in block.instrs:
                    if ins.uid == branch_uid:
                        continue
                    carried = (self.position[branch_uid]
                               >= self.position[ins.uid])
                    self._add(DepEdge(branch_uid, ins.uid, CONTROL, carried,
                                      self.latency(branch_uid)))

    # -- queries ------------------------------------------------------------------------

    def preds(self, uid: int, kinds: Optional[Set[str]] = None,
              include_carried: bool = True) -> Iterable[DepEdge]:
        for edge in self.in_edges.get(uid, []):
            if kinds is not None and edge.kind not in kinds:
                continue
            if not include_carried and edge.loop_carried:
                continue
            yield edge

    def succs(self, uid: int, kinds: Optional[Set[str]] = None,
              include_carried: bool = True) -> Iterable[DepEdge]:
        for edge in self.out_edges.get(uid, []):
            if kinds is not None and edge.kind not in kinds:
                continue
            if not include_carried and edge.loop_carried:
                continue
            yield edge

    # -- dependence height (Section 3.2.1.2.2) ---------------------------------------------

    def height(self, uid: int, within: Optional[Set[int]] = None) -> int:
        """Max latency-weighted path length from ``uid`` downward.

        Loop-carried edges are excluded (heights are per-iteration).  When
        ``within`` is given, only nodes in that set participate.
        """
        return self._height(uid, within,
                            self._height_cache if within is None else {})

    def heights(self, uids: Iterable[int],
                within: Optional[Set[int]] = None) -> Dict[int, int]:
        """``height(u, within)`` of every node in ``uids``.

        One memo serves them all: a node's height depends only on the
        graph and ``within``, so each node is walked once, not once per
        node above it.
        """
        memo: Dict[int, int] = self._height_cache if within is None else {}
        return {u: self._height(u, within, memo) for u in uids}

    def max_height(self, uids: Iterable[int],
                   within: Optional[Set[int]] = None) -> int:
        """``height(region_or_slice)`` = max node height (Section 3.2.1.2.2)."""
        return max(self.heights(uids, within).values(), default=0)

    def _height(self, uid: int, within: Optional[Set[int]],
                memo: Dict[int, int]) -> int:
        """``height(uid, within)`` by iterative DFS, memoised in ``memo``
        (which must hold only heights under the same ``within``)."""
        if uid in memo:
            return memo[uid]
        stack = [(uid, False)]
        while stack:
            node, expanded = stack.pop()
            if node in memo:
                continue
            if expanded:
                best = self.latency(node)
                for edge in self.out_edges.get(node, []):
                    if edge.loop_carried or edge.kind in (ANTI, OUTPUT):
                        continue
                    if within is not None and edge.dst not in within:
                        continue
                    child = memo.get(edge.dst, 0) + self.latency(node)
                    if child > best:
                        best = child
                memo[node] = best
            else:
                stack.append((node, True))
                for edge in self.out_edges.get(node, []):
                    if edge.loop_carried or edge.kind in (ANTI, OUTPUT):
                        continue
                    if within is not None and edge.dst not in within:
                        continue
                    if edge.dst not in memo:
                        stack.append((edge.dst, False))
        return memo.get(uid, self.latency(uid))

    def available_ilp(self, uids: Set[int]) -> float:
        """Sum of latencies / critical path (Cooper's available-ILP metric,
        Section 3.2.1.2.2)."""
        total = sum(self.latency(u) for u in uids)
        critical = self.max_height(uids, within=uids)
        return total / critical if critical else 1.0
