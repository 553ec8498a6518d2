"""Register dataflow: reaching definitions, def-use chains, liveness.

Instruction-granular, per function.  Calls are modelled with their implicit
register effects: a call *uses* the outgoing-argument registers and
*defines* the return-value register, so dependences flow correctly through
call boundaries without interprocedural analysis (that part is the slicer's
job).

Bitsets are plain Python ints, which keeps the iterative solvers fast for
the function sizes the post-pass tool sees.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..isa import registers as regs
from ..isa.instructions import Instruction
from ..isa.program import Function
from .cfg import CFG, EXIT


def instruction_uses(instr: Instruction, func: Function) -> Tuple[str, ...]:
    """Registers read, including implicit call/ret conventions."""
    if instr.op == "br.call":
        n = _callee_arity(instr, func)
        return tuple(regs.arg_register(i) for i in range(n))
    if instr.op == "br.call.ind":
        return instr.reads + tuple(
            regs.arg_register(i) for i in range(regs.MAX_ARGS))
    if instr.op == "br.ret":
        return (regs.RET_VALUE,)
    return instr.reads


def _callee_arity(instr: Instruction, func: Function) -> int:
    # The caller's Function has no link to the program; assume the full
    # window unless a num_params annotation travels on the instruction.
    return regs.MAX_ARGS


def instruction_defs(instr: Instruction) -> Tuple[str, ...]:
    """Registers written, including the implicit call return value."""
    if instr.op in ("br.call", "br.call.ind"):
        return (regs.RET_VALUE,)
    return instr.writes


class FunctionDataflow:
    """Reaching definitions and def-use chains for one function."""

    def __init__(self, func: Function, cfg: CFG):
        self.func = func
        self.cfg = cfg
        #: All instructions in layout order.
        self.instrs: List[Instruction] = list(func.instructions())
        self.position: Dict[int, int] = {
            ins.uid: i for i, ins in enumerate(self.instrs)}
        self.block_of: Dict[int, str] = {}
        for block in func.blocks:
            for ins in block.instrs:
                self.block_of[ins.uid] = block.label
        self._defs_by_reg: Dict[str, List[int]] = {}
        self._def_index: Dict[int, int] = {}  # position -> global def id
        self._def_positions: List[int] = []
        for i, ins in enumerate(self.instrs):
            for reg in instruction_defs(ins):
                if reg == regs.ZERO:
                    continue
                self._def_index[i] = len(self._def_positions)
                self._def_positions.append(i)
                self._defs_by_reg.setdefault(reg, []).append(i)
        self._solve_reaching()
        self._build_du_chains()

    # -- reaching definitions ------------------------------------------------------

    def _solve_reaching(self) -> None:
        func, cfg = self.func, self.cfg
        # Per block: gen/kill bitsets over def ids.
        reg_mask: Dict[str, int] = {}
        for reg, positions in self._defs_by_reg.items():
            mask = 0
            for pos in positions:
                mask |= 1 << self._def_index[pos]
            reg_mask[reg] = mask

        gen: Dict[str, int] = {}
        kill: Dict[str, int] = {}
        offset = 0
        block_start: Dict[str, int] = {}
        for block in func.blocks:
            block_start[block.label] = offset
            g = k = 0
            for j, ins in enumerate(block.instrs):
                for reg in instruction_defs(ins):
                    if reg == regs.ZERO:
                        continue
                    did = self._def_index[offset + j]
                    k |= reg_mask[reg]
                    g = (g & ~reg_mask[reg]) | (1 << did)
            gen[block.label], kill[block.label] = g, k
            offset += len(block.instrs)
        self._block_start = block_start

        live_in: Dict[str, int] = {label: 0 for label in cfg.labels}
        changed = True
        order = [l for l in cfg.reverse_postorder() if l != EXIT]
        while changed:
            changed = False
            for label in order:
                in_set = 0
                for pred in cfg.predecessors(label):
                    if pred == EXIT:
                        continue
                    in_set |= (live_in[pred] & ~kill[pred]) | gen[pred]
                if in_set != live_in[label]:
                    live_in[label] = in_set
                    changed = True
        self._reach_in = live_in

    # -- def-use chains ---------------------------------------------------------------

    def _build_du_chains(self) -> None:
        """use (uid, reg) -> set of defining instruction uids."""
        self.use_defs: Dict[Tuple[int, str], Set[int]] = {}
        func = self.func
        for block in func.blocks:
            start = self._block_start[block.label]
            current: Dict[str, int] = {}  # reg -> def position in block
            reaching = self._reach_in.get(block.label, 0)
            for j, ins in enumerate(block.instrs):
                pos = start + j
                for reg in instruction_uses(ins, func):
                    if reg in (regs.ZERO, regs.TRUE_PREDICATE):
                        continue
                    defs: Set[int] = set()
                    if reg in current:
                        defs.add(self.instrs[current[reg]].uid)
                    else:
                        for dpos in self._defs_by_reg.get(reg, []):
                            if reaching >> self._def_index[dpos] & 1:
                                defs.add(self.instrs[dpos].uid)
                    if defs:
                        self.use_defs[(ins.uid, reg)] = defs
                for reg in instruction_defs(ins):
                    if reg == regs.ZERO:
                        continue
                    current[reg] = pos

    def defs_reaching_use(self, uid: int, reg: str) -> Set[int]:
        return self.use_defs.get((uid, reg), set())


def block_liveness(func: Function, cfg: CFG) -> Tuple[Dict[str, Set[str]],
                                                      Dict[str, Set[str]]]:
    """(live_in, live_out) register sets per basic block."""
    use: Dict[str, Set[str]] = {}
    defined: Dict[str, Set[str]] = {}
    for block in func.blocks:
        u: Set[str] = set()
        d: Set[str] = set()
        for ins in block.instrs:
            for reg in instruction_uses(ins, func):
                if reg not in d and reg not in (regs.ZERO,
                                                regs.TRUE_PREDICATE):
                    u.add(reg)
            for reg in instruction_defs(ins):
                d.add(reg)
        use[block.label], defined[block.label] = u, d

    live_in: Dict[str, Set[str]] = {l: set() for l in cfg.labels}
    live_out: Dict[str, Set[str]] = {l: set() for l in cfg.labels}
    changed = True
    while changed:
        changed = False
        for label in reversed(cfg.reverse_postorder()):
            if label == EXIT:
                continue
            out: Set[str] = set()
            for succ in cfg.successors(label):
                if succ != EXIT:
                    out |= live_in[succ]
            new_in = use[label] | (out - defined[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out
