"""Architectural (functional) semantics shared by all execution engines.

A :class:`ThreadState` is one hardware thread context's architectural state.
:func:`execute` steps one instruction functionally and reports what happened
in an :class:`ExecResult`; it is the ISA reference that the test suite's
Instruction-object loops (``tests/sim_reference.py``) step through.
:func:`repro.isa.decode.step_decoded` is its mirror over a pre-decoded
table, and every production engine steps through that instead: both
simulators' run loops, the :class:`FunctionalInterpreter` below and the
post-pass tool's shadow interpreter (``repro.codegen.verify``).  The two
definitions of what each opcode *does* are held equal by
``tests/test_sim_fastpath.py`` (simulators) and
``tests/test_isa_decoded_interp.py`` (interpreters).

Speculative threads never modify the main thread's architectural state: they
have their own :class:`ThreadState`, may not execute stores (the emitter
guarantees it; :func:`execute` enforces it), and loads of garbage addresses
return 0 instead of faulting — the deferred-exception behaviour the paper
relies on ("the SSP paradigm does not require p-slice computation to satisfy
the correctness constraints").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .instructions import Instruction
from .memory import Heap
from .program import Program
from . import registers as regs


class ExecutionError(Exception):
    """Raised for run-time errors in the *main* thread (bad address, etc.)."""


_RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_ALU: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
}

#: Number of live-in buffer slots per spawn site (the RSE backing-store
#: region is small; Table 2 shows slices need < 8 live-ins).
LIB_SLOTS = 16


class ThreadState:
    """Architectural state of one hardware thread context."""

    __slots__ = ("tid", "pc", "regs", "preds", "call_stack", "rfi_stack",
                 "lib_out", "lib_in", "speculative", "halted", "killed")

    def __init__(self, tid: int, pc: int, speculative: bool = False):
        self.tid = tid
        self.pc = pc
        self.regs: Dict[str, int] = {regs.ZERO: 0}
        self.preds: Dict[str, bool] = {regs.TRUE_PREDICATE: True}
        # Each frame is (return_pc, saved_regs) — a register-stack window.
        self.call_stack: List[tuple] = []
        self.rfi_stack: List[int] = []
        # Staging buffer this thread writes live-ins into before a spawn.
        self.lib_out: List[int] = [0] * LIB_SLOTS
        # Snapshot of the parent's lib_out taken at spawn time.
        self.lib_in: List[int] = [0] * LIB_SLOTS
        self.speculative = speculative
        self.halted = False
        self.killed = False

    @property
    def done(self) -> bool:
        return self.halted or self.killed

    def read(self, reg: str) -> int:
        return self.regs.get(reg, 0)


class ExecResult:
    """What one functional step did (consumed by the timing layer)."""

    __slots__ = ("next_pc", "mem_addr", "taken", "spawn_target", "executed",
                 "chk_taken")

    def __init__(self, next_pc: int, mem_addr: Optional[int] = None,
                 taken: Optional[bool] = None,
                 spawn_target: Optional[int] = None,
                 executed: bool = True, chk_taken: bool = False):
        self.next_pc = next_pc
        self.mem_addr = mem_addr
        self.taken = taken
        self.spawn_target = spawn_target
        self.executed = executed
        self.chk_taken = chk_taken


def execute(program: Program, heap: Heap, state: ThreadState,
            instr: Instruction, chk_fires: bool = False) -> ExecResult:
    """Execute ``instr`` architecturally on ``state``.

    ``chk_fires`` tells a ``chk.c`` whether a free hardware context is
    available (the timing model's decision); when false the check behaves
    like a nop, per Section 3.4.2.
    """
    pc = state.pc
    op = instr.op

    # Predication: a false qualifying predicate squashes the instruction.
    if instr.pred is not None and not state.preds.get(instr.pred, False):
        state.pc = pc + 1
        return ExecResult(pc + 1, executed=False)

    rd = state.regs

    if op in _ALU:
        a = rd.get(instr.srcs[0], 0)
        b = rd.get(instr.srcs[1], 0) if len(instr.srcs) > 1 else instr.imm
        rd[instr.dest] = _ALU[op](a, b)
        if instr.dest == regs.ZERO:
            rd[regs.ZERO] = 0
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "mov":
        rd[instr.dest] = rd.get(instr.srcs[0], 0) if instr.srcs else instr.imm
        if instr.dest == regs.ZERO:
            rd[regs.ZERO] = 0
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "ld":
        addr = rd.get(instr.srcs[0], 0) + (instr.imm or 0)
        if heap.valid(addr):
            rd[instr.dest] = heap.load(addr)
        elif state.speculative:
            rd[instr.dest] = 0     # deferred exception: NaT-like zero
            addr = None            # no memory access is made
        else:
            raise ExecutionError(
                f"bad load address {addr:#x} at pc {pc} ({instr})")
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "st":
        if state.speculative:
            raise ExecutionError(
                "speculative thread attempted a store — the emitter must "
                f"never place stores in p-slices ({instr} at pc {pc})")
        addr = rd.get(instr.srcs[0], 0) + (instr.imm or 0)
        if not heap.valid(addr):
            raise ExecutionError(
                f"bad store address {addr:#x} at pc {pc} ({instr})")
        heap.store(addr, rd.get(instr.srcs[1], 0))
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "lfetch":
        addr = rd.get(instr.srcs[0], 0) + (instr.imm or 0)
        if not heap.valid(addr):
            addr = None            # non-faulting prefetch: dropped
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "cmp":
        a = rd.get(instr.srcs[0], 0)
        b = rd.get(instr.srcs[1], 0) if len(instr.srcs) > 1 else instr.imm
        state.preds[instr.dest] = _RELATIONS[instr.relation](a, b)
        if instr.dest == regs.TRUE_PREDICATE:
            state.preds[regs.TRUE_PREDICATE] = True
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "br":
        target = program.branch_target[pc]
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.cond":
        taken = state.preds.get(instr.pred, False) if instr.pred else True
        target = program.branch_target[pc] if taken else pc + 1
        state.pc = target
        return ExecResult(target, taken=taken)

    if op == "br.call":
        target = program.branch_target[pc]
        state.call_stack.append((pc + 1, dict(rd)))
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.call.ind":
        fid = rd.get(instr.srcs[0], 0)
        if not 0 <= fid < len(program.function_by_id):
            if state.speculative:
                state.killed = True
                return ExecResult(pc, executed=False)
            raise ExecutionError(f"bad indirect call target {fid} at pc {pc}")
        target = program.function_entry[program.function_by_id[fid]]
        state.call_stack.append((pc + 1, dict(rd)))
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.ret":
        if not state.call_stack:
            # Returning from the outermost frame ends the thread.
            state.halted = True
            return ExecResult(pc, taken=True)
        ret_pc, saved = state.call_stack.pop()
        ret_val = rd.get(regs.RET_VALUE, 0)
        state.regs = saved
        state.regs[regs.RET_VALUE] = ret_val
        state.pc = ret_pc
        return ExecResult(ret_pc, taken=True)

    if op == "chk.c":
        if chk_fires:
            # Lightweight exception: divert to the recovery stub, remember
            # where to resume.
            target = program.branch_target[pc]
            state.rfi_stack.append(pc + 1)
            state.pc = target
            return ExecResult(target, taken=True, chk_taken=True)
        state.pc = pc + 1
        return ExecResult(pc + 1, taken=False)

    if op == "rfi":
        if not state.rfi_stack:
            raise ExecutionError(f"rfi with no pending recovery at pc {pc}")
        target = state.rfi_stack.pop()
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "spawn":
        target = program.branch_target[pc]
        state.pc = pc + 1
        return ExecResult(pc + 1, spawn_target=target)

    if op == "lib.st":
        state.lib_out[instr.imm] = rd.get(instr.srcs[0], 0)
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "lib.ld":
        rd[instr.dest] = state.lib_in[instr.imm]
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "kill":
        state.killed = True
        return ExecResult(pc)

    if op == "halt":
        state.halted = True
        return ExecResult(pc)

    if op == "nop":
        state.pc = pc + 1
        return ExecResult(pc + 1)

    raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover


def spawn_thread(parent: ThreadState, tid: int, target_pc: int) -> ThreadState:
    """Create a speculative thread context started by ``parent``.

    The child receives a *snapshot* of the parent's live-in staging buffer —
    the values the parent's stub code copied there — modelling the on-chip
    RSE backing-store buffer of Section 2.1, which "eliminat[es] the
    possibility of inter-thread hazards where a register may be overwritten
    before a child thread has read it".
    """
    child = ThreadState(tid, target_pc, speculative=True)
    child.lib_in = list(parent.lib_out)
    return child


class FunctionalInterpreter:
    """Timing-free whole-program execution.

    The oracle of :mod:`repro.check` and the tests: workload unit tests
    validate program semantics with it, and the in-order simulator's
    execution profile (what ``collect_profile`` reads) is held equal to
    its ``exec_counts`` and ``indirect_targets``.  Steps the pre-decoded
    table (:mod:`repro.isa.decode`).  Runs a single thread; ``chk.c``
    never fires and ``spawn`` is ignored (a spawn with no free context is
    dropped, and functionally a p-slice has no architectural effect
    anyway).
    """

    def __init__(self, program: Program, heap: Heap,
                 max_steps: int = 50_000_000):
        if not program.finalized:
            program.finalize()
        self.program = program
        self.heap = heap
        self.max_steps = max_steps
        self.exec_counts: Dict[int, int] = {}
        self.indirect_targets: Dict[int, Dict[str, int]] = {}
        self.steps = 0

    def run(self, count: bool = True) -> ThreadState:
        """Run from the program entry until halt; returns the final state."""
        # Imported here: repro.isa.decode builds on this module.
        from .decode import D_KIND, D_SRC0, D_UID, K_CALLI, \
            decode_program, step_decoded
        program = self.program
        dcode = decode_program(program)
        heap = self.heap
        state = ThreadState(tid=0,
                            pc=program.function_entry[program.entry])
        counts = self.exec_counts
        max_steps = self.max_steps
        steps = 0
        while not (state.halted or state.killed):
            if steps >= max_steps:
                raise ExecutionError(
                    f"exceeded {max_steps} steps; infinite loop?")
            d = dcode[state.pc]
            if count:
                uid = d[D_UID]
                counts[uid] = counts.get(uid, 0) + 1
            if d[D_KIND] == K_CALLI:
                fid = state.regs.get(d[D_SRC0], 0)
                if 0 <= fid < len(program.function_by_id):
                    per_site = self.indirect_targets.setdefault(
                        d[D_UID], {})
                    name = program.function_by_id[fid]
                    per_site[name] = per_site.get(name, 0) + 1
            step_decoded(program, heap, state, d)
            steps += 1
        self.steps += steps
        return state
