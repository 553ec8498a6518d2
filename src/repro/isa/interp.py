"""Architectural state of a thread, and the functional interpreter.

A :class:`ThreadState` is one hardware thread context's architectural state.
What each opcode *does* to it is defined once, by
:func:`repro.isa.decode.step_decoded` over a pre-decoded table, and every
engine steps through that: both simulators' run loops, the
:class:`FunctionalInterpreter` below and the post-pass tool's shadow
interpreter (``repro.codegen.verify``).  The test suite keeps an
independent Instruction-object statement of the same semantics
(``execute`` in ``tests/sim_reference.py``) as the oracle the decoded step
is held equal to (``tests/test_sim_fastpath.py`` for the simulators,
``tests/test_isa_decoded_interp.py`` for the interpreters).

Speculative threads never modify the main thread's architectural state: they
have their own :class:`ThreadState`, may not execute stores (the emitter
guarantees it; the step enforces it), and loads of garbage addresses
return 0 instead of faulting — the deferred-exception behaviour the paper
relies on ("the SSP paradigm does not require p-slice computation to satisfy
the correctness constraints").
"""

from __future__ import annotations

from typing import Dict, List

from .memory import Heap
from .program import Program
from . import registers as regs


class ExecutionError(Exception):
    """Raised for run-time errors in the *main* thread (bad address, etc.)."""


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
        from .decode import D_KIND, D_SRC0, D_UID, K_CALLI, R_EXECUTED, \
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
            if d[D_KIND] != K_CALLI:
                step_decoded(program, heap, state, d)
                steps += 1
                continue
            # The target is read before the call, recorded only if the
            # call happened (a false predicate squashes it).
            fid = state.regs.get(d[D_SRC0], 0)
            executed = step_decoded(program, heap, state, d)[R_EXECUTED]
            steps += 1
            if executed and 0 <= fid < len(program.function_by_id):
                per_site = self.indirect_targets.setdefault(d[D_UID], {})
                name = program.function_by_id[fid]
                per_site[name] = per_site.get(name, 0) + 1
        self.steps += steps
        return state
