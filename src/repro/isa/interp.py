"""Architectural state of a thread, and the functional interpreter.

A :class:`ThreadState` is one hardware thread context's architectural state:
its integer and predicate registers are lists indexed by the dense slots a
program's :class:`RegisterSlots` gives each register name.  What each
opcode *does* to that state is defined once, by the step closures
:func:`repro.isa.decode.decode_program` builds, and every engine steps
through them: both simulators' run loops, the :class:`FunctionalInterpreter`
below and the post-pass tool's shadow interpreter
(``repro.codegen.verify``).  The test suite keeps an independent
Instruction-object statement of the same semantics (``execute`` in
``tests/sim_reference.py``) as the oracle the closures are held equal to
(``tests/test_isa_step_closures.py`` kind by kind,
``tests/test_sim_fastpath.py`` for the simulators and
``tests/test_isa_decoded_interp.py`` for the interpreters).

Speculative threads never modify the main thread's architectural state: they
have their own :class:`ThreadState`, may not execute stores (the emitter
guarantees it; the step enforces it), and loads of garbage addresses
return 0 instead of faulting — the deferred-exception behaviour the paper
relies on ("the SSP paradigm does not require p-slice computation to satisfy
the correctness constraints").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .memory import Heap
from .program import Program
from .registers import LIB_SLOTS, RET_VALUE, TRUE_PREDICATE, ZERO


class ExecutionError(Exception):
    """Raised for run-time errors in the *main* thread (bad address, etc.)."""


class RegisterSlots:
    """One program's register names as dense list slots.

    ``regs`` numbers the names used as integer registers and ``preds`` the
    names used as predicates; they index :attr:`ThreadState.regs` and
    :attr:`ThreadState.preds`.  ``r0`` is integer slot 0 (always 0), ``p0``
    predicate slot 0 (always true) and ``r8``, the return value a
    ``br.ret`` carries, integer slot 1.  Each list has one more slot past
    the named ones, the sink that writes to ``r0`` and ``p0`` land in, so
    the hard-wired slot 0 is never written.  ``board`` numbers every name,
    integer or predicate, for the timing models' scoreboards.
    """

    __slots__ = ("regs", "preds", "board")

    def __init__(self, reg_names: Iterable[str] = (),
                 pred_names: Iterable[str] = ()):
        self.regs: Dict[str, int] = {ZERO: 0, RET_VALUE: 1}
        for name in reg_names:
            self.regs.setdefault(name, len(self.regs))
        self.preds: Dict[str, int] = {TRUE_PREDICATE: 0}
        for name in pred_names:
            self.preds.setdefault(name, len(self.preds))
        self.board: Dict[str, int] = dict(self.regs)
        for name in self.preds:
            self.board.setdefault(name, len(self.board))


#: The slots of a state built without a program: ``r0``, ``r8``, ``p0``.
_NO_PROGRAM = RegisterSlots()


class ThreadState:
    """Architectural state of one hardware thread context."""

    __slots__ = ("tid", "pc", "regs", "preds", "call_stack", "rfi_stack",
                 "lib_out", "lib_in", "speculative", "halted", "killed",
                 "slots")

    def __init__(self, tid: int, pc: int, speculative: bool = False,
                 lib_in: Optional[List[int]] = None,
                 slots: RegisterSlots = _NO_PROGRAM):
        self.tid = tid
        self.pc = pc
        #: The program's name -> slot view of ``regs`` and ``preds``.
        self.slots = slots
        self.regs: List[int] = [0] * (len(slots.regs) + 1)
        self.preds: List[bool] = [False] * (len(slots.preds) + 1)
        self.preds[0] = True
        # Each frame is (return_pc, saved_regs) — a register-stack window.
        self.call_stack: List[tuple] = []
        self.rfi_stack: List[int] = []
        # Staging buffer this thread writes live-ins into before a spawn.
        self.lib_out: List[int] = [0] * LIB_SLOTS
        # Snapshot of the parent's lib_out taken at spawn time.
        self.lib_in: List[int] = (lib_in if lib_in is not None
                                  else [0] * LIB_SLOTS)
        self.speculative = speculative
        self.halted = False
        self.killed = False

    @property
    def done(self) -> bool:
        return self.halted or self.killed

    def read(self, reg: str) -> int:
        """The value of integer register ``reg`` (0 if the program never
        names it)."""
        slot = self.slots.regs.get(reg)
        return 0 if slot is None else self.regs[slot]

    def named(self) -> Dict[str, Dict]:
        """The non-zero integer registers and the true predicates, by
        name."""
        regs, preds = self.regs, self.preds
        return {
            "regs": {r: regs[i] for r, i in self.slots.regs.items()
                     if regs[i] != 0},
            "preds": {p: preds[i] for p, i in self.slots.preds.items()
                      if preds[i]},
        }


def spawn_thread(parent: ThreadState, tid: int, target_pc: int) -> ThreadState:
    """Create a speculative thread context started by ``parent``.

    The child receives a *snapshot* of the parent's live-in staging buffer —
    the values the parent's stub code copied there — modelling the on-chip
    RSE backing-store buffer of Section 2.1, which "eliminat[es] the
    possibility of inter-thread hazards where a register may be overwritten
    before a child thread has read it".
    """
    return ThreadState(tid, target_pc, True, list(parent.lib_out),
                       parent.slots)


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
        from .decode import D_KIND, D_SRC0, D_STEP, D_UID, K_CALLI, \
            decode_program
        program = self.program
        decoded = decode_program(program)
        dcode = decoded.table
        heap = self.heap
        state = ThreadState(0, program.function_entry[program.entry],
                            slots=decoded.slots)
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
                d[D_STEP](state, heap, False)
                steps += 1
                continue
            # The target is read before the call, recorded only if the
            # call happened (a false predicate squashes it).
            fid = state.regs[d[D_SRC0]]
            executed = d[D_STEP](state, heap, False)
            steps += 1
            if executed and 0 <= fid < len(program.function_by_id):
                per_site = self.indirect_targets.setdefault(d[D_UID], {})
                name = program.function_by_id[fid]
                per_site[name] = per_site.get(name, 0) + 1
        self.steps += steps
        return state
