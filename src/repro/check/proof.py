"""Static proof that an adapted binary passes the differential check.

:func:`~repro.codegen.verify.differential_check` decides equivalence by
execution: it runs the adapted binary with every ``chk.c`` forced to
fire, every spawned thread run to completion, and compares the outcome
with the original's recorded run.  In the manner of weakest-precondition
reasoning over speculative data flow, :func:`prove_equivalent` derives
that verdict without running anything.  If

* the adapted main thread steps exactly the original's instructions,
  plus triggers and stubs that write no architectural state, and
* no code a speculative thread can reach stores or raises,

then the shadow run's main thread repeats the recorded run: same
registers, same predicates, same final heap.  The proof is
accept-only: it returns the first obligation it could not discharge,
and the caller then runs the differential check as before.

Obligations, in order:

1. ``verify`` — the linked code the shadow run would step is the
   blocks' (the binary was finalised after its last edit);
2. ``lint`` — :func:`~repro.check.lint.lint_program` reports nothing.
   Among its rules: every stub is ``lib.st* ; spawn ; rfi`` and so
   writes no register, and ``trig.main-code-preserved`` holds — the
   entry and the function table are the original's, every original
   function keeps its main-code blocks in order, and each main-code
   block is the original's with only ``chk.c`` added and ``nop``
   removed, compared by uid and by content (op, operands, predicate,
   target, relation);
3. ``speculative`` — stub instructions are unpredicated with live-in
   slots inside the buffer, and no instruction a spawned thread can
   reach is a store, an ``rfi`` or a ``br.call.ind``, shifts by a
   register or by an amount outside 0..63, names a live-in slot outside
   the buffer, or falls off the end of the code — everything else a
   speculative thread does is contained silently by the shadow
   interpreter;
4. ``reference`` — the profile recorded a run of this very binary, the
   adapted main thread provably fits the shadow run's step limit, and
   the verify heap is the recorded run's initial heap.

The last obligation builds one heap, as the differential check does
first; it is tried only after the static ones hold.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..codegen.verify import FIRE_LIMIT, MAX_SHADOW_STEPS
from ..isa.instructions import (
    OP_BR,
    OP_BR_COND,
    OP_CALL,
    OP_CALL_INDIRECT,
    OP_CHK_C,
    OP_HALT,
    OP_KILL,
    OP_LIB_LD,
    OP_LIB_ST,
    OP_RET,
    OP_RFI,
    OP_SPAWN,
    OP_STORE,
    Instruction,
)
from ..isa.registers import LIB_SLOTS
from ..isa.memory import Heap
from ..isa.program import Program
from ..profiling.profile import ProgramProfile
from .lint import is_speculative, lint_program

#: Ops a speculative thread must never reach: a store raises, an ``rfi``
#: has no recovery to return to, and an indirect call can enter main
#: code that stores.
_SPEC_FORBIDDEN = frozenset({OP_STORE, OP_RFI, OP_CALL_INDIRECT})
_SHIFTS = frozenset({"shl", "shr"})
#: Ops after which control does not fall through to the next pc (when
#: unpredicated).
_NO_FALLTHROUGH = frozenset({OP_BR, OP_RET, OP_KILL, OP_HALT})


def _slot_ok(instr: Instruction) -> bool:
    return isinstance(instr.imm, int) and 0 <= instr.imm < LIB_SLOTS


def _speculation_contained(adapted: Program, main_chks: List[int]
                           ) -> Optional[str]:
    code = adapted.code
    targets = adapted.branch_target
    for chk in main_chks:
        pc = targets[chk]
        while code[pc].op != OP_RFI:
            instr = code[pc]
            if instr.pred is not None or (
                    instr.op == OP_LIB_ST and not _slot_ok(instr)):
                return f"stub instruction {instr} can misbehave"
            pc += 1
        if code[pc].pred is not None:
            return f"stub rfi {code[pc]} is predicated"
    work = [targets[pc] for pc, instr in enumerate(code)
            if instr.op == OP_SPAWN]
    seen: Set[int] = set()
    while work:
        pc = work.pop()
        if pc in seen:
            continue
        if pc >= len(code):
            return "speculative code falls off the end of the binary"
        seen.add(pc)
        instr = code[pc]
        op = instr.op
        if op in _SPEC_FORBIDDEN:
            return f"speculative code reaches {instr}"
        if op in _SHIFTS and (len(instr.srcs) > 1
                              or not isinstance(instr.imm, int)
                              or not 0 <= instr.imm < 64):
            return f"speculative shift {instr} can raise"
        if op in (OP_LIB_LD, OP_LIB_ST) and not _slot_ok(instr):
            return f"speculative live-in slot out of range: {instr}"
        if op in (OP_BR, OP_BR_COND, OP_CALL, OP_SPAWN):
            work.append(targets[pc])
        if op not in _NO_FALLTHROUGH or instr.pred is not None:
            work.append(pc + 1)
    return None


def _is_main_code(original: Program, adapted: Program, pc: int) -> bool:
    return adapted.function_of_index[pc] in original.functions \
        and not is_speculative(adapted.block_of_index[pc])


def _adapted_steps(original: Program, adapted: Program,
                   main_chks: List[int], exec_counts: Dict[int, int]
                   ) -> Optional[int]:
    """Upper bound on the adapted main thread's shadow-run steps.

    Kept instructions step exactly as often as in the original; removed
    ``nop`` s not at all.  Each ``chk.c`` execution continues at the next
    pc, directly or through its stub and ``rfi``, so a run of triggers
    executes at most as often as the kept instruction after it, and each
    of them runs its stub at most ``FIRE_LIMIT`` times.  None when a
    trigger is not followed by kept main code.
    """
    code = adapted.code
    steps = sum(exec_counts.values())
    for chk in main_chks:
        pc = chk + 1
        while pc < len(code) and code[pc].op == OP_CHK_C:
            pc += 1
        if pc >= len(code) or not _is_main_code(original, adapted, pc):
            return None
        runs = exec_counts.get(code[pc].uid, 0)
        stub = adapted.branch_target[chk]
        stub_len = 1
        while code[stub + stub_len - 1].op != OP_RFI:
            stub_len += 1
        steps += runs + min(runs, FIRE_LIMIT) * stub_len
    return steps


def prove_equivalent(original: Program, adapted: Program,
                     profile: ProgramProfile,
                     heap_factory: Callable[[], Heap]) -> Optional[str]:
    """Prove ``differential_check(original, adapted, heap_factory,
    reference=profile.reference)`` would report equivalence.

    Returns None when proved, else the first obligation that failed, as
    ``"<obligation>: <why>"``.
    """
    reference = profile.reference
    if profile.program is not original or reference is None \
            or not original.finalized \
            or reference.decode_version != original._decode_version:
        return "reference: no recorded run of this binary"
    linked = [i for f in adapted.functions.values() for b in f.blocks
              for i in b.instrs]
    if not adapted.finalized or len(linked) != len(adapted.code) \
            or any(a is not b for a, b in zip(linked, adapted.code)):
        return "verify: the linked code is not the blocks' (finalize)"
    violations = lint_program(original, adapted)
    if violations:
        return f"lint: {violations[0]}"
    main_chks = [pc for pc, instr in enumerate(adapted.code)
                 if instr.op == OP_CHK_C
                 and _is_main_code(original, adapted, pc)]
    failed = _speculation_contained(adapted, main_chks)
    if failed is not None:
        return f"speculative: {failed}"
    steps = _adapted_steps(original, adapted, main_chks,
                           profile.exec_counts)
    if steps is None or steps > MAX_SHADOW_STEPS:
        return "reference: adapted run may exceed the step limit"
    if heap_factory().digest() != reference.heap_digest:
        return "reference: verify heap is not the profiled heap"
    return None
