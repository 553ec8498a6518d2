"""The ISA's semantics: pre-decoded tables and the one functional step.

``repro.isa`` instructions are convenient value objects, but the per-cycle
issue path pays for that convenience on every tick: ``Instruction.reads``
builds a tuple per call, ``fixed_latency()`` is a dict probe and opcode
dispatch is a string-compare chain.  This module decodes a finalised
:class:`~repro.isa.program.Program` **once** into flat per-instruction
tuples of plain ints/strings/callables so the simulators' run loops
(``repro.sim.inorder``, ``repro.sim.ooo``) do zero dict lookups and zero
``getattr`` per issued instruction.  The post-pass tool's functional runs
— :class:`~repro.isa.interp.FunctionalInterpreter` and the differential
verify's :class:`~repro.codegen.verify.ShadowInterpreter` — step the same
tables.

:func:`step_decoded` is the only definition of what an opcode does: every
engine calls it and keeps only its own timing or bookkeeping around it.
Its results are plain tuples (shared singletons for the common cases).
The test suite holds it equal to an independent Instruction-object
statement of the semantics (``execute`` in ``tests/sim_reference.py``),
through ``tests/test_sim_fastpath.py`` for the simulators and
``tests/test_isa_decoded_interp.py`` for the interpreters.

The decode cache is keyed on ``Program._decode_version``, bumped by every
``Program.finalize()`` — the tool's in-place nop→``chk.c`` patching is
always followed by a re-finalise (branch targets must be resolved), so a
stale table cannot be observed.  Like the simulators themselves, decoding
assumes the program is not mutated *between* ``finalize()`` and the run.
"""

from __future__ import annotations

import operator
import weakref
from typing import Any, Callable, Dict, List, Tuple

from .instructions import (
    ALU_OPS,
    BRANCH_OPS,
    FIXED_LATENCY,
    Instruction,
    MEMORY_OPS,
)
from .interp import ExecutionError, ThreadState
from .memory import HEAP_BASE, Heap
from .program import Program
from . import registers as regs

# ---------------------------------------------------------------------------
# Decoded-entry layout
# ---------------------------------------------------------------------------

#: Instruction kinds — small ints replacing opcode string dispatch.  The
#: branch kinds are contiguous (``K_BR <= kind <= K_RET``) so "is this a
#: branch" is a range check.
(K_ALU, K_MOV, K_CMP, K_LD, K_ST, K_LFETCH,
 K_BR, K_BRC, K_CALL, K_CALLI, K_RET,
 K_CHK, K_RFI, K_SPAWN, K_LIBST, K_LIBLD, K_KILL, K_HALT, K_NOP) = range(19)

_KIND_OF_OP = {
    "mov": K_MOV, "cmp": K_CMP, "ld": K_LD, "st": K_ST, "lfetch": K_LFETCH,
    "br": K_BR, "br.cond": K_BRC, "br.call": K_CALL,
    "br.call.ind": K_CALLI, "br.ret": K_RET,
    "chk.c": K_CHK, "rfi": K_RFI, "spawn": K_SPAWN,
    "lib.st": K_LIBST, "lib.ld": K_LIBLD,
    "kill": K_KILL, "halt": K_HALT, "nop": K_NOP,
}
for _op in ALU_OPS:
    _KIND_OF_OP[_op] = K_ALU

#: Relation of each ``cmp`` and operation of each ALU opcode: the C
#: ``operator`` functions, so an ALU or ``cmp`` step makes no Python-level
#: call (on ints they are exactly the Python operators).
_RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

_ALU: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "shr": operator.rshift,
}

#: Structural-resource classes, matching the in-order issue logic exactly:
#: memory ops take a memory port; branches *plus* ``chk.c`` and ``spawn``
#: take a branch unit; everything else an integer unit.
RES_MEM, RES_BR, RES_INT = range(3)

#: Field indices of one decoded entry.
(D_KIND,    # int kind constant (K_*)
 D_OP,      # original opcode string (error messages, predictor-free debug)
 D_DEST,    # destination register name or None
 D_SRC0,    # first source register name or None
 D_SRC1,    # second source register name or None
 D_IMM,     # raw immediate (may be None; lib.st/lib.ld slot, ALU/cmp/mov)
 D_IMM0,    # displacement immediate with None folded to 0 (ld/st/lfetch)
 D_PRED,    # qualifying predicate register name or None
 D_READS,   # precomputed Instruction.reads tuple
 D_LAT,     # fixed latency (FIXED_LATENCY.get(op, 1))
 D_RES,     # structural-resource class (RES_*)
 D_TARGET,  # resolved absolute branch target (br/br.cond/br.call/chk.c/spawn)
 D_FN,      # bound ALU/relation callable for K_ALU/K_CMP, else None
 D_UID) = range(14)

DecodedEntry = Tuple[Any, ...]

# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_DECODE_CACHE: "weakref.WeakKeyDictionary[Program, Tuple[int, List[DecodedEntry]]]" = \
    weakref.WeakKeyDictionary()


def _decode_one(program: Program, pc: int, instr: Instruction) -> DecodedEntry:
    op = instr.op
    kind = _KIND_OF_OP[op]
    srcs = instr.srcs
    if instr.is_memory:
        rescls = RES_MEM
    elif instr.is_branch or op in ("chk.c", "spawn"):
        rescls = RES_BR
    else:
        rescls = RES_INT
    fn = None
    if kind == K_ALU:
        fn = _ALU[op]
    elif kind == K_CMP:
        fn = _RELATIONS[instr.relation]
    return (
        kind,
        op,
        instr.dest,
        srcs[0] if srcs else None,
        srcs[1] if len(srcs) > 1 else None,
        instr.imm,
        instr.imm or 0,
        instr.pred,
        instr.reads,
        FIXED_LATENCY.get(op, 1),
        rescls,
        program.branch_target.get(pc),
        fn,
        instr.uid,
    )


def decode_program(program: Program) -> List[DecodedEntry]:
    """Decode ``program`` into flat issue tuples; cached per finalise."""
    if not program.finalized:
        program.finalize()
    version = getattr(program, "_decode_version", 0)
    cached = _DECODE_CACHE.get(program)
    if cached is not None and cached[0] == version:
        return cached[1]
    table = [_decode_one(program, pc, instr)
             for pc, instr in enumerate(program.code)]
    _DECODE_CACHE[program] = (version, table)
    return table


# ---------------------------------------------------------------------------
# Functional step over a decoded entry
# ---------------------------------------------------------------------------

#: Shared result singletons: (mem_addr, taken, spawn_target, executed,
#: chk_taken).  Only memory ops and spawn allocate a fresh tuple.
R_MEM, R_TAKEN, R_SPAWN, R_EXECUTED, R_CHK = range(5)
_R_PLAIN = (None, None, None, True, False)
_R_SQUASH = (None, None, None, False, False)
_R_TAKEN = (None, True, None, True, False)
_R_NOT_TAKEN = (None, False, None, True, False)
_R_CHK_TAKEN = (None, True, None, True, True)

_RET_VALUE = regs.RET_VALUE
_ZERO = regs.ZERO
_TRUE_PREDICATE = regs.TRUE_PREDICATE


def step_decoded(program: Program, heap: Heap, state: ThreadState,
                 d: DecodedEntry, chk_fires: bool = False) -> Tuple:
    """Architecturally step one decoded instruction.

    Returns a plain ``(mem_addr, taken, spawn_target, executed,
    chk_taken)`` tuple.  ``chk_fires`` tells a ``chk.c`` whether a free
    hardware context is available (the timing model's decision); when
    false the check behaves like a nop, per Section 3.4.2.  A false
    qualifying predicate squashes the instruction (``executed`` false,
    ``mem_addr`` None).
    """
    pc = state.pc
    pred = d[D_PRED]
    preds = state.preds
    if pred is not None and not preds.get(pred, False):
        state.pc = pc + 1
        return _R_SQUASH

    rd = state.regs
    kind = d[D_KIND]

    if kind == K_ALU:
        src1 = d[D_SRC1]
        b = rd.get(src1, 0) if src1 is not None else d[D_IMM]
        dest = d[D_DEST]
        rd[dest] = d[D_FN](rd.get(d[D_SRC0], 0), b)
        if dest == _ZERO:
            rd[_ZERO] = 0
        state.pc = pc + 1
        return _R_PLAIN

    if kind == K_MOV:
        src = d[D_SRC0]
        dest = d[D_DEST]
        rd[dest] = rd.get(src, 0) if src is not None else d[D_IMM]
        if dest == _ZERO:
            rd[_ZERO] = 0
        state.pc = pc + 1
        return _R_PLAIN

    if kind == K_LD:
        addr = rd.get(d[D_SRC0], 0) + d[D_IMM0]
        if not addr & 7 and HEAP_BASE <= addr < heap.size:
            rd[d[D_DEST]] = heap._words.get(addr >> 3, 0)
        elif state.speculative:
            rd[d[D_DEST]] = 0      # deferred exception: NaT-like zero
            addr = None            # no memory access is made
        else:
            raise ExecutionError(
                f"bad load address {addr:#x} at pc {pc} "
                f"({program.code[pc]})")
        state.pc = pc + 1
        return (addr, None, None, True, False)

    if kind == K_ST:
        if state.speculative:
            raise ExecutionError(
                "speculative thread attempted a store — the emitter must "
                f"never place stores in p-slices ({program.code[pc]} "
                f"at pc {pc})")
        addr = rd.get(d[D_SRC0], 0) + d[D_IMM0]
        if addr & 7 or not HEAP_BASE <= addr < heap.size:
            raise ExecutionError(
                f"bad store address {addr:#x} at pc {pc} "
                f"({program.code[pc]})")
        heap._words[addr >> 3] = rd.get(d[D_SRC1], 0)
        state.pc = pc + 1
        return (addr, None, None, True, False)

    if kind == K_LFETCH:
        addr = rd.get(d[D_SRC0], 0) + d[D_IMM0]
        if addr & 7 or not HEAP_BASE <= addr < heap.size:
            addr = None            # non-faulting prefetch: dropped
        state.pc = pc + 1
        return (addr, None, None, True, False)

    if kind == K_CMP:
        src1 = d[D_SRC1]
        b = rd.get(src1, 0) if src1 is not None else d[D_IMM]
        dest = d[D_DEST]
        preds[dest] = d[D_FN](rd.get(d[D_SRC0], 0), b)
        if dest == _TRUE_PREDICATE:
            preds[_TRUE_PREDICATE] = True
        state.pc = pc + 1
        return _R_PLAIN

    if kind == K_BR:
        state.pc = d[D_TARGET]
        return _R_TAKEN

    if kind == K_BRC:
        # A false qualifying predicate was squashed above, and the
        # predicate is also the branch condition — an *executed* br.cond
        # is always taken.
        state.pc = d[D_TARGET]
        return _R_TAKEN

    if kind == K_CALL:
        state.call_stack.append((pc + 1, dict(rd)))
        state.pc = d[D_TARGET]
        return _R_TAKEN

    if kind == K_CALLI:
        fid = rd.get(d[D_SRC0], 0)
        if not 0 <= fid < len(program.function_by_id):
            if state.speculative:
                state.killed = True
                return _R_SQUASH
            raise ExecutionError(
                f"bad indirect call target {fid} at pc {pc}")
        state.call_stack.append((pc + 1, dict(rd)))
        state.pc = program.function_entry[program.function_by_id[fid]]
        return _R_TAKEN

    if kind == K_RET:
        if not state.call_stack:
            state.halted = True
            return _R_TAKEN
        ret_pc, saved = state.call_stack.pop()
        ret_val = rd.get(_RET_VALUE, 0)
        state.regs = saved
        saved[_RET_VALUE] = ret_val
        state.pc = ret_pc
        return _R_TAKEN

    if kind == K_CHK:
        if chk_fires:
            state.rfi_stack.append(pc + 1)
            state.pc = d[D_TARGET]
            return _R_CHK_TAKEN
        state.pc = pc + 1
        return _R_NOT_TAKEN

    if kind == K_RFI:
        if not state.rfi_stack:
            raise ExecutionError(f"rfi with no pending recovery at pc {pc}")
        state.pc = state.rfi_stack.pop()
        return _R_TAKEN

    if kind == K_SPAWN:
        state.pc = pc + 1
        return (None, None, d[D_TARGET], True, False)

    if kind == K_LIBST:
        state.lib_out[d[D_IMM]] = rd.get(d[D_SRC0], 0)
        state.pc = pc + 1
        return _R_PLAIN

    if kind == K_LIBLD:
        rd[d[D_DEST]] = state.lib_in[d[D_IMM]]
        state.pc = pc + 1
        return _R_PLAIN

    if kind == K_KILL:
        state.killed = True
        return _R_PLAIN

    if kind == K_HALT:
        state.halted = True
        return _R_PLAIN

    # K_NOP
    state.pc = pc + 1
    return _R_PLAIN
