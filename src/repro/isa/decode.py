"""The ISA's semantics: one decode into register slots and step closures.

``repro.isa`` instructions are convenient value objects, but an engine
that re-reads them pays on every step: ``Instruction.reads`` builds a
tuple per call, registers are looked up by name and opcode dispatch is a
string-compare chain.  This module lifts a finalised
:class:`~repro.isa.program.Program` **once**, on its first run, into a
table of flat per-instruction tuples:

* every register name gets a dense slot (:class:`RegisterSlots`), so a
  thread's registers, predicates and the timing models' scoreboards are
  lists indexed by ints;
* every instruction gets a **step closure**, built by :func:`_step`, the
  single per-kind factory.  The closure holds its operands' slots, its
  immediate, its fall-through pc and its branch target in cells, and
  does exactly what its opcode does to a
  :class:`~repro.isa.interp.ThreadState`.  A predicated instruction's
  closure tests the predicate itself; no closure wraps another.

The closures are the only definition of what an opcode does.  Every
engine calls them and keeps only its own timing or bookkeeping around
them: both simulators' run loops (``repro.sim.inorder``,
``repro.sim.ooo``), :class:`~repro.isa.interp.FunctionalInterpreter`,
the differential verify's :class:`~repro.codegen.verify.ShadowInterpreter`
and, through those, the cross-model oracle of ``repro.check``.  The test
suite holds them equal to an independent Instruction-object statement of
the semantics (``execute`` in ``tests/sim_reference.py``): kind by kind in
``tests/test_isa_step_closures.py``, and over whole runs through
``tests/test_sim_fastpath.py`` and ``tests/test_isa_decoded_interp.py``.

A step is called as ``step(state, heap, fire)`` — ``fire`` tells a
``chk.c`` whether a free hardware context is available (the timing
model's decision; when false the check behaves like a nop, Section
3.4.2) — and returns one value whose meaning depends on the kind:

* ``ld``, ``st``, ``lfetch``: the byte address accessed; 0 when the
  instruction executed without a memory access (a speculative load's
  deferred fault, a prefetch outside the heap); None when squashed;
* ``spawn``: the spawned thread's start pc, or None when squashed;
* ``chk.c``: whether it fired;
* every other kind: whether it executed (a false qualifying predicate
  squashes it).  An executed ``br.cond`` is always taken, since its
  predicate is also its condition.

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

from .instructions import ALU_OPS, FIXED_LATENCY, Instruction
from .interp import ExecutionError, RegisterSlots
from .memory import HEAP_BASE
from .program import Program

# ---------------------------------------------------------------------------
# Decoded-entry layout
# ---------------------------------------------------------------------------

#: Instruction kinds — small ints replacing opcode string dispatch.  Each
#: class the engines time alike is contiguous, so "is this one" is a range
#: check: the fixed-latency register writes (``kind <= K_LIBLD``), the
#: memory kinds (``K_LD <= kind <= K_LFETCH``) and the branches
#: (``K_BR <= kind <= K_RET``).
(K_ALU, K_MOV, K_CMP, K_LIBLD, K_LD, K_ST, K_LFETCH,
 K_BR, K_BRC, K_CALL, K_CALLI, K_RET,
 K_CHK, K_RFI, K_SPAWN, K_LIBST, K_KILL, K_HALT, K_NOP) = range(19)

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
 D_STEP,    # the step closure
 D_DEST,    # scoreboard slot of the destination register, or None
 D_READS,   # scoreboard slots of every register read (sources, predicate)
 D_LAT,     # fixed latency (FIXED_LATENCY.get(op, 1))
 D_RES,     # structural-resource class (RES_*)
 D_UID,     # the instruction's uid
 D_SRC0,    # register slot of the first source (r0's when none)
 ) = range(8)

DecodedEntry = Tuple[Any, ...]

#: ``r8``'s register slot (see RegisterSlots): what ``br.ret`` carries.
_RET_SLOT = 1


class Decoded:
    """A program decoded for running: its entry table and the register
    slots the entries and every :class:`ThreadState` of the run use."""

    __slots__ = ("table", "slots")

    def __init__(self, table: List[DecodedEntry], slots: RegisterSlots):
        self.table = table
        self.slots = slots


# ---------------------------------------------------------------------------
# The step factory
# ---------------------------------------------------------------------------

def _step(program: Program, pc: int, instr: Instruction,
          slots: RegisterSlots, entries: Tuple[int, ...]) -> Callable:
    """Build the step closure of ``instr`` at ``pc`` (see the module
    docstring for its call and its result).

    The kinds most steps are made of (ALU, ``mov``, ``cmp``, ``ld``,
    ``lfetch``, ``br.cond``) get a separate closure for the predicated
    and the unpredicated form.  The other kinds test their predicate
    slot ``p`` first, a test skipped when ``p`` is 0: no predicate, or
    ``p0``, which is always true.
    """
    kind = _KIND_OF_OP[instr.op]
    nxt = pc + 1
    # Only for error messages.  The closure must not hold ``program``:
    # the decode cache's weak key would then never die.
    code = program.code
    regs = slots.regs
    srcs = [regs[s] for s in instr.srcs]
    a = srcs[0] if srcs else 0         # a missing source reads r0
    b = srcs[1] if len(srcs) > 1 else None
    imm = instr.imm
    off = imm or 0
    p = slots.preds[instr.pred] if instr.pred is not None else 0
    target = program.branch_target.get(pc)
    # The written slot; writes to r0 and p0 land in the sink slot.
    w = None
    if instr.dest is not None:
        if kind == K_CMP:
            w = slots.preds[instr.dest] or len(slots.preds)
        else:
            w = regs[instr.dest] or len(regs)

    if kind == K_LD:
        if p:
            def step(state, heap, fire):
                if not state.preds[p]:
                    state.pc = nxt
                    return None
                rd = state.regs
                addr = rd[a] + off
                if not addr & 7 and HEAP_BASE <= addr < heap.size:
                    rd[w] = heap._words.get(addr >> 3, 0)
                elif state.speculative:
                    rd[w] = 0      # deferred exception: NaT-like zero
                    addr = 0       # no memory access is made
                else:
                    raise ExecutionError(
                        f"bad load address {addr:#x} at pc {pc} "
                        f"({code[pc]})")
                state.pc = nxt
                return addr
        else:
            def step(state, heap, fire):
                rd = state.regs
                addr = rd[a] + off
                if not addr & 7 and HEAP_BASE <= addr < heap.size:
                    rd[w] = heap._words.get(addr >> 3, 0)
                elif state.speculative:
                    rd[w] = 0      # deferred exception: NaT-like zero
                    addr = 0       # no memory access is made
                else:
                    raise ExecutionError(
                        f"bad load address {addr:#x} at pc {pc} "
                        f"({code[pc]})")
                state.pc = nxt
                return addr
        return step

    if kind == K_ALU:
        fn = _ALU[instr.op]
        if b is None:
            if p:
                def step(state, heap, fire):
                    if state.preds[p]:
                        rd = state.regs
                        rd[w] = fn(rd[a], imm)
                        state.pc = nxt
                        return True
                    state.pc = nxt
                    return False
            else:
                def step(state, heap, fire):
                    rd = state.regs
                    rd[w] = fn(rd[a], imm)
                    state.pc = nxt
                    return True
        elif p:
            def step(state, heap, fire):
                if state.preds[p]:
                    rd = state.regs
                    rd[w] = fn(rd[a], rd[b])
                    state.pc = nxt
                    return True
                state.pc = nxt
                return False
        else:
            def step(state, heap, fire):
                rd = state.regs
                rd[w] = fn(rd[a], rd[b])
                state.pc = nxt
                return True
        return step

    if kind == K_CMP:
        fn = _RELATIONS[instr.relation]
        if b is None:
            if p:
                def step(state, heap, fire):
                    preds = state.preds
                    if preds[p]:
                        preds[w] = fn(state.regs[a], imm)
                        state.pc = nxt
                        return True
                    state.pc = nxt
                    return False
            else:
                def step(state, heap, fire):
                    state.preds[w] = fn(state.regs[a], imm)
                    state.pc = nxt
                    return True
        elif p:
            def step(state, heap, fire):
                preds = state.preds
                if preds[p]:
                    rd = state.regs
                    preds[w] = fn(rd[a], rd[b])
                    state.pc = nxt
                    return True
                state.pc = nxt
                return False
        else:
            def step(state, heap, fire):
                rd = state.regs
                state.preds[w] = fn(rd[a], rd[b])
                state.pc = nxt
                return True
        return step

    if kind == K_MOV:
        if not srcs:
            if p:
                def step(state, heap, fire):
                    if state.preds[p]:
                        state.regs[w] = imm
                        state.pc = nxt
                        return True
                    state.pc = nxt
                    return False
            else:
                def step(state, heap, fire):
                    state.regs[w] = imm
                    state.pc = nxt
                    return True
        elif p:
            def step(state, heap, fire):
                if state.preds[p]:
                    rd = state.regs
                    rd[w] = rd[a]
                    state.pc = nxt
                    return True
                state.pc = nxt
                return False
        else:
            def step(state, heap, fire):
                rd = state.regs
                rd[w] = rd[a]
                state.pc = nxt
                return True
        return step

    if kind == K_BRC:
        if p:
            def step(state, heap, fire):
                if state.preds[p]:
                    state.pc = target
                    return True
                state.pc = nxt
                return False
        else:
            def step(state, heap, fire):
                state.pc = target
                return True
        return step

    if kind == K_LFETCH:
        if p:
            def step(state, heap, fire):
                if not state.preds[p]:
                    state.pc = nxt
                    return None
                addr = state.regs[a] + off
                if addr & 7 or not HEAP_BASE <= addr < heap.size:
                    addr = 0       # non-faulting prefetch: dropped
                state.pc = nxt
                return addr
        else:
            def step(state, heap, fire):
                addr = state.regs[a] + off
                if addr & 7 or not HEAP_BASE <= addr < heap.size:
                    addr = 0       # non-faulting prefetch: dropped
                state.pc = nxt
                return addr
        return step

    # The remaining kinds: one closure each, its predicate test skipped
    # when ``p`` is 0.
    if kind == K_ST:
        v = b if b is not None else 0

        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return None
            if state.speculative:
                raise ExecutionError(
                    "speculative thread attempted a store — the emitter "
                    f"must never place stores in p-slices ({code[pc]} "
                    f"at pc {pc})")
            rd = state.regs
            addr = rd[a] + off
            if addr & 7 or not HEAP_BASE <= addr < heap.size:
                raise ExecutionError(
                    f"bad store address {addr:#x} at pc {pc} ({code[pc]})")
            heap._words[addr >> 3] = rd[v]
            state.pc = nxt
            return addr
        return step

    if kind == K_SPAWN:
        def step(state, heap, fire):
            state.pc = nxt
            if p and not state.preds[p]:
                return None
            return target
        return step

    if kind == K_BR:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.pc = target
            return True

    elif kind == K_CALL:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.call_stack.append((nxt, state.regs[:]))
            state.pc = target
            return True

    elif kind == K_CALLI:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            fid = state.regs[a]
            if not 0 <= fid < len(entries):
                if state.speculative:
                    state.killed = True
                    return False
                raise ExecutionError(
                    f"bad indirect call target {fid} at pc {pc}")
            state.call_stack.append((nxt, state.regs[:]))
            state.pc = entries[fid]
            return True

    elif kind == K_RET:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            stack = state.call_stack
            if not stack:
                state.halted = True
                return True
            ret_pc, saved = stack.pop()
            saved[_RET_SLOT] = state.regs[_RET_SLOT]
            state.regs = saved
            state.pc = ret_pc
            return True

    elif kind == K_CHK:
        def step(state, heap, fire):
            if fire and not (p and not state.preds[p]):
                state.rfi_stack.append(nxt)
                state.pc = target
                return True
            state.pc = nxt
            return False

    elif kind == K_RFI:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            stack = state.rfi_stack
            if not stack:
                raise ExecutionError(
                    f"rfi with no pending recovery at pc {pc}")
            state.pc = stack.pop()
            return True

    elif kind == K_LIBST:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.lib_out[imm] = state.regs[a]
            state.pc = nxt
            return True

    elif kind == K_LIBLD:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.regs[w] = state.lib_in[imm]
            state.pc = nxt
            return True

    elif kind == K_KILL:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.killed = True
            return True

    elif kind == K_HALT:
        def step(state, heap, fire):
            if p and not state.preds[p]:
                state.pc = nxt
                return False
            state.halted = True
            return True

    else:  # K_NOP
        def step(state, heap, fire):
            state.pc = nxt
            return not (p and not state.preds[p])
    return step


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_DECODE_CACHE: "weakref.WeakKeyDictionary[Program, Tuple[int, Decoded]]" = \
    weakref.WeakKeyDictionary()


def _register_slots(code: List[Instruction]) -> RegisterSlots:
    """Number the registers of ``code`` by role, in order of first use."""
    reg_names: List[str] = []
    pred_names: List[str] = []
    for instr in code:
        if instr.dest is not None:
            (pred_names if instr.op == "cmp" else reg_names).append(
                instr.dest)
        reg_names.extend(instr.srcs)
        if instr.pred is not None:
            pred_names.append(instr.pred)
    return RegisterSlots(reg_names, pred_names)


def _decode_one(program: Program, pc: int, instr: Instruction,
                slots: RegisterSlots,
                entries: Tuple[int, ...]) -> DecodedEntry:
    op = instr.op
    if instr.is_memory:
        rescls = RES_MEM
    elif instr.is_branch or op in ("chk.c", "spawn"):
        rescls = RES_BR
    else:
        rescls = RES_INT
    board = slots.board
    return (
        _KIND_OF_OP[op],
        _step(program, pc, instr, slots, entries),
        board[instr.dest] if instr.dest is not None else None,
        tuple(board[reg] for reg in instr.reads),
        FIXED_LATENCY.get(op, 1),
        rescls,
        instr.uid,
        slots.regs[instr.srcs[0]] if instr.srcs else 0,
    )


def decode_program(program: Program) -> Decoded:
    """Decode ``program`` into register slots and step entries; cached
    per finalise."""
    if not program.finalized:
        program.finalize()
    version = getattr(program, "_decode_version", 0)
    cached = _DECODE_CACHE.get(program)
    if cached is not None and cached[0] == version:
        return cached[1]
    code = program.code
    slots = _register_slots(code)
    # Entry pc of each function id, for br.call.ind.
    entries = tuple(program.function_entry[name]
                    for name in program.function_by_id)
    decoded = Decoded([_decode_one(program, pc, instr, slots, entries)
                       for pc, instr in enumerate(code)], slots)
    _DECODE_CACHE[program] = (version, decoded)
    return decoded
