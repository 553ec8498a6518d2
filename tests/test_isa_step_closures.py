"""Each decoded step closure against the reference ``execute``, kind by kind.

:mod:`repro.isa.decode` builds one step closure per instruction, with a
separate closure for the predicated form of the common kinds.  Whole
runs hold the closures equal to ``execute`` (``tests/sim_reference.py``)
in ``test_sim_fastpath.py`` and ``test_isa_decoded_interp.py``; this suite
steps every kind on its own, unpredicated, predicated and executed,
predicated and squashed, from a main and from a speculative thread, with
``r0``/``p0`` destinations and with the faults the step must raise.  It
compares the whole architectural state after the step, the step's result
against the reference's, and the error raised, if any.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.isa import FunctionBuilder, Heap, Program
from repro.isa.decode import (
    D_KIND,
    D_STEP,
    K_CHK,
    K_LD,
    K_LFETCH,
    K_SPAWN,
    K_ST,
    decode_program,
)
from repro.isa.instructions import Instruction
from repro.isa.interp import ExecutionError
from repro.workloads import make_workload

from sim_reference import execute, new_state

HEAP_BYTES = 1 << 14
#: A mapped word, and an address past the heap.
GOOD, BAD = 0x2000, HEAP_BYTES + 8

#: (label, instruction).  Each is stepped at its own pc; the branch kinds
#: jump to ``target`` or call ``callee``.
CASES = [
    ("add.reg", Instruction("add", dest="r10", srcs=("r11", "r12"))),
    ("add.imm", Instruction("add", dest="r10", srcs=("r11",), imm=5)),
    ("mul.reg", Instruction("mul", dest="r10", srcs=("r11", "r12"))),
    ("shl.imm", Instruction("shl", dest="r10", srcs=("r11",), imm=3)),
    ("sub.r0", Instruction("sub", dest="r0", srcs=("r11", "r12"))),
    ("xor.r0.imm", Instruction("xor", dest="r0", srcs=("r11",), imm=9)),
    ("mov.reg", Instruction("mov", dest="r10", srcs=("r11",))),
    ("mov.imm", Instruction("mov", dest="r10", imm=42)),
    ("mov.r0", Instruction("mov", dest="r0", srcs=("r11",))),
    ("mov.r0.imm", Instruction("mov", dest="r0", imm=42)),
    ("mov.from.r0", Instruction("mov", dest="r10", srcs=("r0",))),
    ("cmp.reg", Instruction("cmp", dest="p6", srcs=("r11", "r12"),
                            relation="gt")),
    ("cmp.imm", Instruction("cmp", dest="p6", srcs=("r11",), imm=7,
                            relation="eq")),
    ("cmp.p0", Instruction("cmp", dest="p0", srcs=("r11", "r12"),
                           relation="lt")),
    ("cmp.p0.imm", Instruction("cmp", dest="p0", srcs=("r11",), imm=0,
                               relation="eq")),
    ("ld", Instruction("ld", dest="r10", srcs=("r13",), imm=8)),
    ("ld.r0", Instruction("ld", dest="r0", srcs=("r13",), imm=8)),
    ("ld.bad", Instruction("ld", dest="r10", srcs=("r15",))),
    ("ld.misaligned", Instruction("ld", dest="r10", srcs=("r13",), imm=3)),
    ("st", Instruction("st", srcs=("r13", "r11"), imm=16)),
    ("st.bad", Instruction("st", srcs=("r15", "r11"))),
    ("lfetch", Instruction("lfetch", srcs=("r13",), imm=24)),
    ("lfetch.bad", Instruction("lfetch", srcs=("r15",))),
    ("br", Instruction("br", target="target")),
    ("br.cond", Instruction("br.cond", target="target", pred="p5")),
    ("br.cond.p0", Instruction("br.cond", target="target", pred="p0")),
    ("br.call", Instruction("br.call", target="callee")),
    ("br.call.ind", Instruction("br.call.ind", srcs=("r14",))),
    ("br.call.ind.bad", Instruction("br.call.ind", srcs=("r12",))),
    ("br.ret", Instruction("br.ret")),
    ("chk.c", Instruction("chk.c", target="target")),
    ("rfi", Instruction("rfi")),
    ("spawn", Instruction("spawn", target="target")),
    ("lib.st", Instruction("lib.st", srcs=("r11",), imm=3)),
    ("lib.ld", Instruction("lib.ld", dest="r10", imm=2)),
    ("lib.ld.r0", Instruction("lib.ld", dest="r0", imm=2)),
    ("kill", Instruction("kill")),
    ("halt", Instruction("halt")),
    ("nop", Instruction("nop")),
]

#: Every case unpredicated, under a true ``p5`` and under a false one.
PREDICATES = [None, "p5", "p7"]


def _program():
    """The cases in one function, each predicate variant at its own pc,
    plus the branch target and the callee."""
    prog = Program(entry="main")
    callee = FunctionBuilder(prog.add_function("callee"))
    callee.emit(Instruction("br.ret"))
    fb = FunctionBuilder(prog.add_function("main"))
    pcs = {}
    for label, instr in CASES:
        for pred in PREDICATES:
            if pred is not None and instr.op == "br.cond":
                continue
            fb.label(f"at_{label}_{pred}")
            pcs[label, pred] = fb.emit(Instruction(
                instr.op, dest=instr.dest, srcs=instr.srcs, imm=instr.imm,
                target=instr.target, relation=instr.relation,
                pred=instr.pred if pred is None else pred))
    fb.label("target")
    fb.emit(Instruction("halt"))
    prog.finalize()
    return prog, {key: instr.addr for key, instr in pcs.items()}


PROGRAM, PCS = _program()


def _state(pc, speculative):
    state = new_state(PROGRAM, tid=1 if speculative else 0, pc=pc,
                      speculative=speculative)
    values = {"r10": -1, "r11": 7, "r12": 3, "r13": GOOD, "r15": BAD,
              "r14": PROGRAM.function_id["callee"], "r8": 99}
    for reg, value in values.items():
        state.regs[state.slots.regs[reg]] = value
    preds = state.preds
    preds[state.slots.preds["p5"]] = True
    preds[state.slots.preds["p7"]] = False
    state.lib_in[2] = 55
    # One frame to return to, and one recovery to resume from.
    state.call_stack.append((3, list(state.regs)))
    state.rfi_stack.append(5)
    return state


def _heap():
    heap = Heap(HEAP_BYTES)
    heap.alloc(0x2000)
    heap.store(GOOD + 8, 1234)
    return heap


def _architectural(state, heap):
    """Everything a step may change; the sink slot past the named ones
    is not architectural."""
    return {
        "pc": state.pc, "named": state.named(),
        "frames": [(pc, regs[:-1]) for pc, regs in state.call_stack],
        "rfi": list(state.rfi_stack), "lib_out": list(state.lib_out),
        "halted": state.halted, "killed": state.killed,
        "heap": dict(heap._words),
    }


def _expected_result(kind, ref):
    """What the step closure returns for the reference's ExecResult."""
    if K_LD <= kind <= K_LFETCH:
        if not ref.executed:
            return None
        return ref.mem_addr if ref.mem_addr is not None else 0
    if kind == K_SPAWN:
        return ref.spawn_target if ref.executed else None
    if kind == K_CHK:
        return ref.chk_taken
    return ref.executed


def _outcome(run):
    try:
        return run(), None
    except ExecutionError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("speculative", [False, True])
@pytest.mark.parametrize("fire", [False, True])
@pytest.mark.parametrize("key", list(PCS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_step_closure_matches_execute(key, fire, speculative):
    pc = PCS[key]
    d = decode_program(PROGRAM).table[pc]
    state, heap = _state(pc, speculative), _heap()
    ref_state, ref_heap = _state(pc, speculative), _heap()
    instr = PROGRAM.code[pc]
    got, error = _outcome(lambda: d[D_STEP](state, heap, fire))
    ref, ref_error = _outcome(lambda: execute(PROGRAM, ref_heap, ref_state,
                                              instr, fire))
    assert error == ref_error
    if error is None:
        assert got == _expected_result(d[D_KIND], ref)
        if d[D_KIND] == K_ST:
            assert got != 0       # a store never executes without access
    assert _architectural(state, heap) == \
        _architectural(ref_state, ref_heap)


def test_every_kind_and_predicate_form_is_covered():
    kinds = {decode_program(PROGRAM).table[pc][D_KIND]
             for pc in PCS.values()}
    assert kinds == set(range(19))


def test_hardwired_registers_read_their_constants_after_writes():
    state = _state(PCS["sub.r0", None], False)
    heap = _heap()
    table = decode_program(PROGRAM).table
    for label in ("sub.r0", "mov.r0", "ld.r0", "lib.ld.r0", "cmp.p0"):
        state.pc = PCS[label, None]
        table[state.pc][D_STEP](state, heap, False)
    assert state.read("r0") == 0
    assert state.preds[state.slots.preds["p0"]] is True
    state.pc = PCS["mov.from.r0", None]
    table[state.pc][D_STEP](state, heap, False)
    assert state.read("r10") == 0


def test_decoded_program_can_be_collected():
    """The decode cache holds its program weakly: no closure may keep
    the program alive."""
    workload = make_workload("mcf", "tiny")
    program = workload.build_program()
    decode_program(program)
    ref = weakref.ref(program)
    del program, workload
    gc.collect()
    assert ref() is None
