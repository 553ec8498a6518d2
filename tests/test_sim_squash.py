"""Squashed instructions on both timing models.

A false qualifying predicate squashes an instruction: it still takes its
issue slot and unit and counts as issued, a squashed ``br.cond`` still
trains the predictor (not taken), a squashed ``ld`` still writes its
scoreboard entry, a squashed ``lfetch`` is a dropped prefetch and a
squashed ``chk.c`` is an ignored trigger.  The fuzz corpus emits no
predicated instructions, so this hand-built program puts every opcode
kind under a false predicate, in the main thread and in a p-slice, and
holds both production simulators byte-identical to the reference loops
of ``tests/sim_reference.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.isa import FunctionBuilder, Heap, Program
from repro.isa.instructions import Instruction
from repro.sim.machine import make_config, make_simulator

from sim_reference import ReferenceInOrderSimulator, ReferenceOOOSimulator

REFERENCE = {"inorder": ReferenceInOrderSimulator,
             "ooo": ReferenceOOOSimulator}

#: Never written, so false in every thread.
FALSE = "p60"


def _squashed(fb: FunctionBuilder, tag: str) -> None:
    """Every opcode kind once, each under the false predicate; executed,
    most of them would change control flow, memory or the thread."""
    # An outstanding load into the register the squashed ld names: the
    # squash rewrites its scoreboard entry, so the use below does not
    # wait for this one.
    fb.load("r50", 32, dest="r54")
    fb.label(f"{tag}_block")
    for instr in (
            # mul takes 3 cycles, executed; the st reads its result.
            Instruction(op="mul", dest="r52", srcs=("r50",), imm=8),
            Instruction(op="mov", dest="r53", srcs=("r50",)),
            Instruction(op="cmp", dest="p7", srcs=("r50", "r50"),
                        relation="eq"),
            Instruction(op="ld", dest="r54", srcs=("r50",), imm=0),
            Instruction(op="st", srcs=("r50", "r52"), imm=8),
            Instruction(op="lfetch", srcs=("r50",), imm=16),
            Instruction(op="lib.st", srcs=("r50",), imm=1),
            Instruction(op="lib.ld", dest="r55", imm=1),
            Instruction(op="nop"),
            Instruction(op="chk.c", target="stub"),
            Instruction(op="spawn", target="slice"),
            Instruction(op="br.cond", target=f"{tag}_block"),
            Instruction(op="br", target=f"{tag}_block"),
            Instruction(op="br.call", target="callee"),
            Instruction(op="br.call.ind", srcs=("r56",)),
            Instruction(op="rfi"),
            Instruction(op="br.ret"),
            Instruction(op="kill"),
            Instruction(op="halt"),
    ):
        instr.pred = FALSE
        fb.emit(instr)
    # A use of the squashed load's destination.
    fb.add("r54", imm=1, dest="r57")


def _program():
    prog = Program(entry="main")
    callee = FunctionBuilder(prog.add_function("callee"))
    callee.ret(callee.mov_imm(1))
    heap = Heap(1 << 14)
    cell = heap.alloc(64)
    fb = FunctionBuilder(prog.add_function("main"))
    fb.mov_imm(cell, dest="r50")
    fb.mov_imm(0, dest="r56")
    _squashed(fb, "main0")
    fb.chk_c("stub")          # fires: the slice below runs
    for i in range(1, 6):     # long enough for the slice to finish
        _squashed(fb, f"main{i}")
    fb.store("r50", "r57")
    fb.halt()

    fb.label("stub")
    fb.lib_store(0, "r50")
    fb.spawn("slice")
    fb.rfi()

    fb.label("slice")
    fb.lib_load(0, dest="r50")
    fb.mov_imm(99, dest="r56")  # a bad function id, were the call made
    _squashed(fb, "slice")
    fb.load("r50", 24, dest="r58")
    fb.kill()
    prog.finalize()

    def heap_factory():
        h = Heap(1 << 14)
        h.alloc(64)
        return h

    return prog, heap_factory


def _stats(prog, heap_factory, model, reference):
    if reference:
        sim = REFERENCE[model](prog, heap_factory(), make_config(model))
    else:
        sim = make_simulator(prog, heap_factory(), model=model)
    sim.run()
    return sim.stats.to_dict()


@pytest.mark.parametrize("model", ("inorder", "ooo"))
def test_squashed_instructions_match_reference(model):
    prog, heap_factory = _program()
    stats = _stats(prog, heap_factory, model, reference=False)
    ref = _stats(prog, heap_factory, model, reference=True)
    assert json.dumps(stats, sort_keys=True) == \
        json.dumps(ref, sort_keys=True)
    # Six main-thread blocks and one in the slice, which runs to its
    # kill before the main thread halts.
    assert stats["threads_completed"] == 1
    assert stats["spec_instructions"] == 25
    memory = stats["memory"]
    assert memory["prefetches_dropped"] == 7
    assert memory["prefetches_issued"] == 0
    assert stats["chk_ignored"] == 7
    assert stats["chk_fired"] == 1
    assert stats["spawns"] == 1
    # The predictor starts weakly taken, and each squashed br.cond has a
    # pc of its own: every one trains not-taken and mispredicts.
    assert stats["mispredicts"] == 7
    assert stats["cycles"] == sum(stats["cycle_breakdown"].values())
