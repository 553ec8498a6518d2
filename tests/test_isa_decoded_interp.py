"""The decoded interpreters against an independent ``execute`` loop.

:class:`~repro.isa.interp.FunctionalInterpreter` and
:class:`~repro.codegen.verify.ShadowInterpreter` step the pre-decoded table
through :func:`~repro.isa.decode.step_decoded`, as do both simulators'
run loops, the cross-model oracle and the pipeline fuzzer.  This suite
keeps one check that does not share that step: the two loops below are
plain re-statements of both interpreters over the generic
:func:`~repro.isa.interp.execute`, and every run must agree with them on
counts, steps, speculation bookkeeping, final main-thread state, final
heap and error messages.

The corpus is the seven paper workloads at tiny scale and the 25-seed
fuzz corpus of ``tests/test_sim_fastpath.py``, each as the original and
the SSP-adapted binary, plus hand-built programs for what those never
reach: indirect calls, writes to the hard-wired ``r0``/``p0``, deferred
speculative faults, speculative stores, and every containment budget.
"""

from __future__ import annotations

import pytest

from repro import SSPPostPassTool, collect_profile
from repro.check.fuzz import FuzzWorkload
from repro.codegen.verify import (
    ShadowInterpreter,
    SpeculativeEffectError,
    _architectural_outcome,
)
from repro.isa import FunctionBuilder, Heap, Program
from repro.isa.instructions import Instruction
from repro.isa.interp import (
    ExecutionError,
    FunctionalInterpreter,
    ThreadState,
    execute,
    spawn_thread,
)
from repro.workloads.base import make_workload

from test_guard import _arc_scan, _scan_heap
from test_sim_fastpath import FUZZ_SEEDS, PAPER_WORKLOADS


# -- the execute-based reference loops ----------------------------------------------


def _execute_functional(program, heap):
    """``FunctionalInterpreter.run`` over ``execute``: (state, exec
    counts, indirect targets, steps)."""
    state = ThreadState(0, program.function_entry[program.entry])
    counts, indirect, steps = {}, {}, 0
    while not state.done:
        instr = program.code[state.pc]
        counts[instr.uid] = counts.get(instr.uid, 0) + 1
        if instr.op == "br.call.ind":
            fid = state.read(instr.srcs[0])
            if 0 <= fid < len(program.function_by_id):
                site = indirect.setdefault(instr.uid, {})
                name = program.function_by_id[fid]
                site[name] = site.get(name, 0) + 1
        execute(program, heap, state, instr)
        steps += 1
    return state, counts, indirect, steps


def _execute_shadow(program, heap, fire_limit=8, spec_step_budget=4096,
                    max_chained=4096):
    """``ShadowInterpreter.run`` over ``execute``: (state, spawned
    threads, threads killed by the step budget)."""
    fired = {}
    tally = {"spawned": 0, "killed": 0}

    def speculate(parent, target):
        chained = 0
        pending = [spawn_thread(parent, 1, target)]
        while pending:
            child = pending.pop()
            tally["spawned"] += 1
            steps = 0
            while not child.done:
                if steps >= spec_step_budget:
                    tally["killed"] += 1
                    break
                result = execute(program, heap, child,
                                 program.code[child.pc])
                if result.spawn_target is not None:
                    chained += 1
                    if chained <= max_chained:
                        pending.append(spawn_thread(
                            child, 1, result.spawn_target))
                steps += 1

    state = ThreadState(0, program.function_entry[program.entry])
    while not state.done:
        pc = state.pc
        instr = program.code[pc]
        fires = False
        if instr.op == "chk.c" and fired.get(pc, 0) < fire_limit:
            fired[pc] = fired.get(pc, 0) + 1
            fires = True
        result = execute(program, heap, state, instr, chk_fires=fires)
        if result.spawn_target is not None:
            speculate(state, result.spawn_target)
    return state, tally["spawned"], tally["killed"]


# -- comparison ----------------------------------------------------------------------


def _assert_interpreters_agree(program, heap_factory):
    heap_ref = heap_factory()
    state_ref, counts, indirect, steps = _execute_functional(program,
                                                             heap_ref)
    heap = heap_factory()
    interp = FunctionalInterpreter(program, heap)
    state = interp.run()
    assert interp.exec_counts == counts
    assert interp.indirect_targets == indirect
    assert interp.steps == steps
    assert _architectural_outcome(state) == _architectural_outcome(state_ref)
    assert heap.diff(heap_ref) == []

    heap_ref = heap_factory()
    state_ref, spawned, killed = _execute_shadow(program, heap_ref)
    heap = heap_factory()
    shadow = ShadowInterpreter(program, heap)
    state = shadow.run()
    assert shadow.spawned_threads == spawned
    assert shadow.killed_by_budget == killed
    assert _architectural_outcome(state) == _architectural_outcome(state_ref)
    assert heap.diff(heap_ref) == []
    return shadow


def _original_and_adapted(workload):
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    result = SSPPostPassTool().adapt(program, profile)
    assert result.adapted is not None, result.guard.summary()
    return program, result.adapted.program


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_decoded_interpreters_match_execute_on_paper_workloads(name):
    workload = make_workload(name, "tiny")
    original, adapted = _original_and_adapted(workload)
    _assert_interpreters_agree(original, workload.build_heap)
    shadow = _assert_interpreters_agree(adapted, workload.build_heap)
    assert shadow.spawned_threads > 0


def test_decoded_interpreters_match_execute_on_fuzz_corpus():
    spawned = 0
    for seed in FUZZ_SEEDS:
        workload = FuzzWorkload(seed)
        program = workload.build_program()
        _assert_interpreters_agree(program, workload.build_heap)
        result = SSPPostPassTool().adapt(
            program, collect_profile(program, workload.build_heap))
        if result.adapted is not None:
            shadow = _assert_interpreters_agree(result.adapted.program,
                                                workload.build_heap)
            spawned += shadow.spawned_threads
    assert spawned > 0


def test_decoded_interpreters_match_execute_on_chaining_kernel():
    shadow = _assert_interpreters_agree(_arc_scan(), _scan_heap)
    assert shadow.spawned_threads > 1   # the slice chains


def _dispatch_program(fids):
    """Sum the return values of indirect calls through ``fids``; an id
    past the function table makes the main thread fault."""
    prog = Program(entry="main")
    for name, value in (("f0", 3), ("f1", 5), ("f2", 7)):
        g = FunctionBuilder(prog.add_function(name))
        g.ret(g.mov_imm(value))
    heap = Heap(1 << 14)
    table = heap.alloc(8 * len(fids))
    cell = heap.alloc(8)
    m = FunctionBuilder(prog.add_function("main"))
    m.mov_imm(table, dest="r50")
    m.mov_imm(table + 8 * len(fids), dest="r51")
    m.mov_imm(0, dest="r52")
    m.label("loop")
    fid = m.load("r50", 0)
    m.call_indirect(fid, ret="r53")
    m.add("r52", "r53", dest="r52")
    m.add("r50", imm=8, dest="r50")
    p = m.cmp("lt", "r50", "r51")
    m.br_cond(p, "loop")
    m.store(m.mov_imm(cell), "r52")
    m.halt()
    prog.finalize()

    def heap_factory():
        h = Heap(1 << 14)
        base = h.alloc(8 * len(fids))
        for i, f in enumerate(fids):
            h.store(base + 8 * i, prog.function_id[f"f{f}"]
                    if f < 3 else f)
        h.alloc(8)
        return h

    return prog, heap_factory


def test_indirect_calls_match_execute():
    prog, heap_factory = _dispatch_program([0, 2, 2, 1, 0, 2])
    _assert_interpreters_agree(prog, heap_factory)
    interp = FunctionalInterpreter(prog, heap_factory())
    interp.run()
    (targets,) = interp.indirect_targets.values()
    assert targets == {"f0": 2, "f1": 1, "f2": 3}


def _edge_program():
    """Corner cases no workload reaches.

    The main thread writes ``r0`` and ``p0`` (both must stay hard-wired)
    and prefetches an unmapped address.  Its slice loads an unmapped
    address, which must read as a deferred zero: only then does it chain
    into a second slice, which dies on a bad indirect call.
    """
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    heap = Heap(1 << 14)
    out = heap.alloc(8)
    fb.mov_imm(5, dest="r50")
    fb.mov("r50", dest="r0")
    fb.add("r0", imm=1, dest="r53")
    fb.add("r50", imm=1, dest="r0")
    fb.cmp("eq", "r50", "r0", dest="p0")
    fb.add("r0", imm=7, dest="r51")
    fb.prefetch("r0", 8)
    fb.chk_c("stub")
    fb.add("r51", imm=1, dest="r52", pred="p0")
    fb.store(fb.mov_imm(out), "r52")
    fb.halt()

    fb.label("stub")
    fb.lib_store(0, "r51")
    fb.spawn("slice")
    fb.rfi()

    fb.label("slice")
    fb.lib_load(0, dest="r60")
    fb.load("r0", 8, dest="r61")
    p = fb.cmp("eq", "r61", imm=0)
    fb.emit(Instruction(op="spawn", target="slice2", pred=p))
    fb.kill()

    fb.label("slice2")
    fb.mov_imm(99, dest="r62")
    fb.call_indirect("r62")
    fb.kill()
    prog.finalize()

    def heap_factory():
        h = Heap(1 << 14)
        h.alloc(8)
        return h

    return prog, heap_factory


def test_hardwired_registers_and_deferred_faults_match_execute():
    prog, heap_factory = _edge_program()
    shadow = _assert_interpreters_agree(prog, heap_factory)
    assert shadow.spawned_threads == 2   # the deferred zero chains


@pytest.mark.parametrize("fire_limit", [0, 1, 2])
def test_containment_budgets_match_execute(fire_limit):
    program = _arc_scan()
    for budget in range(1, 14):
        for max_chained in (0, 1, 5):
            heap_ref = _scan_heap()
            state_ref, spawned, killed = _execute_shadow(
                program, heap_ref, fire_limit=fire_limit,
                spec_step_budget=budget, max_chained=max_chained)
            heap = _scan_heap()
            shadow = ShadowInterpreter(program, heap, fire_limit=fire_limit,
                                       spec_step_budget=budget,
                                       max_chained=max_chained)
            state = shadow.run()
            key = (budget, max_chained)
            assert (shadow.spawned_threads, shadow.killed_by_budget) == \
                (spawned, killed), key
            assert _architectural_outcome(state) == \
                _architectural_outcome(state_ref), key
            assert heap.diff(heap_ref) == [], key


def _error_of(run):
    try:
        run()
    except ExecutionError as exc:
        return type(exc), str(exc)
    raise AssertionError("expected an ExecutionError")


def test_error_messages_match_execute():
    # A bad indirect call target in the main thread.
    prog, heap_factory = _dispatch_program([0, 9])
    assert _error_of(lambda: FunctionalInterpreter(
        prog, heap_factory()).run()) == _error_of(
        lambda: _execute_functional(prog, heap_factory()))
    # A speculative store: the shadow wraps execute's message.
    prog = _arc_scan("spec_store")
    kind, message = _error_of(lambda: ShadowInterpreter(
        prog, _scan_heap()).run())
    assert kind is SpeculativeEffectError
    assert (ExecutionError, message) == _error_of(
        lambda: _execute_shadow(prog, _scan_heap()))
