"""A host-independent guard on the simulator loops' cost.

The profile the post-pass tool consumes is one in-order base run, so the
cost of that loop is the tool's turnaround.  Wall time is too noisy to
gate on a shared host; the number of Python-level function calls per
issued main-thread instruction is not.  The loop makes one call per
instruction (its decoded step closure, predicated or not) plus
``MemorySystem.access`` per memory operation,
``GsharePredictor.predict_and_update`` per conditional branch and the
decoded ALU/compare callables; a helper call creeping back onto
the per-instruction or per-cycle path raises the count on every
interpreter version, without timing anything.

The SSP rows bound both models' loops with speculative threads running,
where the shared context policy (:mod:`repro.sim.smt`) is called: per
executed instruction, main and speculative.  The OOO base rows bound the
out-of-order loop alone, which carries the Figure 8 OOO column.

Every bound is the count measured on the tiny workload plus 10%.  The
ALU and ``cmp`` operations are C ``operator`` functions, so they make no
Python-level call; each model's count is then one step closure per
instruction plus the memory, predictor and context-policy calls.

The opcode rows bound the in-order loop's own work, which a call count
cannot see: bytecodes executed in ``InOrderSimulator.run`` itself per
issued main-thread instruction of the tiny base run, which never
compiles its stretch.  The compiled rows bound the same on the compiled
stretch (``repro.sim.groups``, threshold lowered to 0): bytecodes in
``run`` and in the compiled code per issued main-thread instruction of
the small base run.  Bytecode differs between interpreter versions, so
these rows are pinned on 3.11 and 3.12 only.
"""

from __future__ import annotations

import sys

import pytest

import repro.sim.inorder as inorder
from repro.runner.worker import WorkloadArtifacts
from repro.sim import make_simulator
from repro.sim.config import inorder_config
from repro.sim.inorder import InOrderSimulator
from repro.workloads import make_workload

#: Calls per issued main-thread instruction of the tiny in-order base
#: run, as measured (1.625, 1.246, 1.449), plus 10%.
CALL_BUDGET = {"em3d": 1.625 * 1.1, "vpr": 1.246 * 1.1, "mcf": 1.449 * 1.1}

#: Calls per executed instruction (main + speculative) of the tiny SSP
#: runs, as measured, plus 10%.
SSP_CALL_BUDGET = {
    ("inorder", "em3d"): 1.746 * 1.1, ("inorder", "vpr"): 1.355 * 1.1,
    ("inorder", "mcf"): 1.552 * 1.1,
    ("ooo", "em3d"): 1.747 * 1.1, ("ooo", "vpr"): 1.396 * 1.1,
    ("ooo", "mcf"): 1.552 * 1.1,
}

#: Calls per executed instruction of the tiny OOO base runs, as
#: measured, plus 10%.
OOO_BASE_CALL_BUDGET = {"em3d": 1.626 * 1.1, "vpr": 1.247 * 1.1,
                        "mcf": 1.450 * 1.1}


#: Bytecodes executed in ``InOrderSimulator.run`` per issued main-thread
#: instruction of the tiny in-order base run, as measured on 3.11 (221.4,
#: 185.7, 210.5; 3.12 measured 222.7, 188.1, 212.8), plus 10%.
OPCODE_BUDGET = {"em3d": 221.4 * 1.1, "vpr": 185.7 * 1.1,
                 "mcf": 210.5 * 1.1}


def count_calls(sim):
    """Run ``sim`` counting Python-level calls: (stats, calls)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        stats = sim.run()
    finally:
        sys.setprofile(previous)
    return stats, calls


def calls_per_instruction(name: str) -> float:
    workload = make_workload(name, "tiny")
    sim = InOrderSimulator(workload.build_program(), workload.build_heap(),
                           inorder_config(), spawning=False)
    stats, calls = count_calls(sim)
    return calls / stats.main_instructions


@pytest.mark.parametrize("name", sorted(CALL_BUDGET))
def test_calls_per_issued_instruction(name):
    measured = calls_per_instruction(name)
    assert measured <= CALL_BUDGET[name], (
        f"{name}: {measured:.3f} Python calls per issued main-thread "
        f"instruction, budget {CALL_BUDGET[name]:.3f}")


@pytest.mark.parametrize("model,name", sorted(SSP_CALL_BUDGET))
def test_ssp_calls_per_executed_instruction(model, name):
    artifacts = WorkloadArtifacts(name, "tiny")
    sim = make_simulator(artifacts.tool_result.program,
                         artifacts.workload.build_heap(), model)
    stats, calls = count_calls(sim)
    assert stats.spawns > 0
    measured = calls / (stats.main_instructions + stats.spec_instructions)
    assert measured <= SSP_CALL_BUDGET[model, name], (
        f"{model} {name}: {measured:.3f} Python calls per executed "
        f"instruction, budget {SSP_CALL_BUDGET[model, name]:.3f}")


@pytest.mark.parametrize("name", sorted(OOO_BASE_CALL_BUDGET))
def test_ooo_base_calls_per_executed_instruction(name):
    workload = make_workload(name, "tiny")
    sim = make_simulator(workload.build_program(), workload.build_heap(),
                         "ooo")
    stats, calls = count_calls(sim)
    assert stats.spec_instructions == 0
    measured = calls / stats.main_instructions
    assert measured <= OOO_BASE_CALL_BUDGET[name], (
        f"ooo {name}: {measured:.3f} Python calls per executed "
        f"instruction, budget {OOO_BASE_CALL_BUDGET[name]:.3f}")


#: Bytecodes executed in ``InOrderSimulator.run`` and the compiled
#: stretch per issued main-thread instruction of the small in-order base
#: run, compiled from its first cycle, as measured on 3.11 (116.5, 76.9,
#: 96.0), plus 10%.
COMPILED_OPCODE_BUDGET = {"em3d": 116.5 * 1.1, "vpr": 76.9 * 1.1,
                          "mcf": 96.0 * 1.1}


def count_run_opcodes(sim):
    """Run ``sim`` counting the bytecodes its ``run`` frame and the
    compiled stretch's code execute: (stats, opcodes)."""
    code = InOrderSimulator.run.__code__
    opcodes = 0

    def count(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return count

    def calls(frame, event, arg):
        if frame.f_code is not code \
                and frame.f_code.co_filename != "<issue groups>":
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        stats = sim.run()
    finally:
        sys.settrace(previous)
    return stats, opcodes


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 11), (3, 12)),
                    reason="bytecode counts are pinned on 3.11 and 3.12")
@pytest.mark.parametrize("name", sorted(OPCODE_BUDGET))
def test_run_loop_opcodes_per_issued_instruction(name):
    workload = make_workload(name, "tiny")
    # On 3.12 the first traced run in a process has been seen to report
    # no opcode events at all; a zero count measures nothing, so it is
    # taken again once and must then be non-zero.
    for _ in range(2):
        sim = InOrderSimulator(workload.build_program(),
                               workload.build_heap(), inorder_config(),
                               spawning=False)
        stats, opcodes = count_run_opcodes(sim)
        if opcodes:
            break
    assert opcodes > 0, "no opcode events were traced"
    measured = opcodes / stats.main_instructions
    assert measured <= OPCODE_BUDGET[name], (
        f"{name}: {measured:.1f} run-loop bytecodes per issued main-thread "
        f"instruction, budget {OPCODE_BUDGET[name]:.1f}")


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 11), (3, 12)),
                    reason="bytecode counts are pinned on 3.11 and 3.12")
@pytest.mark.parametrize("name", sorted(COMPILED_OPCODE_BUDGET))
def test_compiled_opcodes_per_issued_instruction(name, monkeypatch):
    monkeypatch.setattr(inorder, "COMPILE_AFTER", 0)
    workload = make_workload(name, "small")
    for _ in range(2):
        sim = InOrderSimulator(workload.build_program(),
                               workload.build_heap(), inorder_config(),
                               spawning=False)
        stats, opcodes = count_run_opcodes(sim)
        if opcodes:
            break
    assert opcodes > 0, "no opcode events were traced"
    measured = opcodes / stats.main_instructions
    assert measured <= COMPILED_OPCODE_BUDGET[name], (
        f"{name}: {measured:.1f} bytecodes per issued main-thread "
        f"instruction on the compiled stretch, budget "
        f"{COMPILED_OPCODE_BUDGET[name]:.1f}")
