"""A host-independent guard on the simulator loops' cost.

The profile the post-pass tool consumes is one in-order base run, so the
cost of that loop is the tool's turnaround.  Wall time is too noisy to
gate on a shared host; the number of Python-level function calls per
issued main-thread instruction is not.  The loop makes one call per
instruction (``step_decoded``) plus ``MemorySystem.access`` per memory
operation, ``GsharePredictor.predict_and_update`` per conditional branch
and the decoded ALU/compare callables; a helper call creeping back onto
the per-instruction or per-cycle path raises the count on every
interpreter version, without timing anything.

The SSP rows bound both models' loops with speculative threads running,
where the shared context policy (:mod:`repro.sim.smt`) is called: per
executed instruction, main and speculative.  The OOO base rows bound the
out-of-order loop alone, which carries the Figure 8 OOO column.

Every bound is the count measured on the tiny workload plus 10%.  The
ALU and ``cmp`` operations are C ``operator`` functions, so they make no
Python-level call; each model's count is then one ``step_decoded`` per
instruction plus the memory, predictor and context-policy calls.
"""

from __future__ import annotations

import sys

import pytest

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
