"""A host-independent guard on the in-order issue loop's cost.

The profile the post-pass tool consumes is one in-order base run, so the
cost of that loop is the tool's turnaround.  Wall time is too noisy to
gate on a shared host; the number of Python-level function calls per
issued main-thread instruction is not.  The loop makes one call per
instruction (``step_decoded``) plus ``MemorySystem.access`` per memory
operation, ``GsharePredictor.predict_and_update`` per conditional branch
and the decoded ALU/compare callables; a helper call creeping back onto
the per-instruction or per-cycle path raises the count on every
interpreter version, without timing anything.
"""

from __future__ import annotations

import sys

import pytest

from repro.sim.config import inorder_config
from repro.sim.inorder import InOrderSimulator
from repro.workloads import make_workload

#: Calls per issued main-thread instruction of the tiny in-order base
#: run, as measured (1.97, 1.73, 1.89), plus 10%.
CALL_BUDGET = {"em3d": 1.97 * 1.1, "vpr": 1.73 * 1.1, "mcf": 1.89 * 1.1}


def calls_per_instruction(name: str) -> float:
    workload = make_workload(name, "tiny")
    sim = InOrderSimulator(workload.build_program(), workload.build_heap(),
                           inorder_config(), spawning=False)
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
    return calls / stats.main_instructions


@pytest.mark.parametrize("name", sorted(CALL_BUDGET))
def test_calls_per_issued_instruction(name):
    measured = calls_per_instruction(name)
    assert measured <= CALL_BUDGET[name], (
        f"{name}: {measured:.3f} Python calls per issued main-thread "
        f"instruction, budget {CALL_BUDGET[name]:.3f}")
