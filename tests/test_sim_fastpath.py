"""Differential suite for the simulators' pre-decoded run loops.

Each production ``run()`` (pre-decoded issue tables, hoisted locals,
inline accounting) must be *byte-identical* to the Instruction-object
reference loop of ``tests/sim_reference.py``: same cycles, same Figure
10 breakdown, same spawn/chk/prefetch counters, on every paper workload
and on randomly generated programs.  These tests are the gate for that
claim:

* all seven paper workloads x both machine models, one shared adapted
  binary per workload (adaptation itself is deterministic; sharing it
  isolates the comparison to the simulators),
* a fuzz corpus of generated workloads through the same comparison,
* the accounting invariant ``sum(cycle_breakdown) == cycles``.
"""

from __future__ import annotations

import pytest

from repro import SSPPostPassTool, collect_profile
from repro.check.fuzz import FuzzWorkload
from repro.sim.machine import make_config, make_simulator
from repro.workloads.base import make_workload

from sim_reference import ReferenceInOrderSimulator, ReferenceOOOSimulator

PAPER_WORKLOADS = ("mcf", "em3d", "health", "mst", "vpr",
                   "treeadd.df", "treeadd.bf")
MODELS = ("inorder", "ooo")

FUZZ_SEEDS = tuple(range(25))

REFERENCE = {"inorder": ReferenceInOrderSimulator,
             "ooo": ReferenceOOOSimulator}


def _adapted(workload):
    """One adapted binary, shared between the production and reference
    runs."""
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    result = SSPPostPassTool().adapt(program, profile)
    return result.program if result.program is not None else program


def _run(program, workload, model, reference=False):
    heap = workload.build_heap()
    if reference:
        sim = REFERENCE[model](program, heap, make_config(model))
    else:
        sim = make_simulator(program, heap, model=model)
    sim.run()
    return sim.stats.to_dict()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_fast_path_byte_identical_on_paper_workloads(name, model):
    w = make_workload(name, "tiny")
    adapted = _adapted(w)
    fast = _run(adapted, w, model)
    ref = _run(adapted, w, model, reference=True)
    assert fast == ref
    assert sum(fast["cycle_breakdown"].values()) == fast["cycles"]


@pytest.mark.parametrize("model", MODELS)
def test_fast_path_byte_identical_on_fuzz_corpus(model):
    mismatches = []
    for seed in FUZZ_SEEDS:
        w = FuzzWorkload(seed)
        adapted = _adapted(w)
        fast = _run(adapted, w, model)
        ref = _run(adapted, w, model, reference=True)
        if fast != ref:
            diff = {k: (fast[k], ref[k]) for k in fast
                    if fast[k] != ref[k]}
            mismatches.append((seed, diff))
        assert sum(fast["cycle_breakdown"].values()) == fast["cycles"], seed
    assert not mismatches


@pytest.mark.parametrize("model", MODELS)
def test_breakdown_sums_to_cycles_without_spawning(model):
    # The invariant must hold on the unadapted binary too (no spec
    # threads, different stall mix).
    w = make_workload("mcf", "tiny")
    sim = make_simulator(w.build_program(), w.build_heap(), model=model,
                         spawning=False)
    sim.run()
    assert sum(sim.stats.cycle_breakdown.values()) == sim.stats.cycles
