"""The shared SMT context policy (:mod:`repro.sim.smt`).

Both machine models allocate, release and gate hardware contexts through
one :class:`~repro.sim.smt.SMTSimulator`; these tests pin the policy
itself and the checkpoint/resume state it owns.
"""

import pickle

import pytest

from repro.runner.worker import WorkloadArtifacts
from repro.sim import make_simulator


@pytest.fixture(scope="module")
def treeadd():
    return WorkloadArtifacts("treeadd.df", "tiny")


@pytest.mark.parametrize("model", ["inorder", "ooo"])
def test_resume_from_every_checkpoint(treeadd, model):
    """A simulator restored from any checkpoint finishes with the
    uninterrupted run's statistics, also when a speculative context died
    in the cycle before the snapshot and is not yet reaped."""
    program = treeadd.tool_result.program
    snaps = []
    sim = make_simulator(program, treeadd.workload.build_heap(), model)
    whole = sim.run(checkpoint_every=211, on_checkpoint=lambda s:
                    snaps.append(pickle.dumps(s.snapshot()))).to_dict()
    assert len(snaps) > 50
    for snap in snaps:
        resumed = make_simulator(program, treeadd.workload.build_heap(),
                                 model)
        resumed.restore(pickle.loads(snap))
        assert resumed.run().to_dict() == whole


@pytest.mark.parametrize("model", ["inorder", "ooo"])
def test_spawn_takes_the_lowest_free_context(treeadd, model):
    sim = make_simulator(treeadd.tool_result.program,
                         treeadd.workload.build_heap(), model)
    sim._begin()
    parent = sim.main_state
    children = [sim._spawn(parent, 0, 5, 10)
                for _ in range(sim.config.hardware_contexts - 1)]
    assert sim.contexts[1:] == children
    assert [c.state.tid for c in children] == [1, 2, 3]
    assert children[0].spawn_cycle == 10
    assert sim._spawn(parent, 0, 5, 10) is None
    assert not sim._chk_gate(0)
    sim._release(2, 7)
    assert sim._chk_gate(0)
    assert sim._spawn(parent, 0, 8, 10) is sim.contexts[2]
    assert (sim.stats.spawns, sim.stats.spawn_failures,
            sim.stats.threads_completed) == (4, 1, 1)
