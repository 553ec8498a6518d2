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


def test_ooo_checkpoint_sees_the_loop_state():
    """The OOO loop keeps its tie counter and end cycle in locals; each
    checkpoint must see them current: every queued tie already issued,
    and the end cycle set exactly once the main thread is done.  On tiny
    health, speculative threads still fetch after the main thread's halt
    retired, so some checkpoints fall after it."""
    health = WorkloadArtifacts("health", "tiny")
    sim = make_simulator(health.tool_result.program,
                         health.workload.build_heap(), "ooo")
    after_main = []

    def check(s):
        snap = s.snapshot()
        assert snap["_tie"] >= max(tie for _, tie, _ in snap["_queue"])
        assert (snap["_end_cycle"] is not None) == s.main_done
        after_main.append(s.main_done)

    sim.run(checkpoint_every=1, on_checkpoint=check)
    assert any(after_main) and not all(after_main)


@pytest.mark.parametrize("every", [1, 89])
@pytest.mark.parametrize("variant", ["base", "ssp"])
@pytest.mark.parametrize("name", ["health", "mcf", "treeadd.df"])
def test_inorder_checkpoint_sees_the_loop_state(name, variant, every):
    """The in-order main thread issues alone cycle after cycle with its
    instruction and Figure 10 counts in locals; each checkpoint must see
    them written back: the breakdown covers every cycle so far, and the
    main-thread instruction count matches the per-pc issue counts.  A
    checkpoint every cycle bounds each stretch to one cycle; one every
    89 cycles lets stretches run between checkpoints."""
    artifacts = WorkloadArtifacts(name, "tiny")
    program = (artifacts.tool_result.program if variant == "ssp"
               else artifacts.workload.build_program())
    sim = make_simulator(program, artifacts.workload.build_heap(),
                         "inorder", spawning=variant == "ssp")
    seen = []

    def check(s):
        assert sum(s.stats.cycle_breakdown.values()) == s.cycle
        assert sum(s._issue_counts) == s.stats.main_instructions
        seen.append(s.cycle)

    stats = sim.run(checkpoint_every=every, on_checkpoint=check)
    assert len(seen) > 100
    assert (stats.spawns > 0) == (variant == "ssp")


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
