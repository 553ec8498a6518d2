"""The compiled stretch (``repro.sim.groups``) against the interpreted one.

Once a run has issued enough main-thread instructions, the in-order
model runs its main-thread stretches through issue groups compiled from
the program.  Nothing observable may change: these tests run each case
twice, compiled from the first cycle (``COMPILE_AFTER`` lowered to 0)
and never compiled, and compare the statistics, the issue counts, the
indirect-call profile, the final heap and main-thread state, and every
checkpoint snapshot.  They also step each case of
``tests/test_isa_step_closures.py`` through a one-instruction group
against the reference ``execute``, and pin which runs compile at all.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import pytest

import repro.sim.inorder as inorder
from repro.check.fuzz import FuzzWorkload
from repro.isa.decode import decode_program
from repro.isa.interp import ExecutionError
from repro.runner.worker import WorkloadArtifacts
from repro.sim import groups
from repro.sim.config import inorder_config
from repro.sim.inorder import InOrderSimulator
from repro.workloads import PAPER_ORDER, make_workload

import test_isa_step_closures as closures
from sim_reference import execute
from test_sim_fastpath import _adapted

#: A threshold no test run reaches.
NEVER = 1 << 40

FUZZ_SEEDS = range(50)


def _simulate(program, heap, compile_after, spawning=True, **run):
    """A finished in-order run with ``COMPILE_AFTER`` set, and the issue
    counts of the cycles its compiled stretches issued."""
    issued = []
    real = InOrderSimulator._compiled_stretch

    def counted(self, main, now):
        stretch, at = real(self, main, now)
        if stretch is None:
            return stretch, at

        def counting(*args):
            out = stretch(*args)
            if out is not None:
                issued.append(out[1] + out[2])
            return out
        counting.release = stretch.release
        return counting, at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inorder, "COMPILE_AFTER", compile_after)
        mp.setattr(InOrderSimulator, "_compiled_stretch", counted)
        sim = InOrderSimulator(program, heap, inorder_config(),
                               spawning=spawning)
        sim.run(**run)
    return sim, sum(issued)


def _observed(sim):
    main = sim.contexts[0]
    return {
        "stats": sim.stats.to_dict(),
        "exec_counts": sim.exec_counts,
        "indirect_targets": sim.indirect_targets,
        "heap": sim.heap.digest(),
        "main": (sim.main_state.named(), sim.main_state.pc,
                 sim.main_state.halted, sim.main_state.killed),
        "timing": (sim._rr, sim._now, main.wake, main.stall_until,
                   main.ready_bound, main.reg_ready, main.reg_level),
    }


def _assert_same(program, heap_factory, spawning=True):
    interpreted, _ = _simulate(program, heap_factory(), NEVER, spawning)
    compiled, issued = _simulate(program, heap_factory(), 0, spawning)
    assert _observed(compiled) == _observed(interpreted)
    return compiled, issued


@functools.lru_cache(maxsize=None)
def _artifacts(name, scale):
    return WorkloadArtifacts(name, scale)


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("variant", ["base", "ssp"])
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_paper_kernels_are_identical(name, variant, scale):
    artifacts = _artifacts(name, scale)
    workload = artifacts.workload
    program = artifacts.tool_result.program if variant == "ssp" \
        else workload.build_program()
    compiled, issued = _assert_same(program, workload.build_heap,
                                    spawning=variant == "ssp")
    if variant == "ssp":
        # Speculative contexts live through most of an SSP run; the
        # groups run the gaps between them.
        assert compiled.stats.spawns > 0
        assert issued > 0
    else:
        assert issued == compiled.stats.main_instructions


def test_fuzz_corpus_is_identical():
    for seed in FUZZ_SEEDS:
        workload = FuzzWorkload(seed)
        for program in (workload.build_program(), _adapted(workload)):
            _assert_same(program, workload.build_heap)


@pytest.mark.parametrize("variant", ["base", "ssp"])
def test_resume_from_every_checkpoint(variant):
    """Snapshots taken every 997 cycles of a compiled run are the
    interpreted run's, byte for byte, and each resumes to its result."""
    artifacts = _artifacts("mcf", "tiny")
    workload = artifacts.workload
    program = artifacts.tool_result.program if variant == "ssp" \
        else workload.build_program()
    runs = {}
    for label, after in (("interpreted", NEVER), ("compiled", 0)):
        snaps = []
        sim, _ = _simulate(
            program, workload.build_heap(), after,
            checkpoint_every=997,
            on_checkpoint=lambda s: snaps.append(pickle.dumps(s.snapshot())))
        runs[label] = (_observed(sim), snaps)
    final, snaps = runs["compiled"]
    assert runs["interpreted"] == (final, snaps)
    assert len(snaps) > 20
    for snap in snaps:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inorder, "COMPILE_AFTER", 0)
            sim = InOrderSimulator(program, workload.build_heap(),
                                   inorder_config())
            sim.restore(pickle.loads(snap))
            sim.run()
        resumed = _observed(sim)
        # A restored simulator counts issues from the restore.
        assert resumed["stats"] == final["stats"]
        assert resumed["heap"] == final["heap"]
        assert resumed["timing"] == final["timing"]


# -- each closure case through a one-instruction group ------------------------


def _grouped(pc, fire):
    """Issue the instruction at ``pc`` of the closure cases' program as a
    one-instruction compiled group, on the main thread."""
    config = dataclasses.replace(inorder_config(), bundle_size=1,
                                 bundles_per_cycle=1)
    program = closures.PROGRAM
    compiled = groups.render(program, decode_program(program), config,
                             roots=[pc])
    heap = closures._heap()
    sim = InOrderSimulator(program, heap, config, spawning=fire)
    main = sim._begin()
    state = main.state = sim.main_state = closures._state(pc, False)
    stretch = compiled.bind(sim, main)
    try:
        out = stretch(1, 0, 0, 2)
    except ExecutionError as exc:
        return state, heap, (type(exc), str(exc))
    finally:
        stretch.release()
    assert out is not None and out[1] == 1
    return state, heap, None


@pytest.mark.parametrize("fire", [False, True])
@pytest.mark.parametrize("key", list(closures.PCS),
                         ids=lambda k: f"{k[0]}-{k[1]}")
def test_closure_case_as_a_group(key, fire):
    pc = closures.PCS[key]
    state, heap, error = _grouped(pc, fire)
    ref_state, ref_heap = closures._state(pc, False), closures._heap()
    _, ref_error = closures._outcome(lambda: execute(
        closures.PROGRAM, ref_heap, ref_state, closures.PROGRAM.code[pc],
        fire))
    assert error == ref_error
    assert closures._architectural(state, heap) == \
        closures._architectural(ref_state, ref_heap)


# -- which runs compile -------------------------------------------------------


def _compiles(name, scale):
    calls = []
    real = groups.compile_stretch

    def counting(*args):
        calls.append(args)
        return real(*args)

    workload = make_workload(name, scale)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "compile_stretch", counting)
        InOrderSimulator(workload.build_program(), workload.build_heap(),
                         inorder_config(), spawning=False).run()
    return len(calls)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_tiny_base_run_does_not_compile(name):
    assert _compiles(name, "tiny") == 0


def test_default_base_run_compiles():
    assert _compiles("health", "default") == 1
