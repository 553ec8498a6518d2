"""The static equivalence proof in front of the differential check.

``prove_equivalent`` only ever accepts: when it goes through, the tool
ships the binary without the shadow run; when any obligation fails, the
tool runs ``differential_check`` exactly as before.  These tests pin that
the proof accepts the real adaptations, never accepts what the shadow
run rejects, refuses each kind of unsound mutant, and leaves every
rollback as the shadow run alone would make it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.fuzz import FuzzWorkload
from repro.check.lint import lint_program
from repro.check.proof import prove_equivalent
from repro.codegen.verify import differential_check
from repro.guard import faultinject, injecting
from repro.isa.instructions import Instruction
from repro.obs.tracer import Tracer
from repro.profiling import collect_profile
from repro.tool import SSPPostPassTool, postpass
from repro.workloads import PAPER_ORDER, make_workload

#: The fuzz corpus base seed of ``python -m repro check --fuzz``.
FUZZ_BASE = 20020617


def _profiled(workload):
    program = workload.build_program()
    return program, collect_profile(program, workload.build_heap)


def _adapt(workload, program, profile):
    tracer = Tracer()
    result = SSPPostPassTool(tracer=tracer).adapt(
        program, profile, heap_factory=workload.build_heap)
    return result, tracer


def _verify_span(tracer):
    (span,) = [s for s in tracer.spans if s.name == "verify"]
    return span


# -- acceptance ---------------------------------------------------------------------


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_every_workload_ships_on_the_static_path(name):
    workload = make_workload(name, "tiny")
    program, profile = _profiled(workload)
    result, tracer = _adapt(workload, program, profile)
    assert result.adapted is not None
    assert not result.guard.rollbacks
    assert _verify_span(tracer).metrics["mode"] == "static"
    counters = tracer.counters_snapshot()
    assert counters["guard.verify.static"] == 1
    assert "guard.verify.dynamic" not in counters
    assert not [e for e in tracer.events
                if e["name"] == "differential_check"]


def _accepts_only_equivalent(workload):
    program, profile = _profiled(workload)
    result = SSPPostPassTool().adapt(program, profile)
    if result.adapted is None:
        return None
    adapted = result.adapted.program
    proved = prove_equivalent(program, adapted, profile,
                              workload.build_heap) is None
    if proved:
        assert differential_check(program, adapted, workload.build_heap,
                                  reference=profile.reference).equivalent
    return proved


def test_static_acceptance_implies_shadow_equivalence():
    proved = [_accepts_only_equivalent(make_workload(name, "tiny"))
              for name in PAPER_ORDER]
    proved += [_accepts_only_equivalent(FuzzWorkload(FUZZ_BASE + i))
               for i in range(200)]
    # The implication is not vacuous: nearly every binary is proved.
    assert proved.count(True) >= 200


# -- mutants of real tool output ---------------------------------------------------


def _block(program, prefix):
    return next(b for f in program.functions.values() for b in f.blocks
                if b.label.startswith(prefix))


def _slice_store(program):
    block = _block(program, ".ssp_slice")
    block.instrs.insert(len(block.instrs) - 1, Instruction(
        op="st", srcs=("r40", "r41"), imm=0))


def _main_operand(program):
    """Same uid, different operand: only a content match sees it."""
    block = program.function("main").block("arc_loop")
    index = next(i for i, instr in enumerate(block.instrs)
                 if instr.op == "add" and instr.dest == "r110")
    block.instrs[index] = dataclasses.replace(
        block.instrs[index], srcs=("r110", "r43"))


def _stub_write(program):
    _block(program, ".ssp_stub").instrs.insert(0, Instruction(
        op="add", dest="r100", srcs=("r100",), imm=64))


def _slice_shift(program):
    block = _block(program, ".ssp_slice")
    block.instrs.insert(len(block.instrs) - 1, Instruction(
        op="shl", dest="r60", srcs=("r41", "r100")))


def _slice_slot(program):
    """Slot 16, past the live-in buffer, written by the stub and read by
    the slice, so the slots still agree."""
    _block(program, ".ssp_stub").instrs.insert(0, Instruction(
        op="lib.st", srcs=("r100",), imm=16))
    _block(program, ".ssp_slice").instrs.insert(0, Instruction(
        op="lib.ld", dest="r60", imm=16))


MUTANTS = {
    "slice_store": _slice_store,
    "main_operand": _main_operand,
    "stub_write": _stub_write,
    "slice_shift": _slice_shift,
    "slice_slot": _slice_slot,
}


@pytest.fixture(scope="module")
def mcf():
    workload = make_workload("mcf", "tiny")
    program, profile = _profiled(workload)
    return workload, program, profile


def _mutant(mcf, mutate):
    workload, program, profile = mcf
    adapted = SSPPostPassTool().adapt(program, profile).adapted.program
    mutant = adapted.clone()
    mutate(mutant)
    return mutant.finalize()


@pytest.mark.parametrize("kind", sorted(MUTANTS))
def test_proof_refuses_mutant(mcf, kind):
    workload, program, profile = mcf
    mutant = _mutant(mcf, MUTANTS[kind])
    assert prove_equivalent(program, mutant, profile,
                            workload.build_heap) is not None


def test_lint_reports_a_changed_main_operand(mcf):
    workload, program, profile = mcf
    mutant = _mutant(mcf, _main_operand)
    assert "trig.main-code-preserved" in {
        v.rule for v in lint_program(program, mutant)}


def test_proof_refuses_a_binary_edited_after_linking(mcf):
    workload, program, profile = mcf
    adapted = SSPPostPassTool().adapt(program, profile).adapted.program
    assert prove_equivalent(program, adapted, profile,
                            workload.build_heap) is None
    _slice_store(adapted)
    failed = prove_equivalent(program, adapted, profile,
                              workload.build_heap)
    assert failed.startswith("verify: the linked code")


def _tool_on_mutants(mcf, monkeypatch, mutate, proof):
    """Adapt with every emission mutated; ``proof`` stands in for
    ``prove_equivalent``."""
    workload, program, profile = mcf
    emit = SSPPostPassTool._emit_all

    def mutated(self, original, placements):
        adapted = emit(self, original, placements)
        if adapted is not None:
            mutate(adapted.program)
            adapted.program.finalize()
        return adapted

    with monkeypatch.context() as patch:
        patch.setattr(SSPPostPassTool, "_emit_all", mutated)
        patch.setattr(postpass, "prove_equivalent", proof)
        result, tracer = _adapt(workload, program, profile)
    checks = [e["args"] for e in tracer.events
              if e["name"] == "differential_check"]
    return result, checks


@pytest.mark.parametrize("kind", sorted(MUTANTS))
def test_mutant_rollback_is_the_shadow_runs(mcf, monkeypatch, kind):
    """The rollback with the proof in front equals the rollback of the
    shadow run alone (the proof stubbed out to always give up)."""
    mutate = MUTANTS[kind]
    with_proof, checks = _tool_on_mutants(mcf, monkeypatch, mutate,
                                          prove_equivalent)
    shadow_only, shadow_checks = _tool_on_mutants(
        mcf, monkeypatch, mutate, lambda *args: "proof disabled")
    assert checks == shadow_checks
    assert with_proof.guard.to_dict() == shadow_only.guard.to_dict()
    assert (with_proof.adapted is None) == (shadow_only.adapted is None)
    if with_proof.adapted is not None:
        assert with_proof.adapted.program.disassemble() == \
            shadow_only.adapted.program.disassemble()
    if kind != "slice_shift":
        # Every mutant but the shift (its amount happens to be in range
        # on this heap) is unsound and must not ship.
        assert with_proof.guard.rollbacks


# -- fault injection and observability ---------------------------------------------


def test_armed_mismatch_site_takes_the_shadow_run(mcf):
    workload, program, profile = mcf
    with injecting("verify.mismatch") as injector:
        assert faultinject.armed("verify.mismatch")
        assert not faultinject.armed("slice.exception")
        result, tracer = _adapt(workload, program, profile)
    assert injector.fired["verify.mismatch"] == 1
    assert result.adapted is None
    assert [r["reason"] for r in result.guard.rollbacks] == [
        "injected fault at site 'verify.mismatch'"]
    assert _verify_span(tracer).metrics["mode"] == "dynamic"
    assert tracer.counters_snapshot()["guard.verify.dynamic"] == 1
    assert not faultinject.armed("verify.mismatch")


def test_unprofiled_program_takes_the_shadow_run(mcf):
    workload, program, profile = mcf
    copy = program.clone().finalize()
    result, tracer = _adapt(workload, copy, profile)
    assert result.adapted is not None
    assert _verify_span(tracer).metrics["mode"] == "dynamic"
    assert not [e for e in tracer.events if e["name"] == "static_proof"]
