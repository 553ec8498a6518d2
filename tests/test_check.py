"""Tests for the repro.check correctness subsystem.

Covers the binary linter (synthetic violations of every rule family plus
clean bills for all seven workloads), the cross-model differential oracle
(with and without runaway-slice budgets), the pipeline fuzzer, and the
``check`` CLI subcommand.
"""

import dataclasses
import random

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import (
    block_liveness,
    instruction_defs,
    instruction_uses,
)
from repro.check.fuzz import FuzzWorkload, run_case, run_fuzz
from repro.check.lint import is_speculative, lint_program
from repro.check.oracle import (
    _inserted_instructions,
    count_inserted_triggers,
    run_oracle,
)
from repro.isa import FunctionBuilder, Program
from repro.isa import registers as regs
from repro.isa.instructions import Instruction
from repro.isa.program import ProgramError
from repro.profiling import collect_profile
from repro.tool import SSPPostPassTool
from repro.runner.worker import WorkloadArtifacts
from repro.tool.cli import main
from repro.workloads import PAPER_ORDER


def _base_program():
    """A list-walk kernel with one nop trigger slot; returns the program
    and the uid of its delinquent (chase) load."""
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    fb.mov_imm(4096, dest="r50")
    fb.nop()
    fb.label("loop")
    fb.load("r50", 8, dest="r51")
    fb.load("r50", 0, dest="r50")
    p = fb.cmp("ne", "r50", imm=0)
    fb.br_cond(p, "loop")
    o = fb.mov_imm(8192)
    fb.store(o, "r51")
    fb.halt()
    func = prog.function("main")
    chase = func.block("loop").instrs[1]
    assert chase.op == "ld"
    return prog, chase.uid


def _adapt(prog, delinquent_uid, *, live_in="r50", trigger_index=1,
           slice_ends_in_kill=True, spawn_target=".ssp_slice1",
           stub_slots=(0,), slice_slot=0):
    """Hand-build a minimally adapted clone (stub + slice + one trigger)."""
    adapted = prog.clone()
    func = adapted.functions["main"]
    entry = func.blocks[0]
    entry.instrs[trigger_index] = Instruction(op="chk.c",
                                              target=".ssp_stub1")
    stub = func.add_block(".ssp_stub1")
    for slot in stub_slots:
        stub.append(Instruction(op="lib.st", srcs=(live_in,), imm=slot))
    stub.append(Instruction(op="spawn", target=spawn_target))
    stub.append(Instruction(op="rfi"))
    sl = func.add_block(".ssp_slice1")
    sl.append(Instruction(op="lib.ld", dest="r40", imm=slice_slot))
    lf = Instruction(op="lfetch", srcs=("r40",), imm=8)
    sl.append(lf)
    if slice_ends_in_kill:
        sl.append(Instruction(op="kill"))
    adapted.prefetch_sources[lf.uid] = delinquent_uid
    return adapted


def _rules(violations):
    return {v.rule for v in violations}


class TestLintSynthetic:
    def test_well_formed_adaptation_is_clean(self):
        prog, uid = _base_program()
        assert lint_program(prog, _adapt(prog, uid)) == []

    def test_unadapted_program_is_clean(self):
        prog, _ = _base_program()
        assert lint_program(prog, prog.clone()) == []

    def test_spawn_to_non_slice_label(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid, spawn_target="loop")
        assert "cfi.spawn-target" in _rules(lint_program(prog, adapted))

    def test_slice_without_kill_falls_through(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid, slice_ends_in_kill=False)
        assert "cfi.slice-termination" in _rules(
            lint_program(prog, adapted))

    def test_slice_branch_escaping_region(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        sl = adapted.functions["main"].block(".ssp_slice1")
        sl.instrs.insert(1, Instruction(op="br.cond", pred="p0",
                                        target="loop"))
        assert "cfi.slice-escape" in _rules(lint_program(prog, adapted))

    def test_main_code_falling_into_appended_block(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        func = adapted.functions["main"]
        # Drop the halt: the last main block now falls into the stub.
        for block in func.blocks:
            block.instrs = [i for i in block.instrs if i.op != "halt"]
        assert "cfi.fallthrough" in _rules(lint_program(prog, adapted))

    def test_store_in_slice(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        sl = adapted.functions["main"].block(".ssp_slice1")
        sl.instrs.insert(1, Instruction(op="st", srcs=("r40", "r40")))
        assert "cfi.spec-store" in _rules(lint_program(prog, adapted))

    def test_uncovered_live_in_slot(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid, slice_slot=3)  # stub only writes 0
        assert "regs.live-in-coverage" in _rules(
            lint_program(prog, adapted))

    def test_stub_clobbering_live_register(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        stub = adapted.functions["main"].block(".ssp_stub1")
        # r50 holds the list cursor, live across the trigger.
        stub.instrs.insert(0, Instruction(op="mov", dest="r50", imm=0))
        assert "cfi.stub-shape" in _rules(lint_program(prog, adapted))

    def test_stub_writing_a_dead_register(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        stub = adapted.functions["main"].block(".ssp_stub1")
        # r60 is dead at the resumption point, so nothing is clobbered,
        # but the stub is no longer lib.st* ; spawn ; rfi.
        stub.instrs.insert(0, Instruction(op="mov", dest="r60", imm=1))
        rules = _rules(lint_program(prog, adapted))
        assert "cfi.stub-shape" in rules
        assert "regs.stub-clobber" not in rules

    def test_dropped_main_instruction(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        loop = adapted.functions["main"].block("loop")
        del loop.instrs[0]  # drop the value load
        assert "trig.main-code-preserved" in _rules(
            lint_program(prog, adapted))

    def test_foreign_instruction_in_main_code(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        loop = adapted.functions["main"].block("loop")
        loop.instrs.insert(0, Instruction(op="mov", dest="r60", imm=1))
        assert "trig.main-code-preserved" in _rules(
            lint_program(prog, adapted))

    def test_trigger_after_delinquent_load(self):
        prog, uid = _base_program()
        # Place the chk.c in the loop block *after* the chase load.
        adapted = prog.clone()
        func = adapted.functions["main"]
        loop = func.block("loop")
        loop.instrs.insert(2, Instruction(op="chk.c",
                                          target=".ssp_stub1"))
        stub = func.add_block(".ssp_stub1")
        stub.append(Instruction(op="lib.st", srcs=("r50",), imm=0))
        stub.append(Instruction(op="spawn", target=".ssp_slice1"))
        stub.append(Instruction(op="rfi"))
        sl = func.add_block(".ssp_slice1")
        sl.append(Instruction(op="lib.ld", dest="r40", imm=0))
        lf = Instruction(op="lfetch", srcs=("r40",), imm=8)
        sl.append(lf)
        sl.append(Instruction(op="kill"))
        adapted.prefetch_sources[lf.uid] = uid
        rules = _rules(lint_program(prog, adapted))
        assert "trig.covers-load" in rules

    def test_double_trigger_on_one_path(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)
        entry = adapted.functions["main"].blocks[0]
        entry.instrs.insert(0, Instruction(op="chk.c",
                                           target=".ssp_stub1"))
        assert "trig.double-trigger" in _rules(lint_program(prog, adapted))


class TestLintWorkloads:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_adapted_workload_is_clean(self, name):
        artifacts = WorkloadArtifacts(name, "tiny")
        result = artifacts.tool_result
        assert result.adapted is not None
        violations = lint_program(artifacts.program,
                                  result.adapted.program)
        assert violations == [], "\n".join(str(v) for v in violations)


def _clobbering_stubs(func):
    """Stubs that write a register live in the main thread at the
    resumption point (``chk.c`` + 1) of a trigger using them."""
    _, live_out = block_liveness(func, CFG(func))
    found = set()
    for block in func.blocks:
        if is_speculative(block.label):
            continue
        for index, instr in enumerate(block.instrs):
            if instr.op != "chk.c" or not func.has_block(instr.target):
                continue
            defs = {r for i in func.block(instr.target).instrs
                    for r in instruction_defs(i)} - {regs.ZERO}
            live = set(live_out[block.label])
            for later in reversed(block.instrs[index + 1:]):
                live -= set(instruction_defs(later))
                live |= set(instruction_uses(later, func)) - {
                    regs.ZERO, regs.TRUE_PREDICATE}
            if defs & live:
                found.add(instr.target)
    return found


def _stub_mutants(original, adapted, rng, count):
    """Seeded random edits of the stub blocks: insert, delete, replace or
    swap instructions, the inserted ones writing registers main code
    reads."""
    funcs = [f.name for f in adapted.functions.values()
             if any(b.label.startswith(".ssp_stub") for b in f.blocks)]
    for _ in range(count):
        mutant = adapted.clone()
        func = mutant.function(rng.choice(funcs))
        stub = rng.choice([b for b in func.blocks
                           if b.label.startswith(".ssp_stub")])
        reads = sorted({r for b in func.blocks if not is_speculative(b.label)
                        for i in b.instrs for r in i.reads} - {
                            regs.ZERO, regs.TRUE_PREDICATE}) or ["r60"]
        reg = rng.choice(reads)
        pool = [Instruction(op="mov", dest=reg, imm=0),
                Instruction(op="add", dest=reg, srcs=(reg,), imm=8),
                Instruction(op="lib.ld", dest=reg, imm=0),
                Instruction(op="lib.st", srcs=(reg,), imm=1),
                Instruction(op="nop"), Instruction(op="rfi"),
                Instruction(op="kill")]
        instrs = stub.instrs
        for _ in range(rng.randint(1, 2)):
            edit = rng.choice(("insert", "delete", "replace", "swap"))
            at = rng.randrange(len(instrs)) if instrs else 0
            if edit == "insert" or not instrs:
                instrs.insert(at, dataclasses.replace(rng.choice(pool)))
            elif edit == "delete":
                del instrs[at]
            elif edit == "replace":
                instrs[at] = dataclasses.replace(rng.choice(pool))
            elif at + 1 < len(instrs):
                instrs[at], instrs[at + 1] = instrs[at + 1], instrs[at]
        try:
            mutant.finalize()
        except ProgramError:
            continue
        yield mutant


class TestLintMutants:
    def test_register_writing_stub_breaks_stub_shape(self):
        """A ``lib.st* ; spawn ; rfi`` stub writes no register, so every
        stub that clobbers a register live at the resumption point is a
        ``cfi.stub-shape`` violation: one rule covers both."""
        rng = random.Random(20020617)
        clobbering = 0
        for name in PAPER_ORDER:
            artifacts = WorkloadArtifacts(name, "tiny")
            adapted = artifacts.tool_result.adapted.program
            for mutant in _stub_mutants(artifacts.program, adapted, rng, 30):
                violations = lint_program(artifacts.program, mutant)
                for func in mutant.functions.values():
                    stubs = _clobbering_stubs(func)
                    clobbering += len(stubs)
                    flagged = {v.location for v in violations
                               if v.rule == "cfi.stub-shape"
                               and v.function == func.name}
                    assert stubs <= flagged, (name, stubs, violations)
        assert clobbering >= 10

    @pytest.mark.parametrize("seed", [20020683, 20020694])
    def test_self_qualified_main_branch(self, seed):
        """A main-code branch retargeted to ``main::<label>`` is the same
        binary as one to ``<label>`` and lints the same, but for the
        changed operand text of an original instruction."""
        workload = FuzzWorkload(seed)
        program = workload.build_program()
        profile = collect_profile(program, workload.build_heap)
        adapted = SSPPostPassTool().adapt(program, profile).program
        for label in ("done0", "entry"):
            verdicts = []
            for target in (label, f"main::{label}"):
                mutant = adapted.clone()
                block = mutant.function("main").block("loop0")
                index = next(i for i, instr in enumerate(block.instrs)
                             if instr.op == "br.cond")
                block.instrs[index] = dataclasses.replace(
                    block.instrs[index], target=target)
                mutant.finalize()
                verdicts.append(sorted(
                    (v.rule, v.location)
                    for v in lint_program(program, mutant)))
            changed = ("trig.main-code-preserved", "loop0")
            assert sorted(set(verdicts[0]) | {changed}) == verdicts[1]


class TestOracle:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_parity_all_workloads(self, name):
        result = run_oracle(name, "tiny")
        assert result.ok, result.summary()
        # All engines agree on net retired main-thread instructions.
        assert len(set(result.retired.values())) == 1, result.retired

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_parity_with_spec_budgets(self, name):
        result = run_oracle(name, "tiny", budgets=True)
        assert result.ok, result.summary()
        budget_tags = [t for t in result.retired if t.endswith("+budgets")]
        assert budget_tags, "budget variants did not run"

    def test_inserted_instruction_detection(self):
        prog, uid = _base_program()
        adapted = _adapt(prog, uid)  # chk.c replaced the nop
        assert _inserted_instructions(prog, adapted) == 0
        loop = adapted.functions["main"].block("loop")
        loop.instrs.insert(0, Instruction(op="chk.c",
                                          target=".ssp_stub1"))
        assert _inserted_instructions(prog, adapted) == 1
        assert count_inserted_triggers(adapted) == 2


class TestFuzz:
    def test_fuzz_smoke_clean(self):
        report = run_fuzz(8)
        assert report.ok, report.summary()
        assert len(report.cases) == 8

    def test_case_is_deterministic(self):
        a = run_case(20020630)
        b = run_case(20020630)
        assert a.ok == b.ok
        assert a.stages == b.stages
        assert [d.message for d in a.violations] == \
            [d.message for d in b.violations]

    def test_fuzz_workload_replays_layout(self):
        wl = FuzzWorkload(7)
        h1 = wl.build_heap()
        h2 = wl.build_heap()
        assert h1.diff(h2) == []

    def test_fuzz_program_computes_expected(self):
        from repro.isa.interp import FunctionalInterpreter
        wl = FuzzWorkload(11)
        heap = wl.build_heap()
        FunctionalInterpreter(wl.build_program(), heap).run()
        wl.check_output(heap)


class TestCheckCLI:
    def test_check_single_workload(self, capsys):
        assert main(["check", "mst"]) == 0
        out = capsys.readouterr().out
        assert "mst" in out
        assert "check: ok" in out

    def test_check_with_fuzz(self, capsys):
        assert main(["check", "mst", "--fuzz", "2"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 programs" in out

    def test_check_budgets(self, capsys):
        assert main(["check", "health", "--budgets"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
