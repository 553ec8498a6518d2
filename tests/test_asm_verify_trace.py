"""Tests for the assembler round-trip, the adapted-binary verifier, and
context-occupancy tracing."""

import pytest

from repro.check.lint import (
    VerificationError,
    is_well_formed,
    verify_adapted_binary,
)
from repro.isa import (
    AsmError,
    FunctionBuilder,
    Program,
    load_program,
    parse_assembly,
    round_trip,
    save_program,
)
from repro.profiling import collect_profile
from repro.sim import simulate, trace_run
from repro.tool import SSPPostPassTool
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def adapted_mcf():
    w = make_workload("mcf", "tiny")
    prog = w.build_program()
    profile = collect_profile(prog, w.build_heap)
    result = SSPPostPassTool().adapt(prog, profile)
    return w, prog, result


class TestAssembler:
    def test_round_trip_preserves_instructions(self, adapted_mcf):
        _, _, result = adapted_mcf
        rt = round_trip(result.program)
        assert len(rt.code) == len(result.program.code)
        for a, b in zip(result.program.code, rt.code):
            assert (a.op, a.dest, a.srcs, a.imm, a.pred, a.relation) == \
                (b.op, b.dest, b.srcs, b.imm, b.pred, b.relation)

    def test_round_trip_preserves_branch_targets(self, adapted_mcf):
        _, _, result = adapted_mcf
        rt = round_trip(result.program)
        assert rt.branch_target == result.program.branch_target

    def test_round_trip_behaviourally_identical(self, adapted_mcf):
        w, _, result = adapted_mcf
        rt = round_trip(result.program)
        h1, h2 = w.build_heap(), w.build_heap()
        s1 = simulate(result.program, h1, "inorder")
        s2 = simulate(rt, h2, "inorder")
        assert s1.cycles == s2.cycles
        w.check_output(h2)

    def test_save_and_load(self, adapted_mcf, tmp_path):
        w, _, result = adapted_mcf
        path = tmp_path / "mcf_ssp.s"
        save_program(result.program, str(path))
        loaded = load_program(str(path))
        assert len(loaded.code) == len(result.program.code)

    def test_parse_minimal_program(self):
        text = """
        .func main (0 params)
        entry:
            mov r40, 7        ; a comment
            add r41, r40, 1
            halt
        """
        prog = parse_assembly(text).finalize()
        instrs = list(prog.instructions())
        assert [i.op for i in instrs] == ["mov", "add", "halt"]
        assert instrs[0].imm == 7

    def test_parse_predicated_and_cmp(self):
        text = """
        .func main (0 params)
        entry:
            cmp.lt p1, r40, r41
            (p1)br.cond entry
            halt
        """
        prog = parse_assembly(text).finalize()
        instrs = list(prog.instructions())
        assert instrs[0].relation == "lt"
        assert instrs[1].pred == "p1"

    @pytest.mark.parametrize("bad", [
        "frobnicate r1",
        ".func f (1 params)\nentry:\ncmp.zz p1, r1, r2",
        "mov r40, 7",  # code before any .func
        ".func f (0 params)\nentry:\nadd 5, r1, r2",  # dest not a register
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(AsmError):
            parse_assembly(bad)


class TestVerifier:
    def test_tool_output_verifies(self, adapted_mcf):
        _, _, result = adapted_mcf
        counts = verify_adapted_binary(result.program)
        assert counts["triggers"] >= 1
        assert counts["stubs"] == counts["slices"] >= 1
        assert is_well_formed(result.program)

    def test_unadapted_program_verifies_trivially(self, adapted_mcf):
        _, prog, _ = adapted_mcf
        counts = verify_adapted_binary(prog)
        assert counts == {"triggers": 0, "stubs": 0, "slices": 0,
                          "spawns": 0}

    def make_bad(self, breakage):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.chk_c(".ssp_stub1")
        fb.halt()
        fb.label(".ssp_stub1")
        if breakage != "store_in_stub":
            fb.lib_store(0, "r0")
        else:
            fb.store(fb.mov_imm(0x2000), "r0")
        fb.spawn(".ssp_slice1")
        if breakage == "no_rfi":
            fb.br(".ssp_slice1")
        else:
            fb.rfi()
        fb.label(".ssp_slice1")
        if breakage == "slot_mismatch":
            fb.lib_load(5)
        else:
            fb.lib_load(0)
        if breakage == "store_in_slice":
            fb.store(fb.mov_imm(0x2000), "r0")
        if breakage == "halt_in_slice":
            fb.halt()
        else:
            fb.kill()
        return prog

    @pytest.mark.parametrize("breakage", [
        "no_rfi", "slot_mismatch", "store_in_slice", "halt_in_slice",
        "store_in_stub",
    ])
    def test_broken_binaries_rejected(self, breakage):
        prog = self.make_bad(breakage)
        with pytest.raises(VerificationError):
            verify_adapted_binary(prog)
        assert not is_well_formed(prog)

    def test_chk_to_nonstub_rejected(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.chk_c("nowhere_stub")
        fb.halt()
        fb.label("nowhere_stub")
        fb.halt()
        with pytest.raises(VerificationError):
            verify_adapted_binary(prog)


#: Per model: peak simultaneous speculative threads of the adapted tiny
#: mcf, and the least speculative-context busy time per simulated cycle.
CHAIN_PEAK = {"inorder": 3, "ooo": 2}
CHAIN_BUSY = {"inorder": 2.0, "ooo": 0.9}


class TestTracing:
    """Context tracing on the in-order model; :class:`TestTracingOOO`
    runs the same tests on the OOO model."""

    MODEL = "inorder"

    def test_chaining_fills_speculative_contexts(self, adapted_mcf):
        w, _, result = adapted_mcf
        stats, trace = trace_run(result.program, w.build_heap(),
                                 model=self.MODEL)
        assert trace.max_concurrent_speculative() == CHAIN_PEAK[self.MODEL]
        assert trace.thread_count() > 50
        # The chain keeps the speculative contexts busy.
        busy = trace.speculative_busy_cycles()
        assert busy > CHAIN_BUSY[self.MODEL] * stats.cycles

    def test_baseline_has_single_thread(self, adapted_mcf):
        w, prog, _ = adapted_mcf
        stats, trace = trace_run(prog, w.build_heap(), spawning=False,
                                 model=self.MODEL)
        assert trace.thread_count() == 1
        assert trace.max_concurrent_speculative() == 0

    def test_gantt_renders(self, adapted_mcf):
        w, _, result = adapted_mcf
        _, trace = trace_run(result.program, w.build_heap(), model=self.MODEL)
        chart = trace.render_gantt(width=40)
        assert "main " in chart and "spec1" in chart
        assert "#" in chart and "M" in chart

    def test_intervals_well_formed(self, adapted_mcf):
        w, _, result = adapted_mcf
        stats, trace = trace_run(result.program, w.build_heap(),
                                 model=self.MODEL)
        for slot, spans in trace.intervals.items():
            for tid, start, end in spans:
                assert 0 <= start <= end <= stats.cycles
            # Intervals within one context never overlap.
            ordered = sorted(spans, key=lambda s: s[1])
            for (_, _, end1), (_, start2, _) in zip(ordered, ordered[1:]):
                assert end1 <= start2

    def test_tracing_leaves_stats_unchanged(self, adapted_mcf):
        w, _, result = adapted_mcf
        stats, _ = trace_run(result.program, w.build_heap(), model=self.MODEL)
        plain = simulate(result.program, w.build_heap(), self.MODEL)
        assert stats.to_dict() == plain.to_dict()


class TestTracingOOO(TestTracing):
    MODEL = "ooo"
