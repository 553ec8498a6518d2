"""Tests for the benchmark workloads and their determinism guarantees."""

import pytest

from repro.isa import FunctionalInterpreter
from repro.isa.memory import HEAP_BASE
from repro.sim import simulate
from repro.workloads import (
    PAPER_ORDER,
    SCALES,
    Workload,
    make_workload,
    workload_names,
)

ALL_NAMES = PAPER_ORDER + ["mcf.hand", "health.hand"]


class TestRegistry:
    def test_all_paper_benchmarks_registered(self):
        names = workload_names()
        for name in PAPER_ORDER:
            assert name in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_workload("specfp-art")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            make_workload("mcf", scale="galactic")

    def test_descriptions_and_suites(self):
        for name in PAPER_ORDER:
            w = make_workload(name, "tiny")
            assert w.description
            assert w.suite in ("Olden", "SPEC CPU2000")


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_heap_layout_replays_exactly(self, name):
        w = make_workload(name, "tiny")
        h1 = w.build_heap()
        h2 = w.build_heap()
        assert h1.brk == h2.brk
        # Spot-check a spread of words.
        for addr in range(0x1000, min(h1.brk, 0x1000 + 4096), 64):
            assert h1.load(addr) == h2.load(addr)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_fresh_workloads_lay_out_one_heap(self, name, scale):
        """Programs embed heap addresses, so two fresh workloads must lay
        out equal heaps; and since a workload keeps its first heap as an
        image, each ``build_heap`` must return an independent copy."""
        a = make_workload(name, scale)
        b = make_workload(name, scale)
        heap = a.build_heap()
        digest, brk = heap.digest(), heap.brk
        assert b.build_heap().digest() == digest
        assert a.layout == b.layout
        for copy in range(2):
            heap.store(HEAP_BASE, heap.load(HEAP_BASE) + 1)
            heap.store(heap.brk - 8, -1)
            heap.alloc(64)
            heap = a.build_heap()
            assert (heap.digest(), heap.brk) == (digest, brk), copy

    def test_program_cached(self):
        w = make_workload("mcf", "tiny")
        assert w.build_program() is w.build_program()

    def test_two_instances_same_layout(self):
        a = make_workload("em3d", "tiny")
        b = make_workload("em3d", "tiny")
        assert a.layout["head"] == b.layout["head"]
        assert a.layout["expected"] == b.layout["expected"]


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_kernel_computes_expected(self, name):
        w = make_workload(name, "tiny")
        prog = w.build_program()
        heap = w.build_heap()
        FunctionalInterpreter(prog, heap).run()
        w.check_output(heap)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_memory_bound_on_inorder(self, name):
        """All seven are pointer-intensive: the L3/memory stall category
        dominates the in-order baseline (the paper's premise)."""
        w = make_workload(name, "tiny")
        stats = simulate(w.build_program(), w.build_heap(), "inorder",
                         spawning=False)
        assert stats.cycle_breakdown["L3"] > 0.4 * stats.cycles, \
            f"{name} is not memory bound enough to be interesting"

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_has_trigger_nop(self, name):
        """Every kernel leaves at least one scheduling nop for chk.c."""
        w = make_workload(name, "tiny")
        assert any(i.op == "nop"
                   for i in w.build_program().instructions())


class TestHandAdaptations:
    @pytest.mark.parametrize("name", ["mcf.hand", "health.hand"])
    def test_hand_binaries_spawn_and_stay_correct(self, name):
        w = make_workload(name, "tiny")
        heap = w.build_heap()
        stats = simulate(w.build_program(), heap, "inorder")
        w.check_output(heap)
        assert stats.chk_fired >= 1
        assert stats.spawns >= 1

    def test_hand_mcf_beats_baseline(self):
        hand = make_workload("mcf.hand", "tiny")
        base = make_workload("mcf", "tiny")
        base_stats = simulate(base.build_program(), base.build_heap(),
                              "inorder", spawning=False)
        hand_stats = simulate(hand.build_program(), hand.build_heap(),
                              "inorder")
        assert hand_stats.cycles < base_stats.cycles

    def test_hand_disabled_matches_baseline_result(self):
        """With spawning off, hand binaries degrade to the plain kernel."""
        hand = make_workload("health.hand", "tiny")
        heap = hand.build_heap()
        simulate(hand.build_program(), heap, "inorder", spawning=False)
        hand.check_output(heap)


class TestScales:
    def test_scales_grow(self):
        tiny = make_workload("mcf", "tiny")
        small = make_workload("mcf", "small")
        assert small.narcs > tiny.narcs

    def test_base_class_requires_overrides(self):
        class Incomplete(Workload):
            name = "incomplete"

        w = Incomplete(scale="tiny")
        with pytest.raises(NotImplementedError):
            w.build_heap()
