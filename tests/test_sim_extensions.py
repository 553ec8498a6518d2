"""Tests for simulator extensions and edge cases: dynamic chk throttling
(the Section 4.4.1 future-work feature), spawn-wait bounding, spin-retry
chase loads, and SMT resource behaviour."""

import dataclasses

import pytest

from repro.profiling import collect_profile
from repro.sim import inorder_config, make_config, ooo_config, simulate
from repro.tool import SSPPostPassTool
from repro.workloads import make_workload

from helpers import mcf_like_workload


@pytest.fixture(scope="module")
def treeadd_adapted():
    w = make_workload("treeadd.df", "tiny")
    prog = w.build_program()
    profile = collect_profile(prog, w.build_heap)
    result = SSPPostPassTool().adapt(prog, profile)
    return w, result


class TestDynamicChkThrottle:
    """The Section 4.4.1 throttle on the in-order model;
    :class:`TestDynamicChkThrottleOOO` runs the same tests on OOO."""

    MODEL = "inorder"

    def test_useless_trigger_suppressed(self, treeadd_adapted):
        w, result = treeadd_adapted
        pm = make_config(self.MODEL).with_perfect_memory()
        plain = simulate(result.program, w.build_heap(), self.MODEL, config=pm)
        throttled = simulate(
            result.program, w.build_heap(), self.MODEL,
            config=dataclasses.replace(pm, dynamic_chk_throttle=True))
        # Prefetching cannot help a perfect memory; the monitor notices
        # and later chk.c "return no available context".
        assert throttled.chk_fired <= pm.throttle_sample_fires + 1
        assert throttled.chk_fired < plain.chk_fired
        assert throttled.cycles < plain.cycles

    def test_useful_trigger_kept_alive(self, treeadd_adapted):
        w, result = treeadd_adapted
        plain = simulate(result.program, w.build_heap(), self.MODEL)
        throttled = simulate(
            result.program, w.build_heap(), self.MODEL,
            config=dataclasses.replace(make_config(self.MODEL),
                                       dynamic_chk_throttle=True))
        assert throttled.chk_fired == plain.chk_fired
        assert throttled.cycles == plain.cycles

    def test_throttle_off_by_default(self):
        assert not make_config(self.MODEL).dynamic_chk_throttle


class TestDynamicChkThrottleOOO(TestDynamicChkThrottle):
    MODEL = "ooo"


class TestSpawnWaitBounds:
    def test_chain_survives_context_pressure(self):
        """health-like per-call triggers once deadlocked all contexts;
        bounded waiting must keep the program finishing promptly."""
        w = make_workload("health", "tiny")
        prog = w.build_program()
        profile = collect_profile(prog, w.build_heap)
        result = SSPPostPassTool().adapt(prog, profile)
        heap = w.build_heap()
        stats = simulate(result.program, heap, "inorder")
        w.check_output(heap)
        assert stats.cycles < profile.baseline_cycles * 1.05
        assert stats.spawns > 50

    def test_spawn_wait_limit_exists(self):
        from repro.sim.inorder import InOrderSimulator
        assert InOrderSimulator.SPAWN_WAIT_LIMIT >= 100


class TestChaseRetry:
    def test_bfs_chain_runs_full_length(self):
        w = make_workload("treeadd.bf", "tiny")
        prog = w.build_program()
        profile = collect_profile(prog, w.build_heap)
        result = SSPPostPassTool().adapt(prog, profile)
        heap = w.build_heap()
        stats = simulate(result.program, heap, "inorder")
        w.check_output(heap)
        # The chain must survive the producer race: one spawn per node-ish.
        assert stats.spawns > w.layout["count"] // 2
        assert profile.baseline_cycles / stats.cycles > 2.0

    def test_retry_blocks_present_in_binary(self):
        w = make_workload("treeadd.bf", "tiny")
        prog = w.build_program()
        profile = collect_profile(prog, w.build_heap)
        result = SSPPostPassTool().adapt(prog, profile)
        labels = [b.label
                  for b in result.program.function("main").blocks]
        assert any(l.endswith(".retry") for l in labels)
        assert any(l.endswith(".go") for l in labels)


class TestSMTResourceSharing:
    def test_spec_threads_do_not_slow_busy_main(self):
        """With spawning disabled the adapted binary runs like the
        baseline; with it enabled, main-thread priority keeps the cost of
        coexisting speculative threads bounded."""
        prog, heap, out = mcf_like_workload(ssp=True, narcs=400,
                                            nnodes=100)
        on = simulate(prog, heap, "inorder")
        prog2, heap2, _ = mcf_like_workload(ssp=True, narcs=400,
                                            nnodes=100)
        off = simulate(prog2, heap2, "inorder", spawning=False)
        assert on.cycles < off.cycles  # prefetching wins overall

    def test_memory_ports_shared(self):
        """Two memory ops per cycle globally: a load-dense single thread
        cannot exceed 2 accesses/cycle."""
        from repro.isa import FunctionBuilder, Heap, Program
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        base = fb.mov_imm(0x2000)
        for i in range(40):
            fb.load(base, (i % 8) * 8, dest=f"r{60 + (i % 8)}")
        fb.halt()
        prog.finalize()
        heap = Heap(1 << 16)
        stats = simulate(prog, heap, "inorder",
                         config=inorder_config().with_perfect_memory())
        assert stats.cycles >= 40 / 2

    def test_int_units_shared(self):
        from repro.isa import FunctionBuilder, Heap, Program
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        for i in range(8):
            fb.mov_imm(0, dest=f"r{100 + i}")
        for _ in range(20):
            for i in range(8):  # 8 independent chains
                fb.add(f"r{100 + i}", imm=1, dest=f"r{100 + i}")
        fb.halt()
        prog.finalize()
        stats = simulate(prog, Heap(1 << 14), "inorder",
                         config=inorder_config().with_perfect_memory())
        # 160 ALU ops at 4 int units/cycle >= 40 cycles.
        assert stats.cycles >= 40


class TestOOOModelLimits:
    def test_rob_bounds_runahead(self):
        """Shrinking the ROB must reduce the OOO model's MLP advantage."""
        prog, heap, _ = mcf_like_workload(narcs=400, nnodes=100)
        big = simulate(prog, heap, "ooo", spawning=False)
        prog2, heap2, _ = mcf_like_workload(narcs=400, nnodes=100)
        small_cfg = dataclasses.replace(ooo_config(), rob_entries=12,
                                        rs_entries=4)
        small = simulate(prog2, heap2, "ooo", config=small_cfg,
                         spawning=False)
        assert small.cycles > big.cycles * 1.3

    def test_mispredict_costs_more_on_ooo(self):
        """OOO resolves branches at execute: data-dependent branches cost
        more than on the in-order model (which resolves at issue)."""
        import random
        from repro.isa import FunctionBuilder, Heap, Program

        def build():
            rng = random.Random(3)
            prog = Program(entry="main")
            fb = FunctionBuilder(prog.add_function("main"))
            heap = Heap(1 << 20)
            data = heap.alloc_array(400, 8)
            for i in range(400):
                heap.store(data + i * 8, rng.randrange(2))
            fb.mov_imm(data, dest="r100")
            fb.mov_imm(data + 400 * 8, dest="r101")
            fb.mov_imm(0, dest="r102")
            fb.label("loop")
            v = fb.load("r100", 0)
            p = fb.cmp("eq", v, imm=1)   # random: unpredictable
            fb.br_cond(p, "taken")
            fb.add("r102", imm=1, dest="r102")
            fb.label("taken")
            fb.add("r100", imm=8, dest="r100")
            q = fb.cmp("lt", "r100", "r101")
            fb.br_cond(q, "loop")
            fb.halt()
            prog.finalize()
            return prog, heap

        prog, heap = build()
        io = simulate(prog, heap, "inorder",
                      config=inorder_config().with_perfect_memory())
        prog2, heap2 = build()
        ooo = simulate(prog2, heap2, "ooo",
                       config=ooo_config().with_perfect_memory())
        assert io.mispredicts > 50 and ooo.mispredicts > 50
