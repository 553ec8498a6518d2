"""Tests for the chaining/basic SP schedulers and their building blocks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SSPPostPassTool, collect_profile
from repro.analysis import CFG, CallGraph, DependenceGraph, RegionGraph
from repro.scheduling import (
    BASIC,
    CHAINING,
    BasicScheduler,
    ChainingScheduler,
    best_rotation,
    critical_subslice,
    cumulative_slack,
    list_schedule,
    nondegenerate_nodes,
    reduced_miss_cycles,
    rotate,
    slack_bsp_per_iteration,
    slack_csp_per_iteration,
    slice_sccs,
)
from repro.slicing import ContextSensitiveSlicer, restrict_to_region
from repro.workloads import PAPER_ORDER, make_workload

from helpers import mcf_like_workload


def mcf_region_slice(latency=None, profiled=False):
    prog, _, _ = mcf_like_workload(narcs=30, nnodes=10)
    func = prog.function("main")
    if profiled:
        latency = {i.uid: 232.0 for i in func.instructions()
                   if i.op == "ld"}
    cfg = CFG(func)
    dgs = {"main": DependenceGraph(func, cfg, latency)}
    cg = CallGraph(prog)
    rg = RegionGraph(prog, cg)
    slicer = ContextSensitiveSlicer(prog, cg, dgs)
    loads = [i for i in func.block("loop").instrs if i.op == "ld"]
    sl = slicer.slice_load_address(loads[1], "main")
    region = rg.region_of_block("main", "loop")
    rs = restrict_to_region(sl, region, rg, dgs)
    region_uids = {i.uid for block in func.blocks
                   if block.label in region.blocks
                   for i in block.instrs}
    return rs, region_uids, dgs["main"], loads


class TestPartitioning:
    def test_nondegenerate_scc_is_induction_cycle(self):
        rs, _, dg, _ = mcf_region_slice()
        sccs = slice_sccs(dg, rs.body_uids)
        nondeg = nondegenerate_nodes(sccs, dg)
        ops = {dg.instr_of[u].op for u in nondeg}
        assert "add" in ops       # arc += stride
        assert "ld" not in ops    # the loads are degenerate

    def test_critical_subslice_closure(self):
        rs, _, dg, _ = mcf_region_slice()
        critical = critical_subslice(dg, rs.body_uids)
        ops = {dg.instr_of[u].op for u in critical}
        assert "add" in ops
        # The dependent loads are after the spawn point (Figure 5).
        load_uids = {u for u in rs.body_uids if dg.instr_of[u].op == "ld"}
        assert not load_uids & critical


class TestRotation:
    def test_identity_when_no_carried_deps(self):
        rs, _, dg, _ = mcf_region_slice()
        straight = [i for i in rs.body if i.op == "ld"]
        assert best_rotation(dg, straight) == 0

    def test_rotation_preserves_multiset(self):
        rs, _, dg, _ = mcf_region_slice()
        body = list(rs.body)
        k = best_rotation(dg, body)
        rotated = rotate(body, k)
        assert sorted(i.uid for i in rotated) == \
            sorted(i.uid for i in body)

    def test_rotation_never_breaks_intra_deps(self):
        rs, _, dg, _ = mcf_region_slice()
        body = list(rs.body)
        k = best_rotation(dg, body)
        pos = {i.uid: p for p, i in enumerate(rotate(body, k))}
        for ins in body:
            for e in dg.succs(ins.uid, kinds={"flow", "control"}):
                if e.loop_carried or e.dst not in pos:
                    continue
                assert pos[e.src] < pos[e.dst]

    @given(st.integers(0, 10))
    def test_rotate_is_cyclic_shift(self, k):
        from repro.isa.instructions import nop
        body = [nop() for _ in range(7)]
        rotated = rotate(body, k % 7)
        assert rotated == body[k % 7:] + body[:k % 7]


class TestListScheduling:
    def test_respects_dependences(self):
        rs, _, dg, _ = mcf_region_slice()
        order = list_schedule(dg, rs.body)
        pos = {i.uid: p for p, i in enumerate(order)}
        for ins in rs.body:
            for e in dg.succs(ins.uid):
                if e.loop_carried or e.dst not in pos:
                    continue
                assert pos[e.src] < pos[e.dst], \
                    f"{dg.instr_of[e.src]} must precede {dg.instr_of[e.dst]}"

    def test_schedules_every_node_exactly_once(self):
        rs, _, dg, _ = mcf_region_slice()
        order = list_schedule(dg, rs.body)
        assert sorted(i.uid for i in order) == \
            sorted(i.uid for i in rs.body)

    def test_placed_nodes_unlock_successors(self):
        rs, _, dg, _ = mcf_region_slice()
        critical = critical_subslice(dg, rs.body_uids)
        rest = [i for i in rs.body if i.uid not in critical]
        order = list_schedule(dg, rest, placed=critical)
        assert len(order) == len(rest)


class TestSlackFormulas:
    def test_slack_csp(self):
        # (height(region) - height(critical) - copy/spawn latency) * i
        per = slack_csp_per_iteration(100, 10, num_live_ins=4)
        assert per == 100 - 10 - (4 + 4)
        assert cumulative_slack(per, 3) == 3 * per

    def test_slack_bsp(self):
        assert slack_bsp_per_iteration(100, 40) == 60.0

    def test_reduced_miss_cycles_ramp(self):
        # slack 10/iter, miss 100/iter, 20 iterations: ramp for 10
        # iterations (10+20+...+100 = 550), then full 100 for the rest.
        value = reduced_miss_cycles(10.0, 20, 100.0)
        assert value == pytest.approx(550 + 10 * 100)

    def test_reduced_miss_cycles_zero_slack(self):
        assert reduced_miss_cycles(0.0, 100, 50.0) == 0.0
        assert reduced_miss_cycles(-5.0, 100, 50.0) == 0.0

    def test_reduced_miss_cycles_saturates_at_trip_count(self):
        full = reduced_miss_cycles(1000.0, 10, 100.0)
        assert full <= 10 * 100.0

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_max_height_shares_one_memo_exactly(self, name, monkeypatch):
        """``max_height`` walks each node once under one memo; on every
        region and slice the tool measures, it equals the maximum of
        fresh per-node ``height`` calls, and ``heights`` equals them
        node by node."""
        calls = []
        shared = DependenceGraph.max_height

        def record(dg, uids, within=None):
            uids = list(uids)
            calls.append((dg, uids, within))
            return shared(dg, uids, within)

        monkeypatch.setattr(DependenceGraph, "max_height", record)
        workload = make_workload(name, "tiny")
        program = workload.build_program()
        SSPPostPassTool().adapt(
            program, collect_profile(program, workload.build_heap))
        assert calls
        for dg, uids, within in calls:
            fresh = {u: dg.height(u, within) for u in uids}
            assert dg.heights(uids, within) == fresh
            assert shared(dg, uids, within) == max(fresh.values(),
                                                   default=0)


class TestChainingScheduler:
    def test_figure5_shape(self):
        rs, region_uids, dg, loads = mcf_region_slice(profiled=True)
        sched = ChainingScheduler().schedule(rs, region_uids)
        assert sched.kind == CHAINING
        critical_ops = [i.op for i in sched.critical]
        noncrit_ops = [i.op for i in sched.noncritical]
        assert "add" in critical_ops       # induction before the spawn
        assert "ld" in noncrit_ops         # loads after the spawn
        assert sched.spawn_pred is not None  # counted loop: predicated
        assert not sched.predicted

    def test_live_ins_cover_reads(self):
        rs, region_uids, dg, _ = mcf_region_slice()
        sched = ChainingScheduler().schedule(rs, region_uids)
        assert "r50" in sched.live_ins
        assert "r51" in sched.live_ins

    def test_positive_slack_with_profiled_latencies(self):
        rs, region_uids, dg, loads = mcf_region_slice(profiled=True)
        sched = ChainingScheduler().schedule(rs, region_uids)
        assert sched.slack_per_iteration > 100

    def test_prefetch_conversion_for_terminal_load(self):
        rs, region_uids, _, _ = mcf_region_slice()
        sched = ChainingScheduler().schedule(rs, region_uids)
        assert sched.prefetch_convert


class TestPrediction:
    def build_list_walk(self):
        """cur = ld cur->next; while cur != 0 — the predicted pattern."""
        from repro.isa import FunctionBuilder, Program
        prog = Program()
        fb = FunctionBuilder(prog.add_function("f"))
        fb.mov_imm(0x2000, dest="r100")
        fb.label("loop")
        v = fb.load("r100", 8)                 # payload (delinquent)
        fb.load("r100", 0, dest="r100")        # cur = cur->next
        p = fb.cmp("ne", "r100", imm=0)
        fb.br_cond(p, "loop")
        fb.halt()
        func = prog.function("f")
        cfg = CFG(func)
        dgs = {"f": DependenceGraph(func, cfg)}
        cg = CallGraph(prog)
        rg = RegionGraph(prog, cg)
        slicer = ContextSensitiveSlicer(prog, cg, dgs)
        load = next(i for i in func.block("loop").instrs
                    if i.op == "ld" and i.imm == 8)
        sl = slicer.slice_load_address(load, "f")
        region = rg.region_of_block("f", "loop")
        rs = restrict_to_region(sl, region, rg, dgs)
        return rs, dgs["f"]

    def test_load_dependent_condition_predicted(self):
        rs, dg = self.build_list_walk()
        sched = ChainingScheduler().schedule(rs)
        assert sched.predicted
        assert sched.spawn_pred is None
        guard = sched.guard
        # Kill when the carried pointer is null (negated 'ne 0').
        assert guard.relation == "eq"
        assert guard.immediate == 0

    def test_guard_register_is_live_in(self):
        rs, dg = self.build_list_walk()
        sched = ChainingScheduler().schedule(rs)
        assert sched.guard.reg in sched.live_ins


class TestBasicScheduler:
    def test_no_spawn_in_basic(self):
        rs, region_uids, _, _ = mcf_region_slice()
        sched = BasicScheduler().schedule(rs, region_uids)
        assert sched.kind == BASIC
        assert sched.critical == []
        assert sched.spawn_pred is None and sched.guard is None

    def test_loop_body_ordered_chain_first(self):
        rs, region_uids, dg, _ = mcf_region_slice()
        sched = BasicScheduler().schedule(rs, region_uids)
        ops = [i.op for i in sched.ordered]
        # Induction advance precedes the loads (prefetch next iteration).
        assert ops.index("add") < ops.index("ld")

    def test_basic_slack_le_chaining_on_mcf(self):
        rs, region_uids, dg, loads = mcf_region_slice(profiled=True)
        basic = BasicScheduler().schedule(rs, region_uids)
        chain = ChainingScheduler().schedule(rs, region_uids)
        assert basic.slack_per_iteration <= chain.slack_per_iteration
