"""SimStats invariants and serialisation round-tripping."""

import pytest

from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.machine import simulate
from repro.sim.stats import CYCLE_CATEGORIES, SimStats
from repro.tool import SSPPostPassTool
from repro.profiling import collect_profile
from repro.workloads import PAPER_ORDER, make_workload


@pytest.fixture(scope="module")
def ssp_stats():
    """A statistics object with every counter family exercised (spawns,
    prefetches, partial hits) from a real SSP run."""
    workload = make_workload("mcf", "tiny")
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    result = SSPPostPassTool().adapt(program, profile)
    stats = simulate(result.program, workload.build_heap(), "inorder")
    return stats, result.delinquent_uids


def fresh_stats() -> SimStats:
    return SimStats(MemorySystem(MachineConfig()))


class TestInvariants:
    def test_breakdown_categories_sum_to_cycles(self, ssp_stats):
        stats, _ = ssp_stats
        assert sum(stats.cycle_breakdown.values()) == stats.cycles
        assert set(stats.cycle_breakdown) == set(CYCLE_CATEGORIES)

    def test_ipc_zero_division_guard(self):
        stats = fresh_stats()
        assert stats.cycles == 0
        assert stats.ipc == 0.0

    def test_ipc(self):
        stats = fresh_stats()
        stats.cycles = 100
        stats.main_instructions = 250
        assert stats.ipc == pytest.approx(2.5)

    def test_breakdown_fractions_empty_guard(self):
        fractions = fresh_stats().breakdown_fractions()
        assert sum(fractions.values()) == 0.0


class TestRoundTrip:
    def test_to_dict_is_json_safe(self, ssp_stats):
        import json
        stats, _ = ssp_stats
        encoded = json.dumps(stats.to_dict())
        assert json.loads(encoded) == stats.to_dict()

    def test_round_trip_identical_snapshot(self, ssp_stats):
        stats, _ = ssp_stats
        restored = SimStats.from_dict(stats.to_dict())
        assert restored.to_dict() == stats.to_dict()

    def test_round_trip_preserves_scalars(self, ssp_stats):
        stats, _ = ssp_stats
        restored = SimStats.from_dict(stats.to_dict())
        assert restored.cycles == stats.cycles
        assert restored.ipc == stats.ipc
        assert restored.spawns == stats.spawns
        assert restored.chk_fired == stats.chk_fired
        assert restored.cycle_breakdown == stats.cycle_breakdown
        assert restored.memory.prefetches_issued == \
            stats.memory.prefetches_issued

    def test_round_trip_preserves_figure9_queries(self, ssp_stats):
        stats, uids = ssp_stats
        restored = SimStats.from_dict(stats.to_dict())
        assert restored.delinquent_breakdown(uids) == \
            stats.delinquent_breakdown(uids)
        assert restored.total_miss_cycles() == stats.total_miss_cycles()
        assert restored.top_loads_by_miss_cycles() == \
            stats.top_loads_by_miss_cycles()
        # uid keys survive the str round trip JSON forces on dict keys.
        assert all(isinstance(uid, int)
                   for uid in restored.memory.load_stats)

    def test_round_trip_of_fresh_stats(self):
        stats = fresh_stats()
        assert SimStats.from_dict(stats.to_dict()).to_dict() == \
            stats.to_dict()


class TestDerivedLevelCounts:
    """``level_counts``/``partial_counts`` are sums of the per-load
    statistics, not counters of their own: a round trip carries them
    through ``load_stats`` alone, byte for byte."""

    @pytest.mark.parametrize("ssp", [False, True], ids=["base", "ssp"])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_round_trip(self, name, ssp):
        from repro.runner.worker import WorkloadArtifacts
        artifacts = WorkloadArtifacts(name, "tiny")
        program = artifacts.tool_result.program if ssp \
            else artifacts.workload.build_program()
        stats = simulate(program, artifacts.workload.build_heap(),
                         "inorder")
        data = stats.to_dict()
        mem = data["memory"]
        hits = {lvl: sum(ls["hits"][lvl] for ls in mem["load_stats"].values())
                for lvl in mem["level_counts"]}
        partials = {lvl: sum(ls["partials"][lvl]
                             for ls in mem["load_stats"].values())
                    for lvl in mem["partial_counts"]}
        assert mem["level_counts"] == hits
        assert mem["partial_counts"] == partials
        assert sum(hits.values()) + sum(partials.values()) == \
            stats.memory.total_accesses()
        assert SimStats.from_dict(data).to_dict() == data
