"""Unit tests for the cache hierarchy, fill buffer, TLB and partial misses."""

import pytest

from repro.sim import MemorySystem, inorder_config
from repro.sim.caches import L1, L2, L3, MEM, CacheLevel
from repro.sim.config import CacheConfig


def mem():
    return MemorySystem(inorder_config())


class TestCacheLevel:
    def test_hit_after_insert(self):
        cache = CacheLevel(CacheConfig(16 * 1024, 4, 2))
        cache.insert(42)
        assert cache.lookup(42)

    def test_miss_when_absent(self):
        cache = CacheLevel(CacheConfig(16 * 1024, 4, 2))
        assert not cache.lookup(42)

    def test_lru_eviction(self):
        cache = CacheLevel(CacheConfig(16 * 1024, 4, 2))
        sets = cache.num_sets
        lines = [i * sets for i in range(5)]  # all map to set 0
        for line in lines[:4]:
            cache.insert(line)
        cache.lookup(lines[0])        # make line 0 MRU
        evicted = cache.insert(lines[4])
        assert evicted == lines[1]    # line 1 was LRU
        assert cache.contains(lines[0])

    def test_reinsert_touches_not_evicts(self):
        cache = CacheLevel(CacheConfig(16 * 1024, 4, 2))
        cache.insert(0)
        assert cache.insert(0) is None

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheLevel(CacheConfig(1000, 3, 2))


class TestHierarchy:
    def test_cold_miss_goes_to_memory(self):
        m = mem()
        ready, level = m.access(0x2000, now=0, uid=1, is_main=True)
        assert level == MEM
        # Memory latency plus the first-touch TLB miss penalty.
        assert ready == m.config.memory_latency + m.config.tlb_miss_penalty

    def test_second_access_hits_l1(self):
        m = mem()
        first, _ = m.access(0x2000, 0, 1, True)
        ready, level = m.access(0x2000, first + 1, 1, True)
        assert level == L1
        assert ready == first + 1 + m.config.l1.latency

    def test_same_line_different_word_hits(self):
        m = mem()
        first, _ = m.access(0x2000, 0, 1, True)
        _, level = m.access(0x2038, first + 1, 1, True)  # same 64B line
        assert level == L1

    def test_partial_miss_on_in_transit_line(self):
        m = mem()
        first, _ = m.access(0x2000, 0, 1, True)
        ready, level = m.access(0x2000, 10, 2, True)  # fill still on its way
        assert m.load_stats[2].partials[MEM] == 1
        assert m.partial_counts == {L2: 0, L3: 0, MEM: 1}
        assert level == MEM                # origin of the fill
        assert ready == first              # completes with the fill

    def test_prefetch_then_demand_load_is_partial(self):
        m = mem()
        pf, _ = m.access(0x4000, 0, 99, is_main=False, is_prefetch=True)
        demand, _ = m.access(0x4000, 50, 1, is_main=True)
        assert m.load_stats[1].partials[MEM] == 1 and demand == pf

    def test_prefetch_long_before_demand_gives_l1_hit(self):
        m = mem()
        pf, _ = m.access(0x4000, 0, 99, is_main=False, is_prefetch=True)
        _, level = m.access(0x4000, pf + 10, 1, True)
        assert level == L1 and m.load_stats[1].hits[L1] == 1
        assert not any(m.partial_counts.values())

    def test_l2_hit_after_l1_eviction(self):
        m = mem()
        cfg = m.config
        # Fill far more lines than L1 holds, all resident in L2 afterwards.
        lines = cfg.l1.size_bytes // 64 * 2
        t = 0
        for i in range(lines):
            t = m.access(0x2000 + i * 64, t, 1, True)[0] + 1
        _, level = m.access(0x2000, t + 1000, 1, True)
        assert level in (L2, L3)  # evicted from L1, held below

    def test_perfect_memory_mode(self):
        m = MemorySystem(inorder_config().with_perfect_memory())
        ready, level = m.access(0x2000, 0, 1, True)
        assert level == L1 and ready == m.config.l1.latency

    def test_perfect_delinquent_load_mode(self):
        m = MemorySystem(inorder_config().with_perfect_loads({7}))
        _, fast = m.access(0x2000, 0, 7, True)
        _, slow = m.access(0x6000, 0, 8, True)
        assert fast == L1
        assert slow == MEM


class TestFillBuffer:
    def test_fill_buffer_limits_outstanding_misses(self):
        m = mem()
        cfg = m.config
        results = [m.access(0x2000 + i * 64, 0, i, True)
                   for i in range(cfg.fill_buffer_entries + 4)]
        # The 17th+ miss cannot start until an earlier fill completes.
        ready = sorted(r for r, _ in results)
        assert ready[-1] > ready[0] + cfg.memory_latency // 2


class TestTLB:
    def test_tlb_miss_penalty_applied_once(self):
        m = mem()
        first, _ = m.access(0x2000, 0, 1, True)
        # Same page later: L1 hit without the TLB penalty.
        later, _ = m.access(0x2008, first + 5, 1, True)
        assert later - (first + 5) == m.config.l1.latency
        assert m.tlb_misses == 1


class TestStatistics:
    def test_main_loads_recorded(self):
        m = mem()
        m.access(0x2000, 0, 5, is_main=True)
        assert m.load_stats[5].accesses == 1
        assert m.load_stats[5].hits[MEM] == 1
        assert m.load_stats[5].miss_cycles > 0

    def test_spec_thread_loads_not_recorded(self):
        m = mem()
        m.access(0x2000, 0, 5, is_main=False)
        assert 5 not in m.load_stats

    def test_stores_and_prefetches_not_in_load_stats(self):
        m = mem()
        m.access(0x2000, 0, 5, is_main=True, is_store=True)
        m.access(0x3000, 0, 6, is_main=True, is_prefetch=True)
        assert not m.load_stats
        assert m.prefetches_issued == 1

    def test_miss_rate(self):
        m = mem()
        ready, _ = m.access(0x2000, 0, 5, True)
        m.access(0x2000, ready + 1, 5, True)
        stats = m.load_stats[5]
        assert stats.accesses == 2 and stats.l1_misses == 1
        assert stats.miss_rate() == 0.5

    def test_flush_clears_state_not_stats(self):
        m = mem()
        ready, _ = m.access(0x2000, 0, 5, True)
        m.flush()
        _, level = m.access(0x2000, ready + 1, 5, True)
        assert level == MEM  # cold again
        assert m.load_stats[5].accesses == 2


class TestPrefetchAttribution:
    """Regression tests for prefetch credit and counter consistency."""

    @staticmethod
    def tiny_mem():
        """Single-line caches at every level: any second line evicts."""
        import dataclasses
        cfg = dataclasses.replace(
            inorder_config(),
            l1=CacheConfig(64, 1, 1), l2=CacheConfig(64, 1, 6),
            l3=CacheConfig(64, 1, 14))
        return MemorySystem(cfg)

    def test_store_demand_fill_preserves_prefetch_credit(self):
        """A main-thread store's demand fill must not discard the pending
        timely-prefetch credit; the first main-thread *load* touch of the
        line consumes it (store-then-load patterns)."""
        m = self.tiny_mem()
        m.access(0x4000, 0, 99, is_main=False, is_prefetch=True)
        m.access(0x8000, 500, 1, is_main=True)  # evicts the line everywhere
        m.access(0x4000, 1000, 2, is_main=True, is_store=True)  # miss+fill
        m.access(0x4000, 1010, 3, is_main=True)  # load rides the fill
        assert m.load_stats[3].partials[MEM] == 1
        assert m.load_stats[3].prefetch_late == 1
        assert m.prefetch_stats[99].useful == 1

    def test_load_after_store_hit_gets_timely_credit(self):
        m = mem()
        pf, _ = m.access(0x4000, 0, 99, is_main=False, is_prefetch=True)
        m.access(0x4000, pf + 1, 2, is_main=True, is_store=True)
        _, level = m.access(0x4000, pf + 2, 3, is_main=True)
        assert level == L1 and m.load_stats[3].hits[L1] == 1
        assert not any(m.load_stats[3].partials.values())
        assert m.load_stats[3].prefetch_timely == 1
        assert m.prefetch_stats[99].useful == 1

    def test_slice_load_counts_in_global_counter(self):
        """An emitter-mapped speculative chase load is a prefetch for its
        source; the global counter and the per-static counter agree."""
        m = mem()
        m.prefetch_sources[50] = 7
        m.access(0x4000, 0, 50, is_main=False)
        assert m.prefetches_issued == 1
        assert m.prefetch_stats[50].issued == 1

    def test_perfect_memory_counts_issues(self):
        m = MemorySystem(inorder_config().with_perfect_memory())
        m.access(0x4000, 0, 99, is_main=False, is_prefetch=True)
        assert m.prefetches_issued == 1
        assert m.prefetch_stats[99].issued == 1

    def test_perfect_load_uids_branch_counts_issues(self):
        m = MemorySystem(inorder_config().with_perfect_loads({50}))
        m.prefetch_sources[50] = 7
        m.access(0x4000, 0, 50, is_main=False)
        assert m.prefetches_issued == 1
        assert m.prefetch_stats[50].issued == 1

    def test_global_counter_equals_per_static_sum(self):
        m = mem()
        m.prefetch_sources[50] = 7
        m.access(0x4000, 0, 50, is_main=False)        # mapped slice load
        m.access(0x8000, 5, 60, is_main=False, is_prefetch=True)  # lfetch
        m.access(0xc000, 9, 61, is_main=True, is_prefetch=True)   # main lfetch
        m.access(0x2000, 12, 5, is_main=True)         # plain demand load
        assert m.prefetches_issued == 3
        assert m.prefetches_issued == sum(
            ps.issued for ps in m.prefetch_stats.values())
