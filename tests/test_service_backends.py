"""Result-store conformance suite.

:class:`~repro.runner.cache.ResultCache` is the one result store: the
runner's local cache, the service's shared store under
``<root>/cache`` and ``ssp-postpass cache`` all use it.  The contract
here is what the runner, the service worker and the GC expect of it:
get/put, counters, corruption quarantine, clearing, eviction and
concurrent writers.
"""

import os
import time

import pytest

from repro.runner import RunSpec
from repro.runner.cache import CacheCounters, ResultCache
from repro.service import ServiceConfig
from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats

EMPTY_STATS = SimStats(MemorySystem(MachineConfig())).to_dict()

SALT = "saltsalt00000000"


def spec_n(i):
    return RunSpec(workload=f"wl-{i}")


def entry_files(root, spec):
    """Every on-disk copy of a spec's entry."""
    return sorted(root.rglob(f"{spec.content_hash()}.json"))


@pytest.fixture
def backend(tmp_path):
    return ResultCache(root=tmp_path / "store", salt=SALT)


class TestBackendContract:
    def test_miss_then_roundtrip(self, backend):
        spec = spec_n(0)
        assert backend.get(spec) is None
        backend.put(spec, EMPTY_STATS, wall_time=1.5, metrics={"m": 1})
        entry = backend.get(spec)
        assert entry["stats"] == EMPTY_STATS
        assert entry["wall_time"] == 1.5
        assert entry["metrics"] == {"m": 1}
        assert entry["spec"] == spec.key()

    def test_counters_track_traffic(self, backend):
        spec = spec_n(1)
        backend.get(spec)                      # miss
        backend.put(spec, EMPTY_STATS)
        backend.get(spec)                      # hit
        counters = backend.counters
        assert counters.misses >= 1
        assert counters.puts >= 1
        assert counters.hits >= 1

    def test_counters_snapshot_shape(self, backend):
        snap = backend.counters_snapshot()
        assert snap["kind"] == backend.kind
        for field in CacheCounters.FIELDS:
            assert field in snap

    def test_corrupt_entry_quarantined_and_remissable(self, backend,
                                                      tmp_path):
        spec = spec_n(2)
        backend.put(spec, EMPTY_STATS)
        for path in entry_files(tmp_path, spec):
            path.write_text("{torn", encoding="utf-8")
        assert backend.get(spec) is None
        bad = list(tmp_path.rglob(f"{spec.content_hash()}.json.bad"))
        assert bad, "corrupt entry should be quarantined, not deleted"
        assert backend.stats()["quarantined"] >= 1
        # The address is usable again: re-simulate, re-store, re-serve.
        backend.put(spec, EMPTY_STATS)
        assert backend.get(spec)["stats"] == EMPTY_STATS

    def test_clear_stale_reaps_quarantined(self, backend, tmp_path):
        keep, corrupt = spec_n(3), spec_n(4)
        backend.put(keep, EMPTY_STATS)
        backend.put(corrupt, EMPTY_STATS)
        for path in entry_files(tmp_path, corrupt):
            path.write_text("not json", encoding="utf-8")
        backend.get(corrupt)
        assert backend.stats()["quarantined"] >= 1
        removed = backend.clear(stale_only=True)
        assert removed >= 1
        assert backend.stats()["quarantined"] == 0
        assert backend.get(keep) is not None

    def test_clear_removes_everything(self, backend):
        for i in range(4):
            backend.put(spec_n(i), EMPTY_STATS)
        assert backend.clear() >= 4
        assert backend.stats()["entries"] == 0
        assert all(backend.get(spec_n(i)) is None for i in range(4))

    def test_evict_by_age(self, backend, tmp_path):
        old, fresh = spec_n(5), spec_n(6)
        backend.put(old, EMPTY_STATS)
        backend.put(fresh, EMPTY_STATS)
        past = time.time() - 10_000
        for path in entry_files(tmp_path, old):
            os.utime(path, (past, past))
        evicted = backend.evict(max_age=1_000)
        assert evicted >= 1
        assert backend.get(old) is None
        assert backend.get(fresh) is not None
        assert backend.counters.evictions >= 1

    def test_evict_by_size_sheds_coldest_first(self, backend, tmp_path):
        for i in range(6):
            backend.put(spec_n(i), EMPTY_STATS)
        coldest = spec_n(0)
        past = time.time() - 10_000
        for path in entry_files(tmp_path, coldest):
            os.utime(path, (past, past))
        assert backend.evict(max_bytes=0) >= 6
        assert backend.stats()["entries"] == 0

    def test_evict_without_bounds_is_noop(self, backend):
        backend.put(spec_n(7), EMPTY_STATS)
        assert backend.evict() == 0
        assert backend.get(spec_n(7)) is not None

    def test_stats_occupancy(self, backend):
        for i in range(3):
            backend.put(spec_n(i), EMPTY_STATS)
        info = backend.stats()
        assert info["kind"] == backend.kind
        assert info["entries"] == 3
        assert info["bytes"] > 0
        assert info["quarantined"] == 0

    def test_concurrent_identical_puts_converge(self, backend):
        # At-least-once execution means two workers may both write the
        # same address; the entry must stay valid JSON with the same
        # stats either way.
        spec = spec_n(8)
        backend.put(spec, EMPTY_STATS, wall_time=1.0)
        backend.put(spec, EMPTY_STATS, wall_time=2.0)
        entry = backend.get(spec)
        assert entry["stats"] == EMPTY_STATS


class TestTempFiles:
    def test_failed_put_leaves_no_temp_file(self, backend):
        with pytest.raises(TypeError):
            backend.put(spec_n(0), EMPTY_STATS, metrics={"bad": object()})
        assert list(backend.generation_dir.iterdir()) == []
        assert backend.counters.puts == 0

    def test_clear_stale_reaps_orphaned_temp_file(self, tmp_path):
        old = ResultCache(root=tmp_path / "store", salt="old0000000000000")
        old.put(spec_n(0), EMPTY_STATS)
        orphan = old.generation_dir / "deadbeef.tmp.12345"
        orphan.write_text("{half", encoding="utf-8")
        current = ResultCache(root=tmp_path / "store", salt=SALT)
        assert current.clear(stale_only=True) == 1
        assert not orphan.exists()
        assert not old.generation_dir.exists()

    def test_clear_keeps_current_generation_temp_files(self, backend):
        backend.put(spec_n(0), EMPTY_STATS)
        live = backend.generation_dir / "deadbeef.tmp.12345"
        live.write_text("{in flight", encoding="utf-8")
        assert backend.clear() == 1
        assert live.exists()


class TestServiceStore:
    def test_service_entry_is_a_plain_result_cache_hit(self, tmp_path):
        root = tmp_path / "svc"
        writer = ServiceConfig(root=root).make_backend()
        spec = spec_n(0)
        writer.put(spec, EMPTY_STATS)
        reader = ResultCache(root=root / "cache")
        assert reader.get(spec)["stats"] == EMPTY_STATS
