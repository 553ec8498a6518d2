"""Tests for repro.runner: specs, cache, executor, telemetry, wiring."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, figure8
from repro.guard.errors import ResourceBudgetError
from repro.resilience import ResilienceConfig
from repro.runner import (
    ResultCache,
    Runner,
    RunnerError,
    RunSpec,
    WorkerTask,
    clear_artifact_cache,
    code_version,
    execute_spec,
    execute_task,
    freeze_options,
    freeze_overrides,
)
from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.tool import ToolOptions

#: A structurally valid (all-zero) stats payload for fake task functions.
EMPTY_STATS = SimStats(MemorySystem(MachineConfig())).to_dict()

#: Calls made to the counting fake task, keyed by spec hash.
_CALLS = []


def counting_task(spec):
    _CALLS.append(spec.content_hash())
    return {"stats": EMPTY_STATS, "wall_time": 0.25}


def marker_task(spec):
    """Fails once, until its marker file exists.

    The spec's ``workload`` field carries the marker path, so the one
    picklable module-level function serves serial and pool runs alike.
    """
    marker = Path(spec.workload)
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("transient failure")
    return {"stats": EMPTY_STATS, "wall_time": 0.0}


def fake_spec(name="w", **kwargs):
    # Bypasses __post_init__ validation side effects by using real model/
    # variant names; only workload/scale carry fake payloads.
    return RunSpec(workload=name, **kwargs)


class TestRunSpec:
    def test_equal_specs_equal_hash(self):
        a = RunSpec.create("mcf", scale="tiny")
        b = RunSpec.create("mcf", scale="tiny")
        assert a == b
        assert a.content_hash() == b.content_hash()

    @pytest.mark.parametrize("change", [
        dict(workload="vpr"),
        dict(scale="default"),
        dict(model="ooo"),
        dict(variant="ssp"),
        dict(spawning=True),
        dict(tool_options=(("coverage", 0.5),)),
        dict(config_overrides=(("memory_latency", 100),)),
        dict(max_cycles=1000),
    ])
    def test_hash_changes_on_any_field(self, change):
        base = RunSpec(workload="mcf", scale="tiny")
        changed = dataclasses.replace(base, **change)
        assert changed.content_hash() != base.content_hash()

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(workload="mcf", model="vliw")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(workload="mcf", variant="warp-speed")

    def test_spawning_derived_from_variant(self):
        assert not RunSpec(workload="m").effective_spawning
        assert RunSpec(workload="m", variant="ssp").effective_spawning
        assert RunSpec(workload="m", variant="hand").effective_spawning
        assert not RunSpec(workload="m",
                           variant="perfect_mem").effective_spawning
        assert RunSpec(workload="m", spawning=True).effective_spawning

    def test_freeze_options_order_insensitive(self):
        assert freeze_options({"b": 2, "a": 1}) == \
            freeze_options({"a": 1, "b": 2})

    def test_freeze_options_accepts_dataclass(self):
        frozen = freeze_options(ToolOptions(coverage=0.5))
        assert ("coverage", 0.5) in frozen

    def test_freeze_overrides_normalises_sequences(self):
        assert freeze_overrides({"perfect_load_uids": {3, 1}}) == \
            freeze_overrides([("perfect_load_uids", [1, 3])])

    def test_spec_is_picklable(self):
        import pickle
        spec = RunSpec.create("mcf", tool_options=ToolOptions())
        assert pickle.loads(pickle.dumps(spec)) == spec

    # Literal digests: every cache entry, queue job and checkpoint is
    # addressed by these, so a key() change must not move them.
    @pytest.mark.parametrize("kwargs, digest", [
        (dict(model="inorder", variant="base"),
         "a5c40c08900669c128632578598218aaa10de5db020497454fb9dc87b9f37378"),
        (dict(model="inorder", variant="ssp"),
         "2d7f2f32223e88f4fa5958fef8737acc4fc59644ab7e468af3cef7d701747b78"),
        (dict(model="ooo", variant="base"),
         "b7800d61e36458e1ef81fea6b7042a05cb163091eb82ebc211a296a6a3366db4"),
        (dict(model="ooo", variant="ssp"),
         "5a3ff45bf45478c0e7c456372f838e389423c7526bdad840cb4f16949142e9a9"),
        (dict(model="inorder", variant="ssp",
              tool_options={"disable_chaining": True,
                            "max_delinquent_loads": 1},
              config_overrides={"perfect_load_uids": [7, 3],
                                "memory_latency": 200}),
         "a29279a902574585814a64d10aceaee16904c52d9228558e708f23dcb7bd90e8"),
    ])
    def test_content_hash_is_pinned(self, kwargs, digest):
        spec = RunSpec.create("mcf", scale="tiny", **kwargs)
        assert spec.content_hash() == digest


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        assert cache.get(spec) is None
        cache.put(spec, EMPTY_STATS, wall_time=1.5)
        entry = cache.get(spec)
        assert entry["stats"] == EMPTY_STATS
        assert entry["wall_time"] == 1.5

    def test_entry_text_is_the_sorted_json_of_the_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put(fake_spec(), EMPTY_STATS, wall_time=1.5,
                         metrics={"b": 1, "a": [0.1, None]})
        text = path.read_text(encoding="utf-8")
        entry = json.loads(text)
        assert entry["metrics"] == {"a": [0.1, None], "b": 1}
        assert text == json.dumps(entry, sort_keys=True)
        assert not [p for p in path.parent.iterdir() if ".tmp." in p.name]

    def test_salt_partitions_generations(self, tmp_path):
        spec = fake_spec()
        ResultCache(root=tmp_path, salt="old").put(spec, EMPTY_STATS)
        assert ResultCache(root=tmp_path, salt="new").get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        path = cache.put(spec, EMPTY_STATS)
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="cur")
        stale = ResultCache(root=tmp_path, salt="old")
        cache.put(fake_spec("a"), EMPTY_STATS)
        cache.put(fake_spec("b"), EMPTY_STATS)
        stale.put(fake_spec("a"), EMPTY_STATS)
        info = cache.stats()
        assert info["entries"] == 3
        assert {g["salt"]: g["entries"]
                for g in info["generations"]} == {"cur": 2, "old": 1}
        assert cache.clear(stale_only=True) == 1
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestRunnerCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = fake_spec()
        _CALLS.clear()
        first = Runner(cache=cache, task_fn=counting_task).run_one(spec)
        assert not first.cached and len(_CALLS) == 1
        second = Runner(cache=cache, task_fn=counting_task).run_one(spec)
        assert second.cached
        assert len(_CALLS) == 1, "cache hit must not re-simulate"
        assert second.stats.to_dict() == first.stats.to_dict()

    def test_duplicate_specs_coalesce(self, tmp_path):
        spec = fake_spec()
        _CALLS.clear()
        runner = Runner(cache=None, task_fn=counting_task)
        results = runner.run([spec, spec, spec])
        assert len(_CALLS) == 1
        assert all(r.ok for r in results)

    def test_telemetry_counters(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        runner = Runner(cache=cache, task_fn=counting_task)
        runner.run([fake_spec("a"), fake_spec("b")])
        runner.run([fake_spec("a"), fake_spec("c")])
        snap = runner.telemetry.snapshot()
        assert snap["launched"] == 3
        assert snap["cache_hits"] == 1
        assert snap["hit_rate"] == pytest.approx(0.25)
        assert snap["sim_wall_time"] == pytest.approx(0.75)
        assert snap["saved_wall_time"] == pytest.approx(0.25)

    def test_hit_rate_counts_each_spec_once(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        cached = fake_spec("a")
        Runner(cache=cache, task_fn=counting_task).run_one(cached)
        retried = fake_spec(str(tmp_path / "marker"), scale="small")
        runner = Runner(cache=cache, retries=1, task_fn=marker_task)
        assert all(r.ok for r in runner.run([cached, retried]))
        snap = runner.telemetry.snapshot()
        # Two specs asked for, one served cached; the retry is one more
        # attempt of the same spec, not another request.
        assert snap["hit_rate"] == pytest.approx(0.5)
        assert snap["requests"] == 2
        assert snap["launched"] == 2
        assert snap["retries"] == 1

    def test_failed_spec_is_one_request(self):
        def always_fails(spec):
            raise RuntimeError("boom")
        runner = Runner(cache=None, retries=1, task_fn=always_fails)
        assert not runner.run_one(fake_spec()).ok
        snap = runner.telemetry.snapshot()
        assert snap["requests"] == 1
        assert snap["launched"] == 2
        assert snap["failures"] == 1


class TestRetryAndTimeout:
    def test_serial_retry_on_transient_failure(self, tmp_path):
        spec = fake_spec(str(tmp_path / "marker"), scale="small")
        runner = Runner(cache=None, retries=1, task_fn=marker_task)
        result = runner.run_one(spec)
        assert result.ok
        assert result.attempts == 2

    def test_serial_failure_exhausts_retries(self):
        def always_fails(spec):
            raise RuntimeError("boom")
        runner = Runner(cache=None, retries=2, task_fn=always_fails)
        result = runner.run_one(fake_spec())
        assert not result.ok
        assert result.attempts == 3
        assert "boom" in result.error
        with pytest.raises(RunnerError):
            runner.stats(fake_spec())

    def test_parallel_worker_exception_retried(self, tmp_path):
        spec = fake_spec(str(tmp_path / "m"), scale="small")
        runner = Runner(jobs=2, cache=None, retries=1,
                        task_fn=marker_task)
        results = runner.run([spec, fake_spec(str(tmp_path / "m_ok"),
                                              scale="small")])
        assert all(r.ok for r in results)


class TestSerialParallelParity:
    def test_real_specs_bit_identical(self):
        specs = [RunSpec.create("mcf", scale="tiny", model=m)
                 for m in ("inorder", "ooo")]
        serial = Runner(jobs=1, cache=None).run(specs)
        parallel = Runner(jobs=2, cache=None).run(specs)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.stats.to_dict() == p.stats.to_dict()


class TestExecuteSpec:
    def test_base_variant_runs(self):
        payload = execute_spec(RunSpec.create("mcf", scale="tiny"))
        assert payload["stats"]["cycles"] > 0
        assert payload["wall_time"] > 0

    def test_config_overrides_apply(self):
        slow = execute_spec(RunSpec.create(
            "mcf", scale="tiny",
            config_overrides={"memory_latency": 460}))
        fast = execute_spec(RunSpec.create("mcf", scale="tiny"))
        assert slow["stats"]["cycles"] > fast["stats"]["cycles"]

    def test_cached_entry_round_trips_stats(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec.create("mcf", scale="tiny")
        live = Runner(cache=cache).stats(spec)
        restored = Runner(cache=cache).run_one(spec)
        assert restored.cached
        assert restored.stats.to_dict() == live.to_dict()
        # The on-disk entry is plain JSON, re-loadable without the runner.
        entry = json.loads(
            (tmp_path / cache.salt /
             f"{spec.content_hash()}.json").read_text())
        assert entry["stats"]["cycles"] == live.cycles


class TestExperimentIntegration:
    def test_second_context_is_fully_cached(self, tmp_path):
        """The ISSUE acceptance check: a figure driver re-run launches
        zero simulations, everything served from the cache."""
        cache_root = tmp_path / "cache"
        cold = ExperimentContext(
            "tiny", runner=Runner(cache=ResultCache(root=cache_root)))
        first = figure8.run(context=cold, scale="tiny",
                            benchmarks=["mcf"])
        assert cold.telemetry.counters["launched"] > 0

        clear_artifact_cache()   # simulate a fresh process
        warm = ExperimentContext(
            "tiny", runner=Runner(cache=ResultCache(root=cache_root)))
        second = figure8.run(context=warm, scale="tiny",
                             benchmarks=["mcf"])
        assert warm.telemetry.counters["launched"] == 0
        assert warm.telemetry.counters["cache_hits"] \
            == cold.telemetry.counters["launched"]
        assert first.rows == second.rows

    def test_context_memoises_stats_objects(self):
        context = ExperimentContext("tiny", runner=Runner(cache=None))
        run = context.run("mcf")
        assert run.stats("inorder", "base") is run.stats("inorder", "base")
        assert context.telemetry.counters["memo_hits"] == 1


def own_roots_task(spec):
    """Runs inline: reports the private roots named after this process."""
    roots = list(Path(tempfile.gettempdir()).glob(
        f"repro-run-{os.getpid()}-*"))
    return {"stats": EMPTY_STATS, "wall_time": 0.0,
            "metrics": {"own_roots": len(roots)}}


class TestBudgetBeforeTheRun:
    """A run shorter than one progress cadence still checks its budget."""

    def test_blown_deadline_raises_before_the_first_cadence_point(self):
        spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                              variant="ssp")
        with pytest.raises(ResourceBudgetError,
                           match="wall-clock budget at cycle 0"):
            execute_task(WorkerTask(spec=spec, deadline=1e-9))

    def test_blown_deadline_walks_the_ladder(self):
        # The shape of ``python -m repro mcf --scale tiny --no-cache
        # --deadline 0.0001``: the 34,919-cycle SSP run never reaches a
        # cadence point, yet every rung blows the budget, so the job
        # ends on the bottom (unadapted base) rung's error.
        spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                              variant="ssp")
        runner = Runner(jobs=1, cache=None, retries=0, service=None,
                        resilience=ResilienceConfig(deadline=1e-4))
        result = runner.run_one(spec)
        assert not result.ok
        assert "ResourceBudgetError" in result.error
        assert "mcf/tiny/inorder/base exceeded" in result.error


class TestPrivateRoots:
    """A private root carries its owner's pid; roots of dead owners
    (a SIGKILLed runner) are reaped by the next private run."""

    @pytest.fixture
    def tmpdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    @staticmethod
    def stale_root(tmpdir, pid):
        root = tmpdir / f"repro-run-{pid}-k1lled00"
        (root / "pending").mkdir(parents=True)
        (root / "pending" / "job.json").write_text("{}")
        return root

    @staticmethod
    def run_private():
        runner = Runner(jobs=1, cache=None, service=None,
                        task_fn=own_roots_task)
        result = runner.run_one(fake_spec("private-root"))
        assert result.ok
        return result

    def test_root_of_a_dead_owner_is_removed(self, tmpdir):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        stale = self.stale_root(tmpdir, child.pid)
        result = self.run_private()
        assert not stale.exists()
        # The run's own root was named after this process and removed.
        assert result.metrics["own_roots"] == 1
        assert not list(tmpdir.glob("repro-run-*"))

    def test_root_of_a_live_pid_is_kept(self, tmpdir):
        # A live pid may be a recycled one; its roots are left alone,
        # as are names no dead owner's root can have.
        stale = self.stale_root(tmpdir, os.getppid())
        not_a_pid = self.stale_root(tmpdir, 10 ** 20)
        unrelated = tmpdir / "repro-run-12345678"
        unrelated.mkdir()
        self.run_private()
        assert stale.exists() and not_a_pid.exists() and unrelated.exists()


class TestSubmitLookups:
    def test_private_root_looks_each_miss_up_twice(self, tmp_path,
                                                   monkeypatch):
        """The runner's lookup and the worker's dedupe; ``submit`` does
        not look a private run's misses up again."""
        gets = []
        real_get = ResultCache.get

        def counting_get(self, spec):
            gets.append(spec.content_hash())
            return real_get(self, spec)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        specs = [fake_spec(f"lookup{i}") for i in range(3)]
        runner = Runner(jobs=1, cache=ResultCache(root=tmp_path),
                        service=None, task_fn=counting_task)
        assert all(r.ok for r in runner.run(specs + specs))
        assert sorted(gets) == sorted(
            [spec.content_hash() for spec in specs] * 2)

    def test_service_root_looks_each_miss_up_twice(self, tmp_path,
                                                   monkeypatch):
        """On a service root too: the runner's lookup and the worker's
        dedupe, not a third read in ``submit`` — 56 reads for the 28
        specs of the tiny matrix, submitted twice over.  A second run of
        the same specs hits, one read each."""
        from repro.service import ServiceConfig
        gets = []
        real_get = ResultCache.get

        def counting_get(self, spec):
            gets.append(spec.content_hash())
            return real_get(self, spec)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        specs = [RunSpec.create(kernel, scale="tiny", model=model,
                                variant=variant)
                 for kernel in ("mcf", "em3d", "health", "mst", "vpr",
                                "treeadd.df", "treeadd.bf")
                 for model in ("inorder", "ooo")
                 for variant in ("base", "ssp")]
        runner = Runner(jobs=1, service=ServiceConfig(root=tmp_path),
                        task_fn=counting_task)
        assert all(r.ok for r in runner.run(specs + specs))
        hashes = [spec.content_hash() for spec in specs]
        assert len(gets) == 56
        assert sorted(gets) == sorted(hashes * 2)
        gets.clear()
        assert all(r.ok for r in runner.run(specs))
        assert sorted(gets) == sorted(hashes)
