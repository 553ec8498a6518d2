"""Tests for the batch service: client API, worker, Runner integration.

The headline property, asserted end to end with two real worker
processes: a duplicate-heavy batch submitted twice over a shared
queue+backend yields **exactly one simulation per unique spec hash**,
and the collected ``SimStats`` are byte-identical to a single-host
standalone run.
"""

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache, Runner, RunnerTelemetry, RunSpec
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceConfig,
    ServiceWorker,
    batch_id_for,
)
from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.tool.cli import main

EMPTY_STATS = SimStats(MemorySystem(MachineConfig())).to_dict()

#: Spec hashes executed by fake_task in this process.
_CALLS = []


def fake_task(spec):
    _CALLS.append(spec.content_hash())
    return {"stats": EMPTY_STATS, "wall_time": 0.25}


def failing_task(spec):
    raise RuntimeError("kaboom")


def flaky_task(spec):
    """Fails on the first attempt; the workload field carries a marker
    path (mirroring test_runner's convention for fake specs)."""
    marker = Path(spec.workload)
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("transient")
    return {"stats": EMPTY_STATS, "wall_time": 0.1}


def spec_n(i):
    return RunSpec(workload=f"wl-{i}")


def make_client(tmp_path, **overrides):
    options = {"root": tmp_path / "svc", "poll": 0.01}
    options.update(overrides)
    return ServiceClient(config=ServiceConfig(**options))


def count_gets(monkeypatch):
    """The specs of every ``ResultCache.get`` from now on, in order."""
    gets = []
    real_get = ResultCache.get
    monkeypatch.setattr(
        ResultCache, "get",
        lambda self, spec: gets.append(spec) or real_get(self, spec))
    return gets


class TestBatchId:
    def test_content_addressed(self):
        hashes = [spec_n(i).content_hash() for i in range(3)]
        assert batch_id_for(hashes) == batch_id_for(list(reversed(hashes)))
        assert batch_id_for(hashes) == batch_id_for(hashes + hashes[:1])
        assert batch_id_for(hashes) != batch_id_for(hashes[:2])


class TestBatchAPI:
    def test_submit_status_fetch_flow(self, tmp_path):
        client = make_client(tmp_path, inline_worker=False)
        specs = [spec_n(0), spec_n(1), spec_n(0)]
        batch_id = client.submit(specs)
        manifest = client.load_batch(batch_id)
        assert len(manifest["hashes"]) == 2
        assert manifest["enqueued"] == 2
        status = client.status(batch_id)
        assert status["queued"] == 2 and not status["complete"]
        with pytest.raises(RuntimeError):
            client.fetch(batch_id)

        worker = ServiceWorker(client.queue, client.backend,
                               task_fn=fake_task)
        assert worker.drain() == 2
        status = client.status(batch_id)
        assert status["complete"] and status["done"] == 2
        results = client.fetch(batch_id)
        assert [r.spec.content_hash() for r in results] \
            == manifest["hashes"]
        assert all(r.ok for r in results)
        assert results[0].stats.equal_to(
            SimStats.from_dict(EMPTY_STATS))

    def test_resubmitting_batch_is_idempotent(self, tmp_path):
        client = make_client(tmp_path, inline_worker=False)
        specs = [spec_n(0), spec_n(1)]
        first = client.submit(specs)
        assert client.submit(list(reversed(specs))) == first
        assert client.queue.counts()["pending"] == 2

    def test_submit_skips_cached_specs(self, tmp_path):
        client = make_client(tmp_path)
        spec = spec_n(0)
        client.backend.put(spec, EMPTY_STATS, wall_time=1.0)
        batch_id = client.submit([spec])
        manifest = client.load_batch(batch_id)
        assert manifest["enqueued"] == 0
        assert manifest["cached_at_submit"] == 1
        assert client.status(batch_id)["complete"]
        assert client.fetch(batch_id)[0].cached

    def test_unknown_batch_raises(self, tmp_path):
        client = make_client(tmp_path)
        with pytest.raises(KeyError):
            client.status("deadbeef0000")


class TestRunBatch:
    def test_executes_each_unique_spec_once(self, tmp_path):
        client = make_client(tmp_path)
        _CALLS.clear()
        specs = [spec_n(0), spec_n(1), spec_n(0), spec_n(1), spec_n(2)]
        telemetry = RunnerTelemetry()
        results = client.run_batch(specs, telemetry=telemetry,
                                   task_fn=fake_task, timeout=30)
        assert len(results) == 3
        assert all(r.ok and not r.cached for r in results)
        assert len(_CALLS) == len(set(_CALLS)) == 3
        assert telemetry.counters["launched"] == 3
        assert telemetry.counters["deduped"] == 0

    def test_second_client_sees_dedupe_hits(self, tmp_path):
        specs = [spec_n(0), spec_n(1)]
        make_client(tmp_path).run_batch(specs, task_fn=fake_task,
                                        timeout=30)
        _CALLS.clear()
        telemetry = RunnerTelemetry()
        results = make_client(tmp_path).run_batch(
            specs, telemetry=telemetry, task_fn=fake_task, timeout=30)
        assert all(r.ok and r.cached for r in results)
        assert _CALLS == []
        assert telemetry.counters["launched"] == 0
        assert telemetry.counters["deduped"] == 2
        assert telemetry.snapshot()["hit_rate"] == 1.0

    def test_terminal_failure_surfaces_once(self, tmp_path):
        client = make_client(tmp_path, max_attempts=1)
        telemetry = RunnerTelemetry()
        results = client.run_batch([spec_n(0)], telemetry=telemetry,
                                   task_fn=failing_task, timeout=30)
        assert not results[0].ok
        assert "kaboom" in results[0].error
        assert telemetry.counters["failures"] == 1

    def test_requeue_then_success(self, tmp_path):
        client = make_client(tmp_path, max_attempts=3)
        marker_spec = RunSpec(workload=str(tmp_path / "marker"))
        results = client.run_batch([marker_spec], task_fn=flaky_task,
                                   timeout=30)
        assert results[0].ok
        record = client.queue.read_done(marker_spec.content_hash())
        assert record["attempts"] == 2

    def test_client_heals_a_result_lost_since_it_read_it(self, tmp_path):
        """A result this client holds but the backend has lost since is
        executed and stored again, as it would be on a fresh client."""
        client = make_client(tmp_path)
        spec = spec_n(0)
        client.run_batch([spec], task_fn=fake_task, timeout=30)
        client.backend.evict(max_bytes=0)
        assert client.backend.get(spec) is None
        _CALLS.clear()
        results = client.run_batch([spec], task_fn=fake_task, timeout=30)
        assert results[0].ok and not results[0].cached
        assert _CALLS == [spec.content_hash()]
        assert client.backend.get(spec) is not None

    def test_wait_reads_each_result_once(self, tmp_path, monkeypatch):
        """Draining a batch reads each spec's entry once — the inline
        worker's dedupe lookup; the poll loop reads the results the
        worker hands over from the client's map — the tiny matrix's 28
        unique specs, each submitted twice."""
        client = make_client(tmp_path)
        batch_id = client.submit(_tiny_matrix() * 2)
        gets = count_gets(monkeypatch)
        state = client.wait(batch_id, task_fn=fake_task, timeout=30)
        assert state["complete"] and state["done"] == 28
        assert len(gets) == 28
        # The one-shot status still reads every entry.
        gets.clear()
        assert client.status(batch_id) == state
        assert len(gets) == 28

    def test_submit_wait_fetch_reads_each_result_at_most_twice(
            self, tmp_path, monkeypatch):
        """One client's cold submit, wait and fetch of the tiny matrix
        (28 unique specs, each submitted twice) read each entry at most
        twice — submit's miss and the inline worker's dedupe lookup —
        and fetch reads none.  A second client's warm pass reads each
        entry once, at submit."""
        specs = _tiny_matrix() * 2
        gets = count_gets(monkeypatch)
        client = make_client(tmp_path)
        batch_id = client.submit(specs)
        client.wait(batch_id, task_fn=fake_task, timeout=30)
        before_fetch = len(gets)
        results = client.fetch(batch_id)
        assert len(results) == 28 and all(r.ok for r in results)
        assert before_fetch <= 2 * 28
        assert len(gets) == before_fetch
        gets.clear()
        warm = make_client(tmp_path)
        warm_id = warm.submit(specs)
        warm.wait(warm_id, task_fn=fake_task, timeout=30)
        again = warm.fetch(warm_id)
        assert [r.stats_dict for r in again] \
            == [r.stats_dict for r in results]
        assert all(r.cached for r in again)
        assert len(gets) == 28

    def test_wait_reads_queue_state_once_per_round(self, tmp_path,
                                                   monkeypatch):
        """The inline worker drains until starved before the status is
        read, so waiting on the tiny matrix (28 unique specs, each
        submitted twice) costs a few queue-state reads per spec, not one
        per spec per job."""
        client = make_client(tmp_path)
        batch_id = client.submit(_tiny_matrix() * 2)
        calls = []
        real_state_of = JobQueue.state_of
        monkeypatch.setattr(
            JobQueue, "state_of",
            lambda self, digest: calls.append(digest)
            or real_state_of(self, digest))
        state = client.wait(batch_id, task_fn=fake_task, timeout=30)
        assert state["complete"] and state["done"] == 28
        assert len(calls) <= 3 * 28


def _tiny_matrix():
    return [RunSpec.create(kernel, scale="tiny", model=model,
                           variant=variant)
            for kernel in ("mcf", "em3d", "health", "mst", "vpr",
                           "treeadd.df", "treeadd.bf")
            for model in ("inorder", "ooo")
            for variant in ("base", "ssp")]


class TestRunnerServiceMode:
    def test_standalone_without_configuration(self):
        assert Runner(cache=None).service is None

    def test_environment_enables_service(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_ROOT", str(tmp_path / "svc"))
        runner = Runner(task_fn=fake_task)
        assert runner.service is not None
        assert runner.service.root == tmp_path / "svc"
        assert isinstance(runner.cache, ResultCache)
        assert runner.cache.root == tmp_path / "svc" / "cache"

    def test_runner_is_submit_plus_wait(self, tmp_path):
        _CALLS.clear()
        config = ServiceConfig(root=tmp_path / "svc", poll=0.01)
        runner = Runner(service=config, task_fn=fake_task)
        specs = [spec_n(0), spec_n(1), spec_n(0)]
        results = runner.run(specs)
        assert len(results) == 3
        assert all(r.ok for r in results)
        assert results[0].stats_dict == results[2].stats_dict
        assert len(_CALLS) == 2
        snap = runner.telemetry.snapshot()
        assert snap["launched"] == 2
        assert snap["cache_backend"]["puts"] == 2
        # A second runner over the same root: pure cache hits.
        second = Runner(service=config, task_fn=fake_task)
        again = second.run(specs)
        assert all(r.cached for r in again)
        assert len(_CALLS) == 2
        assert second.telemetry.counters["cache_hits"] == 2

    def test_service_stats_match_standalone(self, tmp_path):
        spec = RunSpec.create("treeadd.df", variant="ssp")
        plain = Runner(cache=None).run_one(spec)
        config = ServiceConfig(root=tmp_path / "svc", poll=0.01)
        served = Runner(service=config).run_one(spec)
        assert served.ok
        assert json.dumps(served.stats_dict, sort_keys=True) \
            == json.dumps(plain.stats_dict, sort_keys=True)


class TestForkedLocalWorkers:
    def test_each_unique_spec_runs_once_and_matches_inline(self,
                                                           tmp_path):
        """Two forked local workers drain the tiny matrix, every spec
        twice: the done records show one execution per unique spec, and
        the results are byte-identical to one inline worker's."""
        specs = _tiny_matrix() * 2
        root = tmp_path / "svc"
        forked = Runner(jobs=2, service=ServiceConfig(root=root)).run(specs)
        records = [json.loads(path.read_text()) for path in
                   (root / "queue" / "done").glob("*.json")]
        assert len(records) == 28
        assert all(r["ok"] and r["executed"] and r["attempts"] == 1
                   for r in records)
        assert len({r["worker"] for r in records}) <= 2
        inline = Runner(jobs=1, cache=None, service=None).run(specs)
        for a, b in zip(forked, inline):
            assert a.ok and b.ok and not a.cached
            assert json.dumps(a.stats_dict, sort_keys=True) \
                == json.dumps(b.stats_dict, sort_keys=True)


def _worker_main(root, worker_id):
    config = ServiceConfig(root=Path(root))
    worker = ServiceWorker(config.make_queue(), config.make_backend(),
                           worker_id=worker_id)
    worker.drain(idle_exit=1.5, poll=0.05)
    worker.write_summary()


class TestTwoWorkerProcesses:
    """The acceptance scenario, scaled to two workloads for test time:
    a duplicate-heavy batch submitted twice concurrently, drained by two
    real worker processes, executes each unique spec exactly once."""

    SPECS = [
        RunSpec.create("treeadd.df", variant="ssp"),
        RunSpec.create("treeadd.bf", variant="ssp"),
    ]

    def test_exactly_one_simulation_per_unique_hash(self, tmp_path):
        root = tmp_path / "svc"
        batch = self.SPECS + self.SPECS  # duplicate-heavy
        config = ServiceConfig(root=root, inline_worker=False,
                               poll=0.02)
        clients = [ServiceClient(config=config) for _ in range(2)]
        batch_ids = [client.submit(batch) for client in clients]
        assert batch_ids[0] == batch_ids[1]

        workers = [
            multiprocessing.Process(target=_worker_main,
                                    args=(str(root), f"test-w{i}"))
            for i in range(2)
        ]
        for proc in workers:
            proc.start()
        try:
            deadline = time.monotonic() + 120
            while not clients[0].status(batch_ids[0])["complete"]:
                assert time.monotonic() < deadline, "batch stalled"
                time.sleep(0.1)
        finally:
            for proc in workers:
                proc.join(timeout=60)
                assert proc.exitcode == 0

        summaries = [json.loads(path.read_text())
                     for path in sorted((root / "workers").glob("*.json"))]
        assert len(summaries) == 2
        executed = sum(s["executed"] for s in summaries)
        assert executed == len(self.SPECS), \
            f"expected exactly one simulation per unique hash: {summaries}"
        assert sum(s["failures"] for s in summaries) == 0

        for spec in self.SPECS:
            record = clients[0].queue.read_done(spec.content_hash())
            assert record["ok"] and record["executed"]
            assert record["attempts"] == 1

        # Golden parity: multi-process service results are byte-identical
        # to a standalone single-host run of the same specs.
        fetched = clients[1].fetch(batch_ids[1])
        standalone = Runner(cache=None).run(self.SPECS)
        for service_result, plain in zip(fetched, standalone):
            assert json.dumps(service_result.stats_dict, sort_keys=True) \
                == json.dumps(plain.stats_dict, sort_keys=True)


class TestServiceCLI:
    def test_submit_worker_status_fetch_roundtrip(self, tmp_path,
                                                  capsys):
        root = str(tmp_path / "svc")
        assert main(["service", "submit", "treeadd.df",
                     "--root", root]) == 0
        batch_id = capsys.readouterr().out.split()[1].rstrip(":")
        assert main(["service", "status", batch_id,
                     "--root", root]) == 1  # incomplete
        capsys.readouterr()
        assert main(["service", "worker", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        assert main(["service", "status", batch_id,
                     "--root", root]) == 0
        results_json = tmp_path / "results.json"
        assert main(["service", "fetch", batch_id, "--root", root,
                     "--json", str(results_json)]) == 0
        out = capsys.readouterr().out
        assert "treeadd.df/small/inorder/ssp" in out
        doc = json.loads(results_json.read_text())
        assert len(doc) == 1 and doc[0]["ok"]
        assert main(["service", "gc", "--root", root]) == 0

    def test_worker_on_empty_queue_exits_cleanly(self, tmp_path,
                                                 capsys):
        assert main(["service", "worker",
                     "--root", str(tmp_path / "svc")]) == 0
        assert "0 job(s)" in capsys.readouterr().out
