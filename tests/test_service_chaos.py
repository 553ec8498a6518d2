"""Chaos tests for the service plane: crash, steal, resume, quarantine.

The headline invariants, asserted end to end with real worker processes
dying under an armed fault injector:

* **exactly one effective simulation per unique spec hash** — whatever
  crashes, torn writes and lease steals happen along the way, the shared
  backend converges on one entry per spec and its ``SimStats`` are
  byte-identical to an undisturbed standalone run;
* **SIGKILL mid-job is survivable** — a stolen lease resumes from the
  victim's last checkpoint (shared under the service root) and still
  lands on byte-identical stats;
* **at-least-once is not forever** — a job that keeps killing its
  workers is quarantined to ``queue/poisoned/`` with a structured
  diagnostic after ``poison_threshold`` steals, and waiting clients
  treat it as terminal (exit code, not a hang).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.guard import injecting
from repro.obs import collect_fleet
from repro.obs.fleet import fleet_summary_lines
from repro.resilience import (
    STEP_UNADAPTED,
    ResilienceConfig,
)
from repro.runner import ResultCache, Runner, RunSpec
from repro.service import ServiceClient, ServiceConfig, ServiceWorker
from repro.sim.caches import MemorySystem
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.tool.cli import EXIT_DEADLINE, EXIT_POISONED, main
from repro.workloads import PAPER_ORDER


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

EMPTY_STATS = SimStats(MemorySystem(MachineConfig())).to_dict()


def fake_task(spec):
    return {"stats": EMPTY_STATS, "wall_time": 0.25}


def spec_n(i):
    return RunSpec(workload=f"wl-{i}")


def backdate(path, seconds):
    past = time.time() - seconds
    os.utime(path, (past, past))


def make_client(tmp_path, **overrides):
    options = {"root": tmp_path / "svc", "poll": 0.01}
    options.update(overrides)
    return ServiceClient(config=ServiceConfig(**options))


def _wedge_and_steal(queue, digest, rounds):
    """Simulate ``rounds`` wedged owners: claim, let the lease go stale,
    steal.  Returns the last claim result (a Lease or None)."""
    lease = None
    for i in range(rounds):
        lease = queue.claim(f"wedged-w{i}")
        if lease is None:
            break
        backdate(lease.path, 3600)
    return lease


# ---------------------------------------------------------------------------
# poison quarantine
# ---------------------------------------------------------------------------


class TestPoisonQuarantine:
    def test_threshold_steals_tombstone_the_job(self, tmp_path):
        client = make_client(tmp_path, poison_threshold=2,
                             visibility_timeout=5.0)
        queue = client.queue
        spec = spec_n(0)
        digest, _ = queue.submit(spec)
        # Steal #1 (owner w0 wedged) hands the job to w1; steal #2 hits
        # the threshold and quarantines instead of redelivering.
        assert _wedge_and_steal(queue, digest, 3) is None
        assert queue.state_of(digest) == "poisoned"
        assert queue.counts()["poisoned"] == 1
        assert queue.pending_hashes() == []

        record = queue.read_poisoned(digest)
        assert record["hash"] == digest
        assert record["steals"] == 2
        assert record["poisoned"] > 0
        assert record["last_worker"]  # the displaced owner's identity
        assert "time" in record["last_heartbeat"]

        # Quarantine is terminal: no claim, no re-enqueue via submit.
        assert queue.claim("w9") is None
        assert queue.submit(spec) == (digest, False)
        # ... until an operator explicitly revives it.
        queue.resubmit(spec)
        assert queue.state_of(digest) == "queued"
        assert queue.read_poisoned(digest) is None

    def test_failure_diagnostics_flow_into_tombstone(self, tmp_path):
        client = make_client(tmp_path, poison_threshold=2,
                             visibility_timeout=5.0, max_attempts=5)
        queue = client.queue
        spec = spec_n(0)
        digest, _ = queue.submit(spec)
        lease = queue.claim("w0")
        assert lease.fail("BadThing: kaboom", worker="w0",
                          fault_site="backend.put.partial",
                          traceback_text="Traceback: ...") is True
        assert _wedge_and_steal(queue, digest, 3) is None
        record = queue.read_poisoned(digest)
        assert record["last_error"] == "BadThing: kaboom"
        assert record["last_fault_site"] == "backend.put.partial"
        assert record["traceback"].startswith("Traceback")
        assert record["attempts"] == 1

    def test_wait_treats_poison_as_terminal(self, tmp_path):
        client = make_client(tmp_path, poison_threshold=1,
                             visibility_timeout=5.0, inline_worker=False)
        spec = spec_n(0)
        batch_id = client.submit([spec])
        assert _wedge_and_steal(client.queue, spec.content_hash(), 2) \
            is None
        # The batch is complete around the quarantined job: wait returns
        # (instead of hanging) and fetch surfaces the diagnostic.
        status = client.wait(batch_id, timeout=30)
        assert status["complete"] and status["poisoned"] == 1
        results = client.fetch(batch_id)
        assert not results[0].ok
        assert "poisoned after 1 lease steal(s)" in results[0].error
        assert results[0].metrics["poisoned"]["hash"] \
            == spec.content_hash()

    def test_cli_exit_codes_distinguish_poison_and_deadline(
            self, tmp_path, capsys):
        client = make_client(tmp_path, poison_threshold=1,
                             visibility_timeout=5.0, inline_worker=False)
        root = str(client.root)
        spec = spec_n(0)
        batch_id = client.submit([spec])
        # An untouched batch + --no-worker + a tiny deadline: the wait
        # blows its budget and says so with its own exit code.
        assert main(["service", "wait", batch_id, "--root", root,
                     "--no-worker", "--deadline", "0.3"]) == EXIT_DEADLINE
        assert "deadline exceeded" in capsys.readouterr().err
        # Poison the job: status and wait both turn terminal-poisoned.
        _wedge_and_steal(client.queue, spec.content_hash(), 2)
        assert main(["service", "status", batch_id,
                     "--root", root]) == EXIT_POISONED
        captured = capsys.readouterr()
        assert "1 POISONED" in captured.out
        assert "POISONED" in captured.err  # per-job diagnostic line
        assert main(["service", "wait", batch_id, "--root", root,
                     "--no-worker"]) == EXIT_POISONED
        capsys.readouterr()
        # gc surfaces the quarantine count too.
        assert main(["service", "gc", "--root", root]) == 0
        assert "1 POISONED" in capsys.readouterr().out

    def test_gc_reaps_aged_tombstones(self, tmp_path):
        client = make_client(tmp_path, poison_threshold=1,
                             visibility_timeout=5.0)
        queue = client.queue
        spec = spec_n(0)
        digest, _ = queue.submit(spec)
        _wedge_and_steal(queue, digest, 2)
        assert queue.read_poisoned(digest) is not None
        assert queue.gc(max_age=9999) == 0
        assert queue.read_poisoned(digest) is not None
        assert queue.gc(max_age=1, now=time.time() + 100) >= 1
        assert queue.read_poisoned(digest) is None


# ---------------------------------------------------------------------------
# dead-owner fast path (os.kill(pid, 0) probe)
# ---------------------------------------------------------------------------


_CLAIM_AND_DIE = """
import sys
from pathlib import Path
from repro.service import ServiceConfig
config = ServiceConfig(root=Path(sys.argv[1]))
lease = config.make_queue().claim("short-lived")
assert lease is not None
print(lease.hash)
"""


def _spawn_dead_owner(tmp_path, root):
    """A real process claims a lease, exits, and leaves it dangling."""
    script = tmp_path / "claim_and_die.py"
    script.write_text(_CLAIM_AND_DIE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run([sys.executable, str(script), str(root)],
                         env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestDeadOwnerFastPath:
    def test_claim_steals_dead_pid_lease_before_timeout(self, tmp_path):
        # An hour-long visibility timeout: only the pid probe can
        # explain an immediate steal.
        client = make_client(tmp_path, visibility_timeout=3600.0)
        digest, _ = client.queue.submit(spec_n(0))
        assert _spawn_dead_owner(tmp_path, client.root) == digest
        lease = client.queue.claim("rescuer")
        assert lease is not None and lease.stolen
        assert lease.job["steals"] == 1

    def test_gc_reaps_dead_pid_lease_and_counts_the_steal(self, tmp_path):
        client = make_client(tmp_path, visibility_timeout=3600.0,
                             poison_threshold=1)
        digest, _ = client.queue.submit(spec_n(0))
        _spawn_dead_owner(tmp_path, client.root)
        assert client.queue.gc() >= 1
        # poison_threshold=1: the gc reap *is* the quarantining steal.
        assert client.queue.state_of(digest) == "poisoned"
        assert client.queue.read_poisoned(digest)["by"] == "gc"

    def test_live_owner_is_not_probed_as_dead(self, tmp_path):
        client = make_client(tmp_path, visibility_timeout=3600.0)
        client.queue.submit(spec_n(0))
        lease = client.queue.claim("w1")  # this process: alive
        assert client.queue.claim("w2") is None
        assert client.queue.gc() == 0
        lease.release()


# ---------------------------------------------------------------------------
# client backoff
# ---------------------------------------------------------------------------


class TestClientBackoff:
    def test_poll_delay_grows_and_is_bounded(self, tmp_path):
        client = make_client(tmp_path, poll=0.05, poll_max=2.0)
        delays = [client._poll_delay(i, "deadbeef") for i in range(40)]
        assert delays[0] >= 0.05
        assert delays[0] < delays[4] < delays[8]
        assert all(d <= 2.0 * 1.5 for d in delays)  # jitter < 50%
        # Deep idle saturates at the (jittered) ceiling.
        assert delays[-1] >= 2.0

    def test_poll_delay_is_deterministic_per_key(self, tmp_path):
        client = make_client(tmp_path)
        assert client._poll_delay(3, "batch-a") \
            == client._poll_delay(3, "batch-a")
        assert client._poll_delay(3, "batch-a") \
            != client._poll_delay(3, "batch-b")


# ---------------------------------------------------------------------------
# the six service-layer fault sites, one by one
# ---------------------------------------------------------------------------


class TestFaultSites:
    def test_lease_corrupt_falls_back_to_mtime(self, tmp_path):
        client = make_client(tmp_path, visibility_timeout=5.0)
        queue = client.queue
        queue.submit(spec_n(0))
        with injecting("queue.lease.corrupt") as injector:
            lease = queue.claim("w1")
            assert injector.fired["queue.lease.corrupt"] == 1
            assert b"corrupt" in lease.path.read_bytes()
            # Fresh mtime + unreadable payload: still exclusively held
            # (the probe cannot run, so the timeout governs)...
            assert queue.claim("w2") is None
            assert injector.recovered["queue.lease.corrupt"] >= 1
            # ... and a stale mtime is still stealable.
            backdate(lease.path, 60)
            stolen = queue.claim("w3")
            assert stolen is not None and stolen.stolen

    def test_steal_race_loser_yields_and_retries(self, tmp_path):
        client = make_client(tmp_path, visibility_timeout=5.0)
        queue = client.queue
        queue.submit(spec_n(0))
        lease = queue.claim("w1")
        backdate(lease.path, 60)
        with injecting("queue.steal.race:1:1") as injector:
            assert queue.claim("w2") is None  # lost the election
            assert injector.recovered["queue.steal.race"] == 1
            stolen = queue.claim("w2")  # next claim wins
            assert stolen is not None and stolen.stolen

    def test_torn_summary_is_skipped_and_counted(self, tmp_path):
        client = make_client(tmp_path)
        worker = ServiceWorker(client.queue, client.backend,
                               task_fn=fake_task, worker_id="torn-w")
        client.queue.submit(spec_n(0))
        assert worker.drain() == 1
        with injecting("worker.summary.torn") as injector:
            path = worker.write_summary()
            with pytest.raises(ValueError):
                json.loads(path.read_text())
            doc = collect_fleet(config=client.config)
            assert doc["totals"]["torn_summaries"] == 1
            assert doc["workers"] == []
            assert injector.recovered["worker.summary.torn"] == 1
        assert any("torn summary" in line
                   for line in fleet_summary_lines(doc))
        # The crash-safe rewrite heals the view.
        worker.write_summary()
        doc = collect_fleet(config=client.config)
        assert doc["totals"]["torn_summaries"] == 0
        assert [w["worker"] for w in doc["workers"]] == ["torn-w"]

    def test_partial_put_is_quarantined_then_rewritten(self, tmp_path):
        client = make_client(tmp_path)
        spec = spec_n(0)
        with injecting("backend.put.partial:1:1") as injector:
            client.backend.put(spec, EMPTY_STATS, 1.0)
            assert injector.fired["backend.put.partial"] == 1
            # The torn entry is detected, quarantined, and served as a
            # miss — never parsed into garbage results.
            assert client.backend.get(spec) is None
            assert injector.recovered["backend.put.partial"] >= 1
            client.backend.put(spec, EMPTY_STATS, 1.0)
        entry = client.backend.get(spec)
        assert entry is not None and entry["stats"] == EMPTY_STATS

    def test_read_ioerror_is_a_transient_miss(self, tmp_path):
        client = make_client(tmp_path)
        spec = spec_n(0)
        client.backend.put(spec, EMPTY_STATS, 1.0)
        with injecting("backend.read.ioerror:1:1") as injector:
            assert client.backend.get(spec) is None
            assert injector.recovered["backend.read.ioerror"] == 1
            assert client.backend.get(spec) is not None  # transient

    def test_lost_result_is_healed_by_resubmission(self, tmp_path):
        # An ok done record whose backend entry did not survive (torn
        # put) must surface as "lost" and be resubmitted, not hang.
        client = make_client(tmp_path, inline_worker=False)
        spec = spec_n(0)
        batch_id = client.submit([spec])
        worker = ServiceWorker(client.queue, client.backend,
                               task_fn=fake_task)
        with injecting("backend.put.partial"):
            assert worker.step() is not None
        status = client.status(batch_id)
        assert status["lost"] == 1 and not status["complete"]
        client._heal_missing(status, client.load_batch(batch_id))
        assert worker.step() is not None  # re-executes the revived job
        status = client.status(batch_id)
        assert status["complete"] and status["done"] == 1


# ---------------------------------------------------------------------------
# worker.crash: die holding the lease, recover via the dead-pid probe
# ---------------------------------------------------------------------------


class TestWorkerCrashSite:
    def test_crashed_worker_job_is_redelivered(self, tmp_path):
        client = make_client(tmp_path, visibility_timeout=3600.0)
        root = str(client.root)
        digest, _ = client.queue.submit(spec_n(0))
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        script = tmp_path / "crash_worker.py"
        script.write_text(
            "import sys\n"
            "from repro.tool.cli import main\n"
            "sys.exit(main(['service', 'worker', '--root', sys.argv[1],\n"
            "               '--inject', 'worker.crash:1:1',\n"
            "               '--inject-seed', '7']))\n",
            encoding="utf-8")
        out = subprocess.run([sys.executable, str(script), root], env=env,
                             capture_output=True, text=True, timeout=120)
        from repro.service.worker import CRASH_EXIT_STATUS
        assert out.returncode == CRASH_EXIT_STATUS, out.stderr
        # The corpse: a lease naming a dead pid, the job still pending.
        assert list(client.queue.lease_dir.glob("*.lease"))
        assert client.queue.pending_hashes() == [digest]
        # Recovery: the pid probe steals immediately.  The site is armed
        # at probability 0 — in the plan (so the steal is scored as its
        # recovery) but never firing in *this* process.
        with injecting("worker.crash:0") as injector:
            rescuer = ServiceWorker(client.queue, client.backend,
                                    task_fn=fake_task,
                                    worker_id="rescuer")
            assert rescuer.step() == digest
            assert rescuer.counters["stolen_leases"] == 1
            assert injector.recovered["worker.crash"] >= 1
        assert client.queue.state_of(digest) == "done"


# ---------------------------------------------------------------------------
# degradation ladder under supervisor discipline, at service scope
# ---------------------------------------------------------------------------


class TestServiceLadder:
    def test_oom_walks_job_to_unadapted_and_redirects(self, tmp_path):
        client = make_client(tmp_path, inline_worker=False)
        spec = RunSpec.create("treeadd.df", scale="tiny", variant="ssp")
        batch_id = client.submit([spec])
        worker = ServiceWorker(client.queue, client.backend,
                               resilience=ResilienceConfig())
        # The first three rungs (full, basic, top1) die of injected
        # OOM; the fourth (unadapted) completes.
        with injecting("worker.oom:1:3"):
            assert worker.step() == spec.content_hash()
        assert worker.counters["degraded"] == 1
        assert worker.ladder == {STEP_UNADAPTED: 1}

        record = client.queue.read_done(spec.content_hash())
        assert record["ok"]
        assert record["ladder_step"] == STEP_UNADAPTED
        assert record["executed_hash"] != spec.content_hash()
        # Honest caching: nothing under the full-capability hash; the
        # client follows the done record's redirect.
        assert client.backend.get(spec) is None
        status = client.status(batch_id)
        assert status["complete"] and status["done"] == 1
        result = client.fetch(batch_id)[0]
        assert result.ok
        assert result.metrics["resilience"]["ladder_step"] \
            == STEP_UNADAPTED
        assert len(result.metrics["resilience"]["reasons"]) == 3
        assert all("oom" in reason for reason
                   in result.metrics["resilience"]["reasons"])

    def test_degraded_fetch_reads_each_hash_once(self, tmp_path,
                                                 monkeypatch):
        """Fetching a degraded job reads its requested hash once (a
        miss) and the executed hash its done record redirects to once."""
        client = make_client(tmp_path, inline_worker=False)
        spec = RunSpec.create("treeadd.df", scale="tiny", variant="ssp")
        batch_id = client.submit([spec])
        worker = ServiceWorker(client.queue, client.backend,
                               resilience=ResilienceConfig())
        with injecting("worker.oom:1:3"):
            assert worker.step() == spec.content_hash()
        record = client.queue.read_done(spec.content_hash())
        gets = []
        real_get = ResultCache.get
        monkeypatch.setattr(
            ResultCache, "get",
            lambda self, s: gets.append(s.content_hash())
            or real_get(self, s))
        assert client.fetch(batch_id)[0].ok
        assert sorted(gets) == sorted([spec.content_hash(),
                                       record["executed_hash"]])


# ---------------------------------------------------------------------------
# SIGKILL mid-job -> lease steal -> resume from checkpoint (satellite d)
# ---------------------------------------------------------------------------


_SERVICE_WORKER = """
import sys
from pathlib import Path
from repro.resilience import ResilienceConfig
from repro.service import ServiceConfig, ServiceWorker
config = ServiceConfig(root=Path(sys.argv[1]))
worker = ServiceWorker(config.make_queue(), config.make_backend(),
                       worker_id=sys.argv[2],
                       resilience=ResilienceConfig(checkpoint_every=2000))
worker.drain()
worker.write_summary()
"""


def _run_service_worker(script, root, worker_id, env):
    out = subprocess.run([sys.executable, str(script), str(root),
                          worker_id], env=env, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return json.loads(
        (Path(root) / "workers" / f"{worker_id}.json").read_text())


class TestSigkillMidJobResume:
    SPEC = RunSpec.create("mcf", scale="tiny", model="inorder",
                          variant="base")

    def test_stolen_lease_resumes_to_identical_stats(self, tmp_path):
        script = tmp_path / "service_worker.py"
        script.write_text(_SERVICE_WORKER, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))

        # Golden: the same spec drained undisturbed on a pristine root
        # (its own interpreter, like every run in this test).
        golden_client = make_client(tmp_path / "golden")
        golden_client.submit([self.SPEC])
        golden = _run_service_worker(script, golden_client.root,
                                     "golden-w", env)
        golden_entry = golden_client.backend.get(self.SPEC)
        digest = self.SPEC.content_hash()
        assert golden_entry is not None, (
            f"no golden entry: worker summary {golden}, done record "
            f"{golden_client.queue.read_done(digest)}, queue state "
            f"{golden_client.queue.state_of(digest)!r}")

        # Victim: SIGKILL as soon as its first checkpoint lands.
        client = make_client(tmp_path / "chaos",
                             visibility_timeout=3600.0)
        client.submit([self.SPEC])
        ckpt_root = client.root / "checkpoints"
        proc = subprocess.Popen(
            [sys.executable, str(script), str(client.root), "victim"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        try:
            while not list(ckpt_root.rglob("*.ckpt")):
                assert proc.poll() is None, \
                    "worker finished before a checkpoint was observed"
                assert time.monotonic() < deadline, \
                    "no checkpoint appeared"
                time.sleep(0.002)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert proc.returncode == -signal.SIGKILL
        assert list(ckpt_root.rglob("*.ckpt")), "checkpoint lost"
        assert list(client.queue.lease_dir.glob("*.lease")), \
            "the victim should die holding its lease"

        # Rescuer: steals through the dead-pid probe (the visibility
        # timeout is an hour) and resumes from the victim's checkpoint.
        summary = _run_service_worker(script, client.root, "rescuer",
                                      env)
        assert summary["stolen_leases"] == 1
        assert summary["resumes"] == 1
        assert summary["executed"] == 1

        record = client.queue.read_done(digest)
        assert record["ok"] and record["worker"] == "rescuer"
        assert record["resumed_from_cycle"] > 0
        entry = client.backend.get(self.SPEC)
        assert json.dumps(entry["stats"], sort_keys=True) \
            == json.dumps(golden_entry["stats"], sort_keys=True)
        # A completed run retires its checkpoints.
        assert not list(ckpt_root.rglob("*.ckpt"))


# ---------------------------------------------------------------------------
# the chaos fleet (satellite d): 2 workers, 7 workloads, armed injector
# ---------------------------------------------------------------------------


_CHAOS_WORKER = """
import sys
from pathlib import Path
from repro.guard import faultinject
from repro.guard.faultinject import FaultInjector
from repro.resilience import ResilienceConfig
from repro.service import ServiceConfig, ServiceWorker
root, worker_id, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
faultinject.install(FaultInjector(
    ["worker.crash:0.3", "backend.put.partial:0.2"], seed=seed))
# Generous poison threshold: the fleet test asserts convergence under
# random crashes, so crash-driven steals must not tombstone a job
# (quarantine-at-threshold has its own deterministic tests).  The
# threshold matters HERE, on the worker — poisoning is a claim-time
# decision — not just on the driver's client config.
config = ServiceConfig(root=root, poison_threshold=100)
worker = ServiceWorker(config.make_queue(), config.make_backend(),
                       worker_id=worker_id,
                       resilience=ResilienceConfig(checkpoint_every=5000))
worker.drain(idle_exit=0.5, poll=0.05)
worker.write_summary()
"""

#: Seed base for the fleet's per-process injector streams.  Pinned so a
#: failing run is replayable: every respawned worker derives its seed
#: from this base plus its spawn ordinal.
CHAOS_SEED = 20020617


class TestChaosFleet:
    SPECS = [RunSpec.create(name, scale="tiny", variant="ssp")
             for name in PAPER_ORDER]

    def test_fleet_converges_under_crashes_and_torn_writes(self,
                                                           tmp_path):
        from repro.service.worker import CRASH_EXIT_STATUS

        root = tmp_path / "svc"
        script = tmp_path / "chaos_worker.py"
        script.write_text(_CHAOS_WORKER, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        # A generous poison threshold: this test asserts convergence
        # under random crashes (quarantine-at-threshold has its own
        # deterministic tests above).
        config = ServiceConfig(root=root, inline_worker=False,
                               poll=0.02, visibility_timeout=30.0,
                               poison_threshold=100)
        clients = [ServiceClient(config=config) for _ in range(2)]
        # Duplicate-heavy: both clients submit the same batch.
        batch_ids = [client.submit(self.SPECS) for client in clients]
        assert batch_ids[0] == batch_ids[1]
        manifest = clients[0].load_batch(batch_ids[0])

        def spawn(ordinal):
            return subprocess.Popen(
                [sys.executable, str(script), str(root),
                 f"chaos-w{ordinal}", str(CHAOS_SEED + ordinal)],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)

        spawned = 2
        live = [spawn(0), spawn(1)]
        exit_codes = []
        deadline = time.monotonic() + 600
        try:
            # Drive until the batch is complete AND the fleet is
            # quiescent.  Completeness alone is not a stopping point: a
            # straggler re-executing a healed duplicate can tear a
            # previously-good entry with its own injected partial put,
            # regressing the batch — the heal loop must outlive the
            # last worker.
            while True:
                # Reap BEFORE polling status: a status snapshot taken
                # while a worker was still alive can be stale by the
                # time the worker exits (it may have torn an entry in
                # between).  Only a status computed with zero live
                # workers is a stable stopping condition.
                still_alive = []
                for proc in live:
                    code = proc.poll()
                    if code is None:
                        still_alive.append(proc)
                    else:
                        exit_codes.append(code)
                live = still_alive
                status = clients[0].status(batch_ids[0])
                # Self-heal lost results (torn backend puts).  A batch
                # can read "complete" while an entry is lost (its ok
                # done record survives the torn put), so completeness
                # only settles things once there is nothing left to
                # heal — otherwise the resubmit above just re-pended a
                # job that still needs a worker.
                clients[0]._heal_missing(status, manifest)
                settled = (status["complete"]
                           and not status.get("missing")
                           and not status.get("lost"))
                if settled and not live:
                    break
                assert time.monotonic() < deadline, \
                    f"chaos fleet stalled: {status}"
                if not settled:
                    # Keep two workers on the job (idle ones exit on
                    # their own once the queue stays empty).
                    while len(live) < 2:
                        assert spawned < 60, "respawn budget exhausted"
                        live.append(spawn(spawned))
                        spawned += 1
                time.sleep(0.2)
        finally:
            for proc in live:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)

        # No orphans: every spawned worker has been reaped, and each
        # exited either cleanly or via the injected crash — nothing
        # else.
        assert len(exit_codes) == spawned
        assert set(exit_codes) <= {0, CRASH_EXIT_STATUS}

        # The chaos invariant: whatever happened in between, exactly
        # one effective simulation per unique spec hash survives, all
        # jobs are ok, nothing was poisoned or lost.
        status = clients[0].status(batch_ids[0])
        assert status["done"] == len(self.SPECS)
        assert status["failed"] == 0 and status["poisoned"] == 0
        for spec in self.SPECS:
            # The backend is the authority: one surviving entry per
            # spec.  A done record may legitimately be absent (a
            # worker that crashed between its backend put and the done
            # write — the batch completes off the entry), but if one
            # exists it must be ok.
            assert clients[0].backend.get(spec) is not None, \
                spec.label()
            record = clients[0].queue.read_done(spec.content_hash())
            assert record is None or record["ok"], record

        # Golden parity: byte-identical SimStats to an undisturbed
        # standalone run — identical timing, identical per-load rows.
        fetched = clients[1].fetch(batch_ids[1])
        standalone = Runner(cache=None).run(self.SPECS)
        for service_result, plain in zip(fetched, standalone):
            assert plain.ok
            assert json.dumps(service_result.stats_dict, sort_keys=True) \
                == json.dumps(plain.stats_dict, sort_keys=True), \
                service_result.spec.label()

        # The fleet document folds the survivors' fault scorecards.
        doc = collect_fleet(config=config)
        assert doc["schema"] == 3
        if doc.get("faults"):
            assert set(doc["faults"]) <= {"worker.crash",
                                          "backend.put.partial"}
