"""Tests for the file/dir job queue: leases, stealing, at-least-once."""

import json
import os
import time

import pytest

from repro.runner import RunSpec
from repro.service import JobQueue
from repro.tool import ToolOptions


def spec_n(i):
    return RunSpec(workload=f"wl-{i}")


def backdate(path, seconds):
    past = time.time() - seconds
    os.utime(path, (past, past))


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "svc", visibility_timeout=30.0)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        RunSpec(workload="em3d"),
        RunSpec.create("mcf", scale="tiny", model="ooo", variant="ssp"),
        RunSpec.create("health", variant="hand", spawning=False),
        RunSpec.create("vpr", tool_options=ToolOptions(),
                       config_overrides={"l2_size": 1 << 20,
                                         "perfect_load_uids": [3, 1, 2]}),
        RunSpec.create("mst", max_cycles=12345),
    ])
    def test_from_key_preserves_hash(self, spec):
        clone = RunSpec.from_key(json.loads(json.dumps(spec.key())))
        assert clone.content_hash() == spec.content_hash()
        assert clone.label() == spec.label()

    def test_from_key_rejects_unknown_fields(self):
        key = RunSpec.create("mcf", scale="tiny", variant="ssp").key()
        key["sample_interval"] = 10000
        with pytest.raises(ValueError, match="sample_interval"):
            RunSpec.from_key(key)


class TestSubmission:
    def test_submit_is_idempotent(self, queue):
        digest, new = queue.submit(spec_n(0))
        assert new
        assert queue.submit(spec_n(0)) == (digest, False)
        assert queue.pending_hashes() == [digest]

    def test_done_job_not_reenqueued(self, queue):
        spec = spec_n(0)
        queue.submit(spec)
        lease = queue.claim("w1")
        lease.complete(executed=True, wall_time=1.0, worker="w1")
        assert queue.submit(spec) == (spec.content_hash(), False)
        assert queue.pending_hashes() == []

    def test_resubmit_after_terminal_state(self, queue):
        spec = spec_n(0)
        queue.submit(spec)
        queue.claim("w1").complete(executed=True, worker="w1")
        queue.resubmit(spec)
        assert queue.state_of(spec.content_hash()) == "queued"


class TestClaiming:
    def test_claim_starved_queue(self, queue):
        assert queue.claim("w1") is None

    def test_lease_is_exclusive(self, queue):
        queue.submit(spec_n(0))
        lease = queue.claim("w1")
        assert lease is not None
        assert queue.claim("w2") is None
        lease.release()
        assert queue.claim("w2") is not None

    def test_claim_rebuilds_spec(self, queue):
        spec = RunSpec.create("mcf", scale="tiny", variant="ssp")
        queue.submit(spec)
        lease = queue.claim("w1")
        assert lease.spec.content_hash() == spec.content_hash()
        assert lease.attempt == 1
        assert not lease.stolen

    def test_prefer_biases_order(self, queue):
        specs = [spec_n(i) for i in range(8)]
        for spec in specs:
            queue.submit(spec)
        want = specs[5].content_hash()
        lease = queue.claim("w1", prefer={want})
        assert lease.hash == want

    def test_stale_lease_is_stolen(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", visibility_timeout=5.0)
        queue.submit(spec_n(0))
        first = queue.claim("w1")
        assert queue.claim("w2") is None
        backdate(first.path, 60)
        stolen = queue.claim("w2")
        assert stolen is not None
        assert stolen.stolen
        assert queue.counts()["stale_leases"] == 0

    def test_heartbeat_keeps_lease_live(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", visibility_timeout=5.0)
        queue.submit(spec_n(0))
        lease = queue.claim("w1")
        backdate(lease.path, 60)
        lease.beat(cycle=100_000, stage="simulate")
        assert queue.claim("w2") is None
        assert queue.state_of(lease.hash) == "running"


class TestLifecycle:
    def test_complete_writes_done_record(self, queue):
        spec = spec_n(0)
        queue.submit(spec)
        lease = queue.claim("w1")
        lease.complete(executed=True, wall_time=2.5, worker="w1")
        digest = spec.content_hash()
        assert queue.state_of(digest) == "done"
        record = queue.read_done(digest)
        assert record["ok"] and record["executed"]
        assert record["wall_time"] == 2.5
        assert record["worker"] == "w1"
        assert record["attempts"] == 1
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "stale_leases": 0, "done": 1,
                                  "failed": 0, "poisoned": 0}

    def test_fail_requeues_until_budget_exhausted(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", max_attempts=2)
        spec = spec_n(0)
        queue.submit(spec)
        lease = queue.claim("w1")
        assert lease.fail("boom 1", worker="w1") is True
        assert queue.state_of(spec.content_hash()) == "queued"
        lease = queue.claim("w2")
        assert lease.attempt == 2
        assert lease.fail("boom 2", worker="w2") is False
        assert queue.state_of(spec.content_hash()) == "failed"
        record = queue.read_done(spec.content_hash())
        assert record["error"] == "boom 2"
        assert record["attempts"] == 2

    def test_unrebuildable_spec_fails_instead_of_running(self, tmp_path):
        # A job whose key carries a field this version does not define
        # (here a sampled-simulation knob) would run under a different
        # address than the one waiters poll; claiming fails it instead.
        queue = JobQueue(tmp_path / "svc", max_attempts=2)
        key = RunSpec.create("mcf", scale="tiny", variant="ssp").key()
        key["sample_interval"] = 10000
        key["sample_window"] = 2000
        digest = "0" * 64          # sorts first: claimed before spec_n(0)
        queue.ensure()
        (queue.pending_dir / f"{digest}.json").write_text(
            json.dumps({"hash": digest, "spec": key, "attempts": 0}),
            encoding="utf-8")
        queue.submit(spec_n(0))
        lease = queue.claim("w1")
        assert lease.hash == spec_n(0).content_hash()
        assert queue.state_of(digest) == "queued"
        assert queue.claim("w2") is None
        assert queue.state_of(digest) == "failed"
        record = queue.read_done(digest)
        assert "sample_interval" in record["error"]
        assert record["attempts"] == 2
        assert record["spec"] == key

    def test_state_progression(self, queue):
        spec = spec_n(0)
        digest = spec.content_hash()
        assert queue.state_of(digest) == "missing"
        queue.submit(spec)
        assert queue.state_of(digest) == "queued"
        lease = queue.claim("w1")
        assert queue.state_of(digest) == "running"
        lease.complete(executed=True, worker="w1")
        assert queue.state_of(digest) == "done"

    def test_pending_retired_when_done_elsewhere(self, queue):
        # A pending file left behind after another worker completed the
        # job (crash between done-write and retire) must not re-execute.
        spec = spec_n(0)
        queue.submit(spec)
        lease = queue.claim("w1")
        lease.complete(executed=True, worker="w1")
        queue.ensure()
        (queue.pending_dir / f"{spec.content_hash()}.json").write_text(
            json.dumps({"hash": spec.content_hash(),
                        "spec": spec.key(), "attempts": 0}),
            encoding="utf-8")
        assert queue.claim("w2") is None
        assert queue.pending_hashes() == []


class TestGC:
    def test_reaps_aged_done_records(self, queue):
        spec = spec_n(0)
        queue.submit(spec)
        queue.claim("w1").complete(executed=True, worker="w1")
        assert queue.gc(max_age=9999) == 0
        assert queue.gc(max_age=0, now=time.time() + 100) == 1
        assert queue.read_done(spec.content_hash()) is None

    def test_reaps_orphan_leases_of_retired_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", visibility_timeout=5.0)
        queue.submit(spec_n(0))
        lease = queue.claim("w1")
        digest = lease.hash
        # Crash after retiring pending but before releasing the lease.
        queue._retire_pending(digest)
        (queue.done_dir / f"{digest}.json").write_text("{}")
        backdate(lease.path, 60)
        assert queue.gc() >= 1
        assert not lease.path.exists()

    def test_live_state_untouched(self, queue):
        queue.submit(spec_n(0))
        queue.submit(spec_n(1))
        queue.claim("w1")
        assert queue.gc(max_age=9999) == 0
        counts = queue.counts()
        # The pending file of a claimed job stays until completion
        # (at-least-once: losing the lease must not lose the job).
        assert counts["pending"] == 2
        assert counts["leased"] == 1
