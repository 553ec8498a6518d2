"""Tests for fleet-wide telemetry (:mod:`repro.obs.fleet`).

Covers aggregation over a real drained service root (worker summaries,
queue counts, backend counters), the empty/half-formed-root guarantees,
lease and pending-age accounting, both renderers, report embedding, and
the ``service top`` CLI surface.
"""

import json
import time

import pytest

from repro.guard import injecting
from repro.obs import (
    COUNTERS,
    collect_fleet,
    fleet_summary_lines,
    render_fleet,
    render_report,
)
from repro.resilience import ResilienceConfig
from repro.runner import Runner, RunSpec
from repro.service import ServiceClient, ServiceConfig, ServiceWorker
from repro.tool.cli import main


@pytest.fixture()
def drained_root(tmp_path):
    """A service root with one submitted batch drained by one worker."""
    config = ServiceConfig(root=tmp_path / "svc")
    client = ServiceClient(config=config)
    spec = RunSpec.create("health", scale="tiny", model="inorder",
                          variant="ssp")
    client.submit([spec])
    worker = ServiceWorker(config.make_queue(), config.make_backend())
    assert worker.drain() >= 1
    worker.write_summary()
    return config


class TestCollectFleet:
    def test_empty_root_yields_an_empty_document(self, tmp_path):
        doc = collect_fleet(root=tmp_path / "nowhere")
        assert doc["totals"]["workers"] == 0
        assert doc["totals"]["throughput"] == 0.0
        assert doc["queue"]["pending"] == 0
        assert doc["queue"]["oldest_lease_age"] is None
        assert "no worker summaries yet" in render_fleet(doc)

    def test_missing_root_is_left_absent(self, tmp_path):
        # A read-only view: a mistyped root must not become a new,
        # empty service root.
        root = tmp_path / "nowhere"
        doc = collect_fleet(root=root)
        assert doc["totals"]["workers"] == 0
        assert doc["workers"] == []
        assert all(doc["queue"][k] == 0 for k in (
            "pending", "leased", "stale_leases", "done", "failed",
            "poisoned"))
        assert not root.exists()

    def test_drained_root_aggregates_everything(self, drained_root):
        doc = collect_fleet(config=drained_root)
        json.dumps(doc)
        assert doc["totals"]["workers"] == 1
        assert doc["totals"]["executed"] == 1
        assert doc["totals"]["throughput"] > 0
        assert doc["queue"]["done"] == 1
        assert doc["queue"]["pending"] == 0
        assert doc["backend"]["entries"] >= 1
        assert doc["backend"]["bytes"] > 0
        (row,) = doc["workers"]
        assert row["executed"] == 1
        assert row["wall_time"] > 0

    def test_corrupt_worker_summary_is_skipped(self, drained_root):
        workers_dir = drained_root.root / "workers"
        (workers_dir / "torn.json").write_text("{not json",
                                               encoding="utf-8")
        doc = collect_fleet(config=drained_root)
        assert doc["totals"]["workers"] == 1

    def test_lease_and_pending_ages(self, tmp_path):
        config = ServiceConfig(root=tmp_path / "svc")
        client = ServiceClient(config=config)
        spec = RunSpec.create("health", scale="tiny", model="inorder",
                              variant="ssp")
        client.submit([spec])  # left pending: nobody drains it
        queue = config.make_queue()
        queue.lease_dir.mkdir(parents=True, exist_ok=True)
        (queue.lease_dir / "stuck.lease").write_text("", encoding="utf-8")
        doc = collect_fleet(config=config, now=time.time() + 30)
        assert doc["queue"]["pending"] == 1
        assert doc["queue"]["oldest_pending_age"] >= 30
        assert doc["queue"]["oldest_lease_age"] >= 30

    def test_dedupe_rate_across_workers(self, drained_root):
        # A second worker that only deduplicates: resubmit the same
        # spec; the queue skips it (already done), so fake the summary.
        summary = {"worker": "w2", "pid": 999, "started": 100.0,
                   "finished": 110.0, "executed": 0, "deduped": 3,
                   "failures": 0, "retries": 0, "stolen_leases": 0,
                   "backend": {}}
        path = drained_root.root / "workers" / "w2.json"
        path.write_text(json.dumps(summary), encoding="utf-8")
        doc = collect_fleet(config=drained_root)
        assert doc["totals"]["workers"] == 2
        assert doc["totals"]["deduped"] == 3
        assert doc["totals"]["hit_rate"] == pytest.approx(3 / 4)


class TestOneCounterVocabulary:
    def test_a_degraded_job_reads_the_same_in_every_view(self, tmp_path):
        """One job degraded once by an injected OOM, through a resilient
        Runner and through an inline resilient ServiceWorker: the runner
        telemetry, the worker summary and the fleet totals all count it
        under the same keys."""
        spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                              variant="ssp")
        runner = Runner(jobs=1, cache=None, service=None,
                        resilience=ResilienceConfig())
        with injecting("worker.oom:1:1"):
            assert runner.run_one(spec).ok
        telemetry = runner.telemetry.snapshot()

        config = ServiceConfig(root=tmp_path / "svc")
        ServiceClient(config=config).submit([spec])
        worker = ServiceWorker(config.make_queue(), config.make_backend(),
                               resilience=ResilienceConfig())
        with injecting("worker.oom:1:1"):
            assert worker.drain() == 1
        summary = json.loads(worker.write_summary().read_text())
        totals = collect_fleet(config=config)["totals"]

        for view in (telemetry, summary, totals):
            assert set(COUNTERS) <= set(view)
            for name in ("degraded", "descents", "launched", "executed"):
                assert view[name] == 1, (name, view)


class TestRendering:
    def test_render_fleet_has_worker_table(self, drained_root):
        doc = collect_fleet(config=drained_root)
        text = render_fleet(doc)
        assert "fleet @" in text
        assert "queue:" in text
        assert "backend:" in text
        (row,) = doc["workers"]
        assert str(row["worker"])[:28] in text

    def test_summary_lines_are_compact(self, drained_root):
        doc = collect_fleet(config=drained_root)
        lines = fleet_summary_lines(doc)
        assert len(lines) == 3
        assert lines[0].startswith("fleet @")

    def test_age_humanizer(self):
        from repro.obs.fleet import _age
        assert _age(None) == "-"
        assert _age(45) == "45s"
        assert _age(600) == "10m"
        assert _age(7200) == "2.0h"

    def test_report_renders_fleet_section(self, drained_root):
        doc = collect_fleet(config=drained_root)
        text = render_report({"workload": "x", "scale": "tiny",
                              "model": "inorder", "fleet": doc})
        assert "fleet @" in text


class TestCLIServiceTop:
    def test_one_shot_top(self, drained_root, capsys):
        assert main(["service", "top",
                     "--root", str(drained_root.root)]) == 0
        out = capsys.readouterr().out
        assert "fleet @" in out
        assert "queue:" in out

    def test_top_json(self, drained_root, capsys):
        assert main(["service", "top", "--json",
                     "--root", str(drained_root.root)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["executed"] == 1

    def test_top_on_empty_root(self, tmp_path, capsys):
        assert main(["service", "top",
                     "--root", str(tmp_path / "empty")]) == 0
        assert "no worker summaries yet" in capsys.readouterr().out
