"""Runner/service caching and dedupe checks over the paper workloads.

For every paper workload this module makes one **cold** run (simulation
plus artifact build, cache empty) and one **warm** run (pure cache hit)
through a private :class:`~repro.runner.Runner`, then drives the whole
suite as a duplicate-heavy batch through service mode.  It asserts the
host-independent facts: results are cached and returned unchanged, hit
rates, and exactly one execution per unique spec.  It writes nothing
outside pytest's temporary directories; timings live in the ``perfbench``
harness (see ``perfbench/README.md``).
"""

from conftest import BENCH_SCALE

import pytest

from repro.runner import ResultCache, Runner, RunSpec
from repro.service import ServiceConfig
from repro.workloads import PAPER_ORDER


@pytest.mark.parametrize("workload", PAPER_ORDER)
def test_workload_cold_then_warm(workload, tmp_path):
    runner = Runner(cache=ResultCache(root=tmp_path / "cache"))
    spec = RunSpec.create(workload, scale=BENCH_SCALE, variant="ssp")

    cold = runner.run_one(spec)
    assert cold.ok and not cold.cached

    warm = runner.run_one(spec)
    assert warm.cached
    assert warm.stats_dict == cold.stats_dict

    assert runner.telemetry.snapshot()["hit_rate"] == 0.5  # one miss, one hit


def test_service_batch_dedupe(tmp_path):
    """The whole suite as one duplicate-heavy service-mode batch."""
    config = ServiceConfig(root=tmp_path / "svc", poll=0.01)
    specs = [RunSpec.create(name, scale=BENCH_SCALE, variant="ssp")
             for name in PAPER_ORDER]

    runner = Runner(service=config)
    results = runner.run(specs + specs)
    assert all(r.ok for r in results)
    assert runner.telemetry.snapshot()["launched"] == len(specs)  # coalesced

    rerun = Runner(service=config)
    again = rerun.run(specs)
    assert all(r.cached for r in again)
    assert rerun.telemetry.snapshot()["hit_rate"] == 1.0
