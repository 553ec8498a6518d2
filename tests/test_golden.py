"""Golden regression tests: the whole pipeline is deterministic.

Workload construction, profiling, adaptation and simulation involve no
wall-clock or unseeded randomness, so the tiny-scale end-to-end numbers
are exactly reproducible.  ``golden_tiny.json`` pins them — including a
digest of the full ``SimStats`` of the base and SSP binaries on both
machine models — so any change to
these values is a behavioural change that must be reviewed (and the file
regenerated deliberately — see the module-level `regenerate()` helper).
"""

import hashlib
import json
import os

import pytest

from repro import (
    PAPER_ORDER,
    SSPPostPassTool,
    collect_profile,
    make_workload,
    simulate,
)

from helpers import rebased_stats

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_tiny.json")


def stats_digest(stats) -> str:
    """SHA-256 of a run's full ``SimStats``, uids densely renumbered."""
    blob = json.dumps(rebased_stats(stats.to_dict()), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute(name: str) -> dict:
    w = make_workload(name, "tiny")
    prog = w.build_program()
    profile = collect_profile(prog, w.build_heap)
    result = SSPPostPassTool().adapt(prog, profile)
    runs = {f"{model}/{variant}": simulate(binary, w.build_heap(), model)
            for model in ("inorder", "ooo")
            for variant, binary in (("base", prog),
                                    ("ssp", result.program))}
    ssp = runs["inorder/ssp"]
    row = result.table2_row()
    return {
        "baseline_cycles": profile.baseline_cycles,
        "ssp_cycles": ssp.cycles,
        "spawns": ssp.spawns,
        "slices": row["slices"],
        "avg_size": row["avg_size"],
        "avg_live_ins": row["avg_live_ins"],
        "delinquent_count": len(result.delinquent_uids),
        "expected_output": w.expected_output(w.layout),
        "stats_digest": {key: stats_digest(stats)
                         for key, stats in runs.items()},
    }


def regenerate() -> None:  # pragma: no cover - manual utility
    golden = {name: compute(name) for name in PAPER_ORDER}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_end_to_end_deterministic(name, golden):
    assert compute(name) == golden[name], (
        f"{name}: end-to-end numbers changed — if intentional, regenerate "
        "tests/golden_tiny.json via tests.test_golden.regenerate()")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
    print(f"regenerated {GOLDEN_PATH}")
