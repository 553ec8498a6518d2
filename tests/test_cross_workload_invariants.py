"""Cross-cutting invariants, checked on every benchmark's adaptation.

These are the end-to-end soundness properties the whole system rests on,
verified per workload rather than just on mcf:

* the emitted binary passes the Figure 7 structural verifier;
* it survives an assembler round trip with identical behaviour;
* with spawning disabled it computes the same result at (approximately)
  the same cost as the baseline — the adaptation is a pure overlay;
* speculation never changes the program's architectural result;
* the cycle accounting is exact on the in-order model.
"""

import pytest

from repro import (
    PAPER_ORDER,
    SSPPostPassTool,
    collect_profile,
    make_workload,
    simulate,
)
from repro.check.lint import verify_adapted_binary
from repro.isa import round_trip


@pytest.fixture(scope="module", params=PAPER_ORDER)
def adapted(request):
    name = request.param
    w = make_workload(name, "tiny")
    prog = w.build_program()
    profile = collect_profile(prog, w.build_heap)
    result = SSPPostPassTool().adapt(prog, profile)
    assert result.adapted is not None, f"{name}: tool produced nothing"
    return name, w, prog, profile, result


class TestStructuralSoundness:
    def test_verifier_passes(self, adapted):
        name, _, _, _, result = adapted
        counts = verify_adapted_binary(result.program)
        assert counts["slices"] >= 1
        assert counts["triggers"] >= 1

    def test_stub_and_slice_per_record(self, adapted):
        name, _, _, _, result = adapted
        for record in result.adapted.records:
            func = result.program.function(
                record.scheduled.region_slice.region.function)
            assert func.has_block(record.stub_label)
            assert func.has_block(record.slice_label)

    def test_live_in_counts_within_buffer(self, adapted):
        from repro.isa.interp import LIB_SLOTS
        name, _, _, _, result = adapted
        for record in result.adapted.records:
            assert record.num_live_ins <= LIB_SLOTS


class TestAssemblerRoundTrip:
    def test_round_trip_identical_behaviour(self, adapted):
        name, w, _, _, result = adapted
        rt = round_trip(result.program)
        h1, h2 = w.build_heap(), w.build_heap()
        s1 = simulate(result.program, h1, "inorder")
        s2 = simulate(rt, h2, "inorder")
        assert s1.cycles == s2.cycles, f"{name}: round trip diverged"
        w.check_output(h2)


class TestOverlayProperty:
    def test_disabled_spawning_is_baseline(self, adapted):
        name, w, prog, profile, result = adapted
        heap = w.build_heap()
        off = simulate(result.program, heap, "inorder", spawning=False)
        w.check_output(heap)
        # chk.c as a nop: within 3% of the unadapted baseline.
        assert off.cycles <= profile.baseline_cycles * 1.03, \
            f"{name}: the dormant adaptation must be nearly free"

    def test_speculation_never_corrupts(self, adapted):
        name, w, _, _, result = adapted
        for model in ("inorder", "ooo"):
            heap = w.build_heap()
            simulate(result.program, heap, model)
            w.check_output(heap)


class TestAccountingExactness:
    def test_breakdown_sums(self, adapted):
        name, w, _, _, result = adapted
        stats = simulate(result.program, w.build_heap(), "inorder")
        assert sum(stats.cycle_breakdown.values()) == stats.cycles

    def test_figure9_fractions_bounded(self, adapted):
        name, w, _, _, result = adapted
        stats = simulate(result.program, w.build_heap(), "inorder")
        breakdown = stats.delinquent_breakdown(result.delinquent_uids)
        if breakdown:
            for key, value in breakdown.items():
                assert -1e-9 <= value <= 1.0 + 1e-9, (name, key, value)
