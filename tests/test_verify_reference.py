"""Differential verify reusing the profile's reference run.

``collect_profile`` records its functional run of a speculation-free
binary as a :class:`~repro.codegen.verify.ReferenceRun`;
``differential_check`` skips its own run of the original when that
record provably is that run and the adapted binary matches it.  These
tests pin when the reuse happens, when it falls back, that reports are
the same either way, and that a verify stage which raises never ships
an unverified binary.
"""

from __future__ import annotations

import pytest

from repro.codegen.verify import differential_check, speculation_free
from repro.guard import injecting
from repro.isa import Heap
from repro.isa.instructions import store
from repro.profiling import collect_profile
from repro.tool import SSPPostPassTool
from repro.workloads import make_workload

from test_guard import _arc_scan, _reference_scan, _scan_heap


class CountingFactory:
    """A heap factory that counts its calls."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.factory()


def _profiled(name="mcf", scale="tiny"):
    workload = make_workload(name, scale)
    program = workload.build_program()
    profile = collect_profile(program, workload.build_heap)
    return workload, program, profile


# -- Heap.digest -----------------------------------------------------------------


class TestHeapDigest:
    def test_explicit_zero_equals_absent_word(self):
        a, b = Heap(1 << 13), Heap(1 << 13)
        a.store(0x1000, 5)
        b.store(0x1000, 5)
        b.store(0x1008, 0)
        assert a.digest() == b.digest()

    def test_contents_and_size_are_covered(self):
        a, b = Heap(1 << 13), Heap(1 << 13)
        a.store(0x1000, 5)
        b.store(0x1000, 6)
        assert a.digest() != b.digest()
        assert Heap(1 << 13).digest() != Heap(1 << 14).digest()


# -- report identity ------------------------------------------------------------------


@pytest.fixture(scope="module")
def scan_reference():
    profile = collect_profile(_reference_scan(), _scan_heap)
    assert profile.reference is not None
    return profile


def _arc_scan_heap_drift():
    """The sound adaptation whose stub also writes an unused word of the
    first arc: the main thread's registers end as in the original, only
    the final heap differs."""
    prog = _arc_scan()
    prog.function("main").block("stub1").instrs.insert(
        0, store("r50", "r51", 8))
    return prog.finalize()


ADAPTED_SCANS = {
    "sound": _arc_scan,
    "spec_store": lambda: _arc_scan("spec_store"),
    "main_drift": lambda: _arc_scan("main_drift"),
    "heap_drift": _arc_scan_heap_drift,
}


@pytest.mark.parametrize("variant", sorted(ADAPTED_SCANS))
def test_report_identical_with_and_without_reference(scan_reference,
                                                     variant):
    original = scan_reference.program
    build = ADAPTED_SCANS[variant]
    with_ref = differential_check(original, build(), _scan_heap,
                                  reference=scan_reference.reference)
    without = differential_check(original, build(), _scan_heap)
    assert with_ref.to_dict() == without.to_dict()
    assert with_ref.equivalent is (variant == "sound")


def test_report_identical_under_injected_mismatch(scan_reference):
    original = scan_reference.program
    with injecting("verify.mismatch"):
        with_ref = differential_check(original, _arc_scan(), _scan_heap,
                                      reference=scan_reference.reference)
    with injecting("verify.mismatch"):
        without = differential_check(original, _arc_scan(), _scan_heap)
    assert not with_ref.equivalent
    assert with_ref.to_dict() == without.to_dict()


# -- when the reference run is skipped ---------------------------------------------------


def test_reference_run_skipped_on_common_path():
    workload, program, profile = _profiled()
    factory = CountingFactory(workload.build_heap)
    result = SSPPostPassTool().adapt(program, profile, heap_factory=factory)
    assert result.adapted is not None
    assert not result.guard.rolled_back
    assert factory.calls == 1

    factory = CountingFactory(workload.build_heap)
    differential_check(program, result.adapted.program, factory)
    assert factory.calls == 2


def test_falls_back_when_heap_differs():
    workload, program, profile = _profiled()
    adapted = SSPPostPassTool().adapt(program, profile).adapted.program
    other = type(workload)(scale="tiny", seed=workload.seed + 1)
    factory = CountingFactory(other.build_heap)
    with_ref = differential_check(program, adapted, factory,
                                  reference=profile.reference)
    assert factory.calls == 2
    assert with_ref.to_dict() == differential_check(
        program, adapted, other.build_heap).to_dict()


def test_falls_back_when_original_is_not_the_profiled_program():
    workload, program, profile = _profiled()
    copy = program.clone().finalize()
    factory = CountingFactory(workload.build_heap)
    result = SSPPostPassTool().adapt(copy, profile, heap_factory=factory)
    assert result.adapted is not None
    assert factory.calls == 2


def test_falls_back_when_original_was_refinalised():
    workload, program, profile = _profiled()
    adapted = SSPPostPassTool().adapt(program, profile).adapted.program
    program.finalize()
    factory = CountingFactory(workload.build_heap)
    assert differential_check(program, adapted, factory,
                              reference=profile.reference).equivalent
    assert factory.calls == 2


def test_no_reference_for_a_binary_that_speculates():
    assert speculation_free(_reference_scan())
    assert not speculation_free(_arc_scan())
    assert collect_profile(_arc_scan(), _scan_heap).reference is None

    # Re-profiling an adapted binary (it holds chk.c) records nothing, so
    # a check against it makes the full reference run.
    workload, program, profile = _profiled()
    adapted = SSPPostPassTool().adapt(program, profile).adapted.program
    profile = collect_profile(adapted, workload.build_heap)
    assert profile.reference is None
    factory = CountingFactory(workload.build_heap)
    assert differential_check(adapted, adapted, factory,
                              reference=profile.reference).equivalent
    assert factory.calls == 2


# -- a verify stage that raises ------------------------------------------------------------


def test_verify_stage_exception_never_ships_an_unverified_binary():
    workload, program, profile = _profiled()

    def broken_factory():
        raise RuntimeError("heap factory exploded")

    result = SSPPostPassTool().adapt(program, profile,
                                     heap_factory=broken_factory)
    assert result.adapted is None
    guard = result.guard
    assert [r["function"] for r in guard.rollbacks] == [None]
    assert "heap factory exploded" in guard.rollbacks[0]["reason"]
    assert [d.stage for d in guard.diagnostics] == ["verify"]
    assert guard.adapted_loads == 0
