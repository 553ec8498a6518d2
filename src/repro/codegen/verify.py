"""Differential (semantic-equivalence) verification of adapted binaries.

The structural invariants of an adapted binary — the Figure 7 shape of
stubs and slices — are rules of :mod:`repro.check.lint`.  They prove the
binary *well formed*; they do not prove it computes the same thing.  The
differential check runs the original and the adapted programs
functionally and compares the main thread's architectural outcome
(registers, predicates, halted state) and the final heap.  Speculative
work must be architecturally invisible, so any divergence means the
adaptation is unsound and must be rolled back.  Both runs step the
pre-decoded table (repro.isa.decode), and the run of the original is
skipped when the profile already recorded it.  The tool first tries
repro.check.proof, which proves this check's verdict without running
anything, and runs the check only when the proof does not go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..guard import faultinject
from ..isa.decode import D_KIND, D_STEP, K_CHK, K_SPAWN, decode_program
from ..isa.instructions import OP_CHK_C, OP_SPAWN
from ..isa.interp import ExecutionError, ThreadState, spawn_thread
from ..isa.memory import Heap, HeapImage
from ..isa.program import Program

#: Forced fires per ``chk.c`` site in a shadow run.
FIRE_LIMIT = 8
#: Main-thread step limit of a shadow run.
MAX_SHADOW_STEPS = 50_000_000


@dataclass
class DifferentialReport:
    """Outcome of :func:`differential_check`."""

    equivalent: bool
    reason: str = ""
    #: Function the mismatch was attributed to (None = unknown → whole-
    #: binary rollback).
    function: Optional[str] = None
    #: First few heap mismatches as (addr, original, adapted).
    heap_mismatches: List[tuple] = field(default_factory=list)
    spawned_threads: int = 0
    killed_by_budget: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "equivalent": self.equivalent,
            "reason": self.reason,
            "function": self.function,
            "heap_mismatches": [list(m) for m in self.heap_mismatches],
            "spawned_threads": self.spawned_threads,
            "killed_by_budget": self.killed_by_budget,
        }


class ShadowInterpreter:
    """Functional execution that *forces* speculation to happen.

    The plain :class:`~repro.isa.interp.FunctionalInterpreter` never fires
    ``chk.c`` and drops spawns, so a corrupted p-slice would be invisible
    to it.  The shadow interpreter fires each ``chk.c`` site up to
    ``fire_limit`` times and eagerly runs every spawned speculative thread
    to completion (with a per-thread step budget and a chain cap, both of
    which *silently* kill the thread — mirroring the hardware containment
    the paper relies on).  What it surfaces as errors is exactly what would
    corrupt the main program: a speculative store, or main-thread state
    that diverges from the unadapted run.
    """

    def __init__(self, program: Program, heap: Heap, *,
                 fire_limit: int = FIRE_LIMIT, spec_step_budget: int = 4096,
                 max_chained: int = 4096,
                 max_steps: int = MAX_SHADOW_STEPS):
        if not program.finalized:
            program.finalize()
        self.program = program
        decoded = decode_program(program)
        self._dcode = decoded.table
        self._slots = decoded.slots
        self.heap = heap
        self.fire_limit = fire_limit
        self.spec_step_budget = spec_step_budget
        self.max_chained = max_chained
        self.max_steps = max_steps
        self.spawned_threads = 0
        self.killed_by_budget = 0
        self._next_tid = 1
        self._chk_fires: Dict[int, int] = {}

    def run(self) -> ThreadState:
        program = self.program
        dcode = self._dcode
        heap = self.heap
        state = ThreadState(0, program.function_entry[program.entry],
                            slots=self._slots)
        chk_fires = self._chk_fires
        fire_limit = self.fire_limit
        max_steps = self.max_steps
        steps = 0
        while not (state.halted or state.killed):
            if steps >= max_steps:
                raise ExecutionError(
                    f"exceeded {max_steps} steps; infinite loop?")
            pc = state.pc
            d = dcode[pc]
            kind = d[D_KIND]
            fires = False
            if kind == K_CHK:
                fired = chk_fires.get(pc, 0)
                if fired < fire_limit:
                    chk_fires[pc] = fired + 1
                    fires = True
            target = d[D_STEP](state, heap, fires)
            if kind == K_SPAWN and target is not None:
                home = program.function_of_index[state.pc]
                self._run_speculative(state, target, home)
            steps += 1
        return state

    def _run_speculative(self, parent: ThreadState, target_pc: int,
                         home: str) -> None:
        """Eagerly run one speculative thread (and any chains it spawns)."""
        dcode = self._dcode
        heap = self.heap
        budget = self.spec_step_budget
        chained = 0
        pending = [spawn_thread(parent, self._tid(), target_pc)]
        while pending:
            child = pending.pop()
            self.spawned_threads += 1
            steps = 0
            while not (child.halted or child.killed):
                if steps >= budget:
                    self.killed_by_budget += 1
                    break  # silent containment kill, not an error
                d = dcode[child.pc]
                try:
                    target = d[D_STEP](child, heap, False)
                except ExecutionError as exc:
                    raise SpeculativeEffectError(str(exc), function=home) \
                        from exc
                if d[D_KIND] == K_SPAWN and target is not None:
                    chained += 1
                    if chained <= self.max_chained:
                        pending.append(spawn_thread(
                            child, self._tid(), target))
                    # past the cap: silently drop the chain spawn
                steps += 1

    def _tid(self) -> int:
        self._next_tid += 1
        return self._next_tid


class SpeculativeEffectError(ExecutionError):
    """A speculative thread had an architectural effect (e.g. a store)."""

    def __init__(self, message: str, function: Optional[str] = None):
        super().__init__(message)
        self.function = function


def _architectural_outcome(state: ThreadState) -> Dict[str, Any]:
    """Comparable view of a final main-thread state.

    Zero registers / false predicates are dropped because absent entries
    read as 0 / False; the live-in staging buffer is excluded — it is
    microarchitectural and legitimately differs once stubs run.
    """
    outcome = state.named()
    outcome["halted"] = state.halted
    return outcome


def workload_image(heap_factory: Callable[[], Heap]) -> Optional[HeapImage]:
    """The image a workload's own ``build_heap`` thaws every heap from
    (laid out on its first call), or None for any other factory."""
    from ..workloads.base import Workload
    if getattr(heap_factory, "__func__", None) is Workload.build_heap:
        return heap_factory.__self__._image
    return None


@dataclass(frozen=True, eq=False)
class ReferenceRun:
    """A recorded run of an original binary, standing in for the
    differential check's reference run.

    :func:`repro.profiling.collect_profile` records one from its
    in-order profiling run.  It is only valid for a binary with no
    ``chk.c`` and no ``spawn`` (:func:`speculation_free`): there the
    timing run's main thread and a shadow run step identically, so
    re-running the shadow interpreter would repeat the recorded run on
    the same heap.  Two records are equal when their initial digests,
    outcomes, final digests and decode versions are.
    """

    #: :func:`_architectural_outcome` of the final main-thread state.
    outcome: Dict[str, Any]
    #: :meth:`~repro.isa.memory.Heap.digest` of the final heap.
    final_digest: str
    #: The binary's ``_decode_version`` when it ran (bumped by every
    #: ``finalize()``), so a re-finalised binary is never trusted.
    decode_version: int
    #: The ``heap_factory`` the run's heap came from.
    heap_factory: Optional[Callable[[], Heap]] = None
    #: :meth:`~repro.isa.memory.Heap.digest` of the initial heap; None
    #: when it is derived on demand from ``image``.
    heap_digest: Optional[str] = None
    #: The workload image the initial heap was thawed from, if any.
    image: Optional[HeapImage] = None

    @property
    def initial_digest(self) -> str:
        """The digest of the initial heap, taken from ``image`` when the
        run did not record one."""
        if self.heap_digest is not None:
            return self.heap_digest
        return self.image.digest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceRun):
            return NotImplemented
        return (self.outcome, self.final_digest, self.decode_version,
                self.initial_digest) == (
                    other.outcome, other.final_digest, other.decode_version,
                    other.initial_digest)

    __hash__ = object.__hash__

    def starts_from(self, heap_factory: Callable[[], Heap],
                    heap: Optional[Heap] = None) -> bool:
        """Whether ``heap_factory`` builds this run's initial heap.

        The recorded factory itself does when it is a workload's
        ``build_heap``: a workload lays its image out once and every call
        thaws a copy of it, so no digest is needed.  For any other
        factory the digest of ``heap``, its fresh heap (built here when
        not given), is compared.
        """
        if heap_factory == self.heap_factory \
                and workload_image(heap_factory) is not None:
            return True
        if heap is None:
            heap = heap_factory()
        return heap.digest() == self.initial_digest


def speculation_free(program: Program) -> bool:
    """True when ``program`` contains no ``chk.c`` and no ``spawn``."""
    return not any(instr.op in (OP_CHK_C, OP_SPAWN)
                   for instr in program.code)


def differential_check(original: Program, adapted: Program,
                       heap_factory: Callable[[], Heap], *,
                       fire_limit: int = FIRE_LIMIT,
                       spec_step_budget: int = 4096,
                       max_chained: int = 4096,
                       reference: Optional[ReferenceRun] = None
                       ) -> DifferentialReport:
    """Compare main-thread architectural outcomes of the two programs.

    Both run under the :class:`ShadowInterpreter` on freshly built heaps;
    the adapted run has every ``chk.c`` forced to fire, so p-slices really
    execute.  Any speculative store, interpreter failure in the adapted
    run, or divergence of registers / predicates / final heap yields a
    non-equivalent report naming the culprit function when known.

    ``reference`` is a recorded run of ``original``.  It replaces the
    reference run only when it provably is that run (same initial heap,
    same ``_decode_version``) *and* the adapted run matches it (same
    outcome, same final heap); otherwise the original runs as usual, so
    a non-equivalent report is identical with or without ``reference``.
    """
    def shadow_of(program: Program, heap: Heap) -> ShadowInterpreter:
        return ShadowInterpreter(program, heap, fire_limit=fire_limit,
                                 spec_step_budget=spec_step_budget,
                                 max_chained=max_chained)

    heap = heap_factory()
    if reference is not None and not (
            original.finalized
            and reference.decode_version == original._decode_version
            and reference.starts_from(heap_factory, heap)):
        reference = None
    if reference is None:
        ref = shadow_of(original, heap)
        ref_state = ref.run()
        heap = heap_factory()
    shadow = shadow_of(adapted, heap)
    try:
        adapted_state = shadow.run()
    except SpeculativeEffectError as exc:
        return DifferentialReport(
            equivalent=False,
            reason=f"speculative architectural effect: {exc}",
            function=exc.function,
            spawned_threads=shadow.spawned_threads,
            killed_by_budget=shadow.killed_by_budget)
    except ExecutionError as exc:
        return DifferentialReport(
            equivalent=False,
            reason=f"adapted program failed to execute: {exc}",
            spawned_threads=shadow.spawned_threads,
            killed_by_budget=shadow.killed_by_budget)

    if faultinject.fires("verify.mismatch"):
        return DifferentialReport(
            equivalent=False,
            reason="injected fault at site 'verify.mismatch'",
            spawned_threads=shadow.spawned_threads,
            killed_by_budget=shadow.killed_by_budget)

    adapted_out = _architectural_outcome(adapted_state)
    if reference is not None:
        if adapted_out == reference.outcome and \
                shadow.heap.digest() == reference.final_digest:
            return DifferentialReport(
                equivalent=True,
                spawned_threads=shadow.spawned_threads,
                killed_by_budget=shadow.killed_by_budget)
        ref = shadow_of(original, heap_factory())
        ref_state = ref.run()

    mismatches = ref.heap.diff(shadow.heap)
    if mismatches:
        return DifferentialReport(
            equivalent=False,
            reason=f"final heap differs at {len(mismatches)}+ words "
                   f"(first at {mismatches[0][0]:#x})",
            heap_mismatches=mismatches,
            spawned_threads=shadow.spawned_threads,
            killed_by_budget=shadow.killed_by_budget)
    ref_out = _architectural_outcome(ref_state)
    if ref_out != adapted_out:
        keys = [k for k in ref_out if ref_out[k] != adapted_out[k]]
        return DifferentialReport(
            equivalent=False,
            reason=f"main-thread state differs: {', '.join(keys)}",
            spawned_threads=shadow.spawned_threads,
            killed_by_budget=shadow.killed_by_budget)
    return DifferentialReport(
        equivalent=True,
        spawned_threads=shadow.spawned_threads,
        killed_by_budget=shadow.killed_by_budget)
