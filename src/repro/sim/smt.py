"""The SMT thread-context policy and the state both machine models share.

The paper's thread-context rules are the same on both of its machines: a
``chk.c`` or chaining ``spawn`` fires only "when a free hardware context
is available" (Section 2.1), and the Section 4.4.1 throttle makes a
useless trigger "return no available context".  :class:`SMTSimulator`
writes them once, together with everything else that is not timing:
program decode, the memory system, the branch predictor, the statistics,
checkpoint/resume, the profiler hook and optional context tracing.  The
in-order and OOO models subclass it and keep only their timing loop —
how a spawn waits for a context, when the per-context budgets are
checked and when a finished context is released.

The context table is one list per simulator: slot 0 holds the main
thread, ``None`` marks a free context, and a spawn takes the lowest free
slot.  A context is free exactly while no thread occupies it, so the
OOO model, whose main thread releases its slot when it finishes, can
hand slot 0 to a late speculative thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa.decode import decode_program
from ..isa.interp import ThreadState, spawn_thread
from ..isa.memory import Heap
from ..isa.program import Program
from .branch import GsharePredictor
from .caches import MemorySystem
from .config import MachineConfig
from .stats import SimStats

#: Sentinel cycle for "never" (no wake-up, no profiler sample due).
_FAR_FUTURE = 1 << 60

#: Cycle limit of a run that names none (the profiling run's).
DEFAULT_MAX_CYCLES = 200_000_000


class SMTSimulator:
    """Everything a machine model runs on except its timing loop."""

    #: Model name stamped into snapshots; a snapshot of one model refuses
    #: to restore into the other.
    SNAPSHOT_MODEL = ""
    #: Per-context timing state, built as ``THREAD(state, start, config)``.
    THREAD: type = object

    #: Everything mutable the run loops touch.  The program itself is NOT
    #: part of a snapshot: runs are content-addressed by their RunSpec, so
    #: a resume rebuilds the identical program and only the dynamic state
    #: crosses the checkpoint file.  Each model appends its own fields.
    _SNAPSHOT_FIELDS = (
        "heap", "memory", "predictor", "stats", "main_state", "contexts",
        "_miss_horizon", "_next_tid", "_chk_fires", "_chk_partials_at_first",
        "_chk_suppressed", "_started",
    )

    def __init__(self, program: Program, heap: Heap, config: MachineConfig,
                 spawning: bool = True,
                 max_cycles: int = DEFAULT_MAX_CYCLES):
        if not program.finalized:
            program.finalize()
        self.program = program
        decoded = self._decoded = decode_program(program)
        self._dcode = decoded.table
        self._slots = decoded.slots
        self.heap = heap
        self.config = config
        self.spawning = spawning
        self.max_cycles = max_cycles
        self.memory = MemorySystem(config)
        self.memory.prefetch_sources = dict(
            getattr(program, "prefetch_sources", {}))
        self.predictor = GsharePredictor(
            config.gshare_entries, config.btb_entries, config.btb_ways)
        self.stats = SimStats(self.memory)
        #: The hardware context table: slot -> occupying thread or None.
        self.contexts: List[Optional[object]] = (
            [None] * config.hardware_contexts)
        self._next_tid = 0
        # Latest completion cycle of a main-thread miss, for the Figure 10
        # Cache+Exec category: a cycle overlaps an outstanding miss while
        # it is below this horizon.  Both models ask only at a clock that
        # never goes back (the in-order cycle, OOO's main-thread retire),
        # so one int answers what a heap of completions would.
        self._miss_horizon = 0
        # Dynamic chk.c throttling (Section 4.4.1 future work): per-trigger
        # fire counts, the partial-hit baseline at first fire, and the set
        # of suppressed triggers.
        self._chk_fires: Dict[int, int] = {}
        self._chk_partials_at_first: Dict[int, int] = {}
        self._chk_suppressed: set = set()
        # Whether the run loop has been entered (so a restored simulator
        # continues instead of re-initialising the main context).
        self._started = False
        # Cycle-attribution profiler (repro.obs.profiler).  With no
        # profiler attached, ``_prof_next`` is a far-future sentinel and
        # the run loop's profiling gate is one always-false int compare.
        self._profiler = None
        self._prof_next = _FAR_FUTURE
        #: Optional :class:`~repro.sim.trace.ContextTrace` the policy
        #: records occupancy and spawn events into (see ``trace_run``).
        self.trace = None

    @property
    def cycle(self) -> int:  # pragma: no cover - every model defines it
        """The checkpoint's progress mark."""
        raise NotImplementedError

    @property
    def main_done(self) -> bool:
        """True once the main thread has halted (or been killed)."""
        return self._started and self.main_state.done

    def _begin(self):
        """Initialise the main context (once per simulator lifetime) and
        return its timing state."""
        program = self.program
        main_state = ThreadState(
            0, program.function_entry[program.entry], slots=self._slots)
        #: Final main-thread architectural state (the differential oracle
        #: compares it across execution engines after ``run``).
        self.main_state = main_state
        main = self.contexts[0] = self.THREAD(main_state, 0, self.config)
        if self.trace is not None:
            self.trace.occupy(0, 0, 0)
        self._started = True
        return main

    def attach_profiler(self, profiler) -> None:
        """Sample wall-time attribution into ``profiler`` during run().

        Profiling is observation-only: it never touches simulator state,
        so a profiled run produces byte-identical statistics.  Profiler
        state is deliberately outside ``_SNAPSHOT_FIELDS`` — checkpoints
        stay host-independent and a restored simulator is unprofiled
        unless the restoring process attaches its own profiler.
        """
        profiler.model = self.SNAPSHOT_MODEL
        self._profiler = profiler
        self._prof_next = self.cycle

    # -- checkpoint/resume ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Picklable snapshot of all dynamic state at a cycle boundary.

        The returned mapping aliases live simulator objects; serialise it
        (``pickle.dumps``) before letting the simulation continue.  Object
        identity inside the snapshot (stats ↔ memory, contexts ↔ run-loop
        queues) is preserved by pickling the dict as one unit.
        """
        if not self._started:
            self._begin()
        state: Dict[str, object] = {
            name: getattr(self, name) for name in self._SNAPSHOT_FIELDS}
        state["model"] = self.SNAPSHOT_MODEL
        state["cycle"] = self.cycle
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Reinstall a :meth:`snapshot`; the next ``run`` resumes.

        Refuses snapshots from the other machine model or with missing
        fields (a truncated or foreign checkpoint payload) by raising
        :class:`~repro.guard.errors.CheckpointError`.
        """
        from ..guard.errors import CheckpointError
        model = state.get("model") if isinstance(state, dict) else None
        if model != self.SNAPSHOT_MODEL:
            raise CheckpointError(
                f"checkpoint is for model {model!r}, not "
                f"{self.SNAPSHOT_MODEL!r}")
        missing = [n for n in self._SNAPSHOT_FIELDS if n not in state]
        if missing:
            raise CheckpointError(
                f"checkpoint payload missing fields: {missing}")
        for name in self._SNAPSHOT_FIELDS:
            setattr(self, name, state[name])
        # The restored memory system keeps its recorded prefetch mapping;
        # stats must keep pointing at the restored memory system.
        self.stats.memory = self.memory
        # A profiler attached *before* restore() captured the pre-restore
        # clock in _prof_next; renormalise so a resumed profiled run
        # samples on the configured interval instead of every iteration.
        self._prof_next = self.cycle if self._profiler is not None \
            else _FAR_FUTURE

    # -- the context policy --------------------------------------------------------

    def _spawn(self, parent: ThreadState, target: int, now: int,
               start: int):
        """Give a thread spawned by ``parent`` at ``target`` the lowest
        free context, its first fetch at cycle ``start``.

        Returns the child's timing state, or None when every context is
        taken: the request is then ignored (Section 2.1) and counted as a
        spawn failure.
        """
        contexts = self.contexts
        trace = self.trace
        if None not in contexts:
            self.stats.spawn_failures += 1
            if trace is not None:
                trace.note(now, "spawn_failure", parent=parent.tid)
            return None
        slot = contexts.index(None)
        self._next_tid += 1
        tid = self._next_tid
        child = contexts[slot] = self.THREAD(
            spawn_thread(parent, tid, target), start, self.config)
        self.stats.spawns += 1
        if trace is not None:
            trace.occupy(slot, tid, now)
            trace.note(now, "spawn", slot=slot, tid=tid, parent=parent.tid)
        return child

    def _release(self, slot: int, now: int, completed: bool = True) -> None:
        """Free context ``slot``; ``completed`` counts a finished
        speculative thread."""
        self.contexts[slot] = None
        if completed:
            self.stats.threads_completed += 1
        if self.trace is not None:
            self.trace.release(slot, now)

    def _budget_kill(self, state: ThreadState) -> None:
        """Runaway-slice containment: kill a speculative thread that
        outlived ``spec_cycle_budget``."""
        state.killed = True
        self.stats.budget_kills += 1

    def _chk_gate(self, chk_uid: int) -> bool:
        """Whether a ``chk.c`` fires: spawning is on, a context is free
        (Section 2.1) and, with ``dynamic_chk_throttle``, the trigger's
        coverage/timeliness monitor does not suppress it (Section 4.4.1).

        The monitor samples a trigger's first ``throttle_sample_fires``
        fires; if the main thread gained fewer than
        ``throttle_min_benefit`` partial hits per fire — the speculative
        threads are not getting useful prefetches in flight — the trigger
        is suppressed for the rest of the run (its chk.c "returns no
        available context").
        """
        if not (self.spawning and None in self.contexts):
            return False
        config = self.config
        if not config.dynamic_chk_throttle:
            return True
        if chk_uid in self._chk_suppressed:
            return False
        fires = self._chk_fires.get(chk_uid, 0)
        if fires == 0:
            self._chk_partials_at_first[chk_uid] = sum(
                self.memory.partial_counts.values())
        elif fires >= config.throttle_sample_fires:
            gained = (sum(self.memory.partial_counts.values())
                      - self._chk_partials_at_first[chk_uid])
            if gained / fires < config.throttle_min_benefit:
                self._chk_suppressed.add(chk_uid)
                return False
        self._chk_fires[chk_uid] = fires + 1
        return True
