"""Event-driven out-of-order SMT model (16-stage, 255-ROB, 18-entry RS).

The OOO model exists in the paper to show that dynamic scheduling already
hides much of the latency SSP targets ("the OOO model has less room for
improvement via SSP", Section 2.2) — what matters is that the model:

* executes past stalled instructions up to the ROB/RS window, so
  independent misses overlap (memory-level parallelism),
* still serialises dependent pointer-chasing loads (dataflow limit),
* cannot reach beyond a 255-instruction window, so distant misses remain —
  exactly the ones SSP's long-range prefetching removes (Section 4.4.1).

Implementation: a *compute-at-fetch* timing model.  Instructions execute
architecturally in program order at fetch (so all values and addresses are
exact), and timing is derived per instruction:

    ready    = max(completion of producers)
    start    = first cycle >= max(fetch+1, ready) with a free issue slot
               (6/cycle shared) and, for memory ops, a free port (2/cycle)
    complete = start + latency          (loads probe the caches at start)
    retire   = in order, bounded by retire width

Fetch is bounded by bundle slots (2 bundles/cycle shared across threads),
the ROB (fetch of instruction *i* waits for retirement of *i - 255*), the
RS (start of *i* waits for start of *i - 18*), and redirects: a mispredicted
branch blocks fetch until it *executes* (unlike the in-order model, where
resolution is immediate).  Threads are interleaved through a priority queue
on their next fetch cycle, so cross-thread cache interactions happen in
approximately global time order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..isa.decode import (
    D_READS,
    K_BR,
    K_BRC,
    K_CHK,
    K_HALT,
    K_KILL,
    K_LD,
    K_LFETCH,
    K_RET,
    K_SPAWN,
    K_ST,
    RES_MEM,
    decode_program,
    step_decoded,
)
from ..isa.interp import ThreadState, spawn_thread
from ..isa.memory import Heap
from ..isa.program import Program
from .branch import GsharePredictor
from .caches import L1, MemorySystem
from .config import MachineConfig
from .stats import STALL_CATEGORY, SimStats

#: Sentinel "next profiler sample" cycle when no profiler is attached.
_FAR_FUTURE = 1 << 60


class _OOOThread:
    """Per-thread OOO timing state."""

    __slots__ = ("state", "fetch_cycle", "reg_complete", "reg_level",
                 "retire_ring", "start_ring", "last_retire", "retire_count",
                 "spawn_retries", "spec_issued", "spawn_cycle")

    def __init__(self, state: ThreadState, start_cycle: int,
                 rob: int, rs: int):
        self.state = state
        self.fetch_cycle = start_cycle
        #: Instructions fetched by this (speculative) context, for the
        #: runaway-slice containment budget.
        self.spec_issued = 0
        #: Cycle the context was allocated, for the cycle budget.
        self.spawn_cycle = start_cycle
        #: register -> completion cycle of its producer.
        self.reg_complete: Dict[str, int] = {}
        self.reg_level: Dict[str, Optional[str]] = {}
        #: retirement times of the last ROB instructions.
        self.retire_ring: Deque[int] = deque(maxlen=rob)
        #: issue (leave-RS) times of the last RS instructions.
        self.start_ring: Deque[int] = deque(maxlen=rs)
        self.last_retire = start_cycle
        self.retire_count = 0
        #: Deferred-spawn retries so far (bounded; see inorder.py).
        self.spawn_retries = 0


class OOOSimulator:
    """Runs a finalised program on the out-of-order SMT machine model."""

    def __init__(self, program: Program, heap: Heap, config: MachineConfig,
                 spawning: bool = True, max_cycles: int = 200_000_000):
        if not program.finalized:
            program.finalize()
        self.program = program
        self.heap = heap
        self.config = config
        self.spawning = spawning
        self.max_cycles = max_cycles
        self._dcode = decode_program(program)
        self.memory = MemorySystem(config)
        self.memory.prefetch_sources = dict(
            getattr(program, "prefetch_sources", {}))
        self.predictor = GsharePredictor(
            config.gshare_entries, config.btb_entries, config.btb_ways,
            config.hardware_contexts * 8)
        self.stats = SimStats(self.memory)
        self._issue_used: Dict[int, int] = {}
        self._port_used: Dict[int, int] = {}
        self._fetch_used: Dict[int, int] = {}
        self._live_threads = 0
        self._next_tid = 0
        # Run-loop state, held on the instance so a checkpoint can capture
        # it mid-run and a restored simulator can continue seamlessly.
        self._main: Optional[_OOOThread] = None
        self._queue: List[Tuple[int, int, _OOOThread]] = []
        self._tie = 0
        self._end_cycle: Optional[int] = None
        self._main_misses: List[int] = []
        self._pops = 0
        self._started = False
        # Cycle-attribution profiler (repro.obs.profiler); see inorder.py.
        self._profiler = None
        self._prof_next = _FAR_FUTURE

    def attach_profiler(self, profiler) -> None:
        """Sample wall-time attribution into ``profiler`` during run().

        Observation-only (statistics are byte-identical with or without
        it) and deliberately outside ``_SNAPSHOT_FIELDS`` — see
        :meth:`repro.sim.inorder.InOrderSimulator.attach_profiler`.
        """
        profiler.model = self.SNAPSHOT_MODEL
        self._profiler = profiler
        self._prof_next = self.cycle if self._started else 0

    # -- checkpoint/resume ---------------------------------------------------------

    #: See :attr:`repro.sim.inorder.InOrderSimulator.SNAPSHOT_MODEL` — the
    #: program is rebuilt from the RunSpec; only dynamic state is captured.
    SNAPSHOT_MODEL = "ooo"
    _SNAPSHOT_FIELDS = (
        "heap", "memory", "predictor", "stats", "main_state",
        "_issue_used", "_port_used", "_fetch_used", "_live_threads",
        "_next_tid", "_main", "_queue", "_tie", "_end_cycle",
        "_main_misses", "_pops", "_started",
    )

    @property
    def cycle(self) -> int:
        """Earliest pending fetch cycle (the checkpoint's progress mark)."""
        if self._queue:
            return self._queue[0][0]
        return self.stats.cycles

    def snapshot(self) -> Dict[str, object]:
        """Picklable snapshot of all dynamic state (see inorder docs)."""
        if not self._started:
            self._begin()
        state: Dict[str, object] = {
            name: getattr(self, name) for name in self._SNAPSHOT_FIELDS}
        state["model"] = self.SNAPSHOT_MODEL
        state["cycle"] = self.cycle
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Reinstall a :meth:`snapshot`; the next :meth:`run` resumes."""
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
        self.stats.memory = self.memory
        # A profiler attached before restore() captured `_prof_next` from
        # the pre-restore clock; re-anchor it so resumed profiled runs
        # sample on the configured interval from the restored cycle.
        self._prof_next = self.cycle if self._profiler is not None \
            else _FAR_FUTURE

    @property
    def main_done(self) -> bool:
        """True once the main thread has architecturally finished."""
        return self._started and self._main is not None \
            and self._main.state.done

    def _begin(self) -> None:
        """Initialise the main context (once per simulator lifetime)."""
        program = self.program
        config = self.config
        main_state = ThreadState(tid=0,
                                 pc=program.function_entry[program.entry])
        #: Final main-thread architectural state (the differential oracle
        #: compares it across execution engines after :meth:`run`).
        self.main_state = main_state
        self._main = _OOOThread(main_state, 0, config.rob_entries,
                                config.rs_entries)
        self._queue = [(0, 0, self._main)]
        self._live_threads = 1
        self._tie = 0
        self._end_cycle = None
        self._main_misses = []
        self._pops = 0
        self._started = True

    # -- per-cycle resource pools ---------------------------------------------------

    def _prune_pools(self, now: int) -> None:
        """Drop per-cycle resource counters far in the past (memory bound)."""
        horizon = now - 10_000
        for pool in (self._issue_used, self._port_used, self._fetch_used):
            if len(pool) > 200_000:
                for cycle in [c for c in pool if c < horizon]:
                    del pool[cycle]

    # -- accounting ------------------------------------------------------------------

    def _gap_cause_fast(self, thread: _OOOThread, d) -> str:
        """Attribute a retire gap to a Figure 10 category."""
        kind = d[0]
        if kind == K_LD:
            level = thread.reg_level.get(d[2])
            if level is not None and level in STALL_CATEGORY:
                return STALL_CATEGORY[level]
            return "Exec"
        # Waiting on a source produced by a load?
        worst_level, worst_t = None, -1
        reg_complete = thread.reg_complete
        reg_level = thread.reg_level
        for reg in d[D_READS]:
            t = reg_complete.get(reg, 0)
            if t > worst_t:
                worst_t = t
                worst_level = reg_level.get(reg)
        if worst_level is not None and worst_level in STALL_CATEGORY:
            return STALL_CATEGORY[worst_level]
        if K_BR <= kind <= K_RET:
            return "Other"
        return "Exec"

    # -- main loop -----------------------------------------------------------------------

    def run(self, checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> SimStats:
        """Simulate until the main thread's halt retires.

        ``checkpoint_every``/``on_checkpoint`` behave as in
        :meth:`repro.sim.inorder.InOrderSimulator.run`: the callback fires
        between fetch groups whenever the earliest pending fetch cycle
        crosses the next checkpoint mark, and a :meth:`restore`-d
        simulator resumes instead of restarting.

        Instructions come from the pre-decoded issue table: flat tuple
        access instead of attribute/dict lookups, timing and retirement
        inline, and a no-sift pop when only one thread is live.
        """
        program = self.program
        config = self.config
        dcode = self._dcode
        stats = self.stats
        if not self._started:
            self._begin()
        queue = self._queue
        main_misses = self._main_misses
        heap = self.heap
        memory = self.memory
        predictor = self.predictor
        breakdown = stats.cycle_breakdown
        issue_used = self._issue_used
        port_used = self._port_used
        fetch_used = self._fetch_used
        issue_width = config.issue_width
        memory_ports = config.memory_ports
        bundles_per_cycle = config.bundles_per_cycle
        bundle_size = config.bundle_size
        hardware_contexts = config.hardware_contexts
        spec_cycle_budget = config.spec_cycle_budget
        spec_budget = config.spec_instruction_budget
        mispredict_penalty = config.mispredict_penalty
        chk_flush_penalty = config.chk_flush_penalty
        spawn_startup_latency = config.spawn_startup_latency
        rob_entries = config.rob_entries
        rs_entries = config.rs_entries
        max_cycles = self.max_cycles
        spawning = self.spawning
        heappush = heapq.heappush
        heappop = heapq.heappop
        next_checkpoint = None
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = self.cycle + checkpoint_every

        while queue:
            if next_checkpoint is not None and queue[0][0] >= next_checkpoint:
                on_checkpoint(self)
                while next_checkpoint <= queue[0][0]:
                    next_checkpoint += checkpoint_every
            # A heap of one needs no sift — the common case once the
            # speculative contexts drain.
            if len(queue) == 1:
                fetch, _, thread = queue[0]
                del queue[0]
            else:
                fetch, _, thread = heappop(queue)
            self._pops += 1
            if self._pops % 50_000 == 0:
                self._prune_pools(fetch)
            # Profiling gate: one int compare per pop when off (see
            # inorder.py).  Pops that bail out below go unsampled; the
            # next real fetch group samples instead.
            prof = None
            if fetch >= self._prof_next:
                prof = self._profiler
                t_prof = prof.begin(fetch)
            state = thread.state
            tid = state.tid
            if (tid != 0 and not state.done
                    and spec_cycle_budget
                    and fetch - thread.spawn_cycle >= spec_cycle_budget):
                # Containment: the context outlived its cycle budget.
                state.killed = True
                stats.budget_kills += 1
            if state.done:
                self._live_threads -= 1
                continue
            if self._end_cycle is not None and fetch >= self._end_cycle:
                self._live_threads -= 1
                continue
            if fetch >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles")
            is_main = tid == 0

            # One fetch group: a bundle of up to 3 instructions.
            while fetch_used.get(fetch, 0) >= bundles_per_cycle:
                fetch += 1
            fetch_used[fetch] = fetch_used.get(fetch, 0) + 1
            next_fetch = fetch + 1
            if prof is not None:
                t_prof = prof.lap("fetch", t_prof)
            reg_complete = thread.reg_complete
            reg_level = thread.reg_level
            start_ring = thread.start_ring
            retire_ring = thread.retire_ring
            for _ in range(bundle_size):
                d = dcode[state.pc]
                kind = d[0]
                # ROB occupancy: wait for instruction (i - ROB) to retire.
                if len(retire_ring) == retire_ring.maxlen \
                        and retire_ring[0] > fetch:
                    fetch = retire_ring[0]
                    next_fetch = fetch + 1

                # Chaining spawns in speculative threads wait (bounded)
                # for a free context rather than being dropped instantly
                # (see inorder.py).
                if (kind == K_SPAWN and tid != 0
                        and self._live_threads >= hardware_contexts
                        and thread.spawn_retries < 96):
                    stats.spawn_waits += 1
                    thread.spawn_retries += 1
                    next_fetch = fetch + 16
                    break

                # Runaway-slice containment: instruction budget.
                if tid != 0:
                    if spec_budget and thread.spec_issued >= spec_budget:
                        state.killed = True
                        stats.budget_kills += 1
                        break
                    thread.spec_issued += 1

                chk_fires = False
                if kind == K_CHK:
                    chk_fires = (spawning
                                 and self._live_threads < hardware_contexts)
                pc_before = state.pc
                # Inside a recovery stub (fired chk.c, rfi not yet
                # executed): counted separately for the retired-instruction
                # oracle, as in the in-order model.
                in_stub = is_main and bool(state.rfi_stack)
                if prof is not None:
                    t_prof = prof.lap("schedule", t_prof)
                result = step_decoded(program, heap, state, d, chk_fires)
                if prof is not None:
                    t_prof = prof.lap("interp", t_prof)
                mem_addr = result[0]
                executed = result[3]
                if is_main:
                    stats.main_instructions += 1
                    if in_stub:
                        stats.main_stub_instructions += 1
                else:
                    stats.spec_instructions += 1

                # Timing: operands ready, then an RS entry, then the first
                # cycle with a free issue slot (and memory port).
                ready = fetch + 1
                for reg in d[8]:
                    t = reg_complete.get(reg, 0)
                    if t > ready:
                        ready = t
                if len(start_ring) == start_ring.maxlen:
                    oldest = start_ring[0]
                    if oldest > ready:
                        ready = oldest
                start = ready
                while issue_used.get(start, 0) >= issue_width:
                    start += 1
                issue_used[start] = issue_used.get(start, 0) + 1
                dest = d[2]
                if d[10] == RES_MEM and executed and mem_addr is not None:
                    while port_used.get(start, 0) >= memory_ports:
                        start += 1
                    port_used[start] = port_used.get(start, 0) + 1
                    if kind == K_LD:
                        access = memory.access(mem_addr, start, d[13],
                                               is_main)
                        completion = access.ready
                        reg_level[dest] = access.level
                    elif kind == K_ST:
                        memory.access(mem_addr, start, d[13], is_main,
                                      is_store=True)
                        completion = start + 1
                    else:  # lfetch
                        memory.access(mem_addr, start, d[13], is_main,
                                      is_prefetch=True)
                        completion = start + 1
                else:
                    if kind == K_LFETCH and (mem_addr is None
                                             or not executed):
                        memory.prefetches_dropped += 1
                    completion = start + (d[9] if executed else 1)
                start_ring.append(start)
                if dest is not None and executed:
                    reg_complete[dest] = completion
                    if kind != K_LD:
                        reg_level[dest] = None

                # In-order retirement, bounded by retire bandwidth: retire
                # width == issue width, so instruction i cannot retire in
                # the same cycle as instruction i - width.
                retire = completion if completion > thread.last_retire \
                    else thread.last_retire
                if thread.retire_count >= issue_width \
                        and len(retire_ring) >= issue_width \
                        and retire_ring[-issue_width] >= retire:
                    retire = retire_ring[-issue_width] + 1
                retire_ring.append(retire)
                thread.last_retire = retire
                thread.retire_count += 1
                if prof is not None:
                    t_prof = prof.lap("timing", t_prof)

                # Figure 10 accounting (main thread, gap-based).
                if is_main:
                    prev = retire_ring[-2] if len(retire_ring) > 1 else 0
                    gap = retire - prev
                    if kind == K_LD and mem_addr is not None:
                        level = reg_level.get(dest)
                        if level is not None and level != L1:
                            heappush(main_misses, completion)
                    if gap > 0:
                        while main_misses and main_misses[0] <= prev:
                            heappop(main_misses)
                        breakdown["CacheExec" if main_misses
                                  else "Exec"] += 1
                        if gap > 1:
                            breakdown[self._gap_cause_fast(thread, d)] += \
                                gap - 1

                # Control-flow consequences for fetch.
                if kind == K_BRC:
                    penalty = predictor.predict_and_update(
                        pc_before, tid, bool(result[1]))
                    if penalty < 0:
                        stats.mispredicts += 1
                        # Resolved at execute; refill afterwards.
                        next_fetch = completion + mispredict_penalty
                        break
                    if result[1]:
                        next_fetch = fetch + 1 + penalty
                        break
                elif K_BR <= kind <= K_RET:
                    break
                elif kind == K_CHK:
                    if result[4]:
                        stats.chk_fired += 1
                        # Spawning happens at retirement with an
                        # exception-like flush (Section 4.4.1).
                        next_fetch = retire + chk_flush_penalty
                        break
                    stats.chk_ignored += 1
                elif kind == K_SPAWN:
                    if result[2] is not None:
                        thread.spawn_retries = 0
                        if self._live_threads < hardware_contexts:
                            self._next_tid += 1
                            child_state = spawn_thread(state, self._next_tid,
                                                       result[2])
                            child = _OOOThread(child_state,
                                               retire + spawn_startup_latency,
                                               rob_entries, rs_entries)
                            self._live_threads += 1
                            stats.spawns += 1
                            self._tie += 1
                            heappush(queue, (child.fetch_cycle, self._tie,
                                             child))
                        else:
                            stats.spawn_failures += 1
                elif kind == K_KILL or kind == K_HALT:
                    break
                if state.done:
                    break

            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof.sample(fetch, stats,
                                              1 if is_main else 0, False)
            if state.done:
                self._live_threads -= 1
                if is_main:
                    self._end_cycle = thread.last_retire
                    stats.cycles = thread.last_retire
                else:
                    stats.threads_completed += 1
                continue
            self._tie += 1
            entry = (next_fetch if next_fetch > fetch + 1 else fetch + 1,
                     self._tie, thread)
            if queue:
                heappush(queue, entry)
            else:
                queue.append(entry)

        stats.mispredicts = predictor.mispredicts
        return stats
