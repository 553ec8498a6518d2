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

Contexts come from the shared policy of :mod:`repro.sim.smt`.  This loop
decides only when: a thread releases its context at the pop that finds
it finished, and a chaining spawn with no free context re-polls every 16
cycles, up to 96 times.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..isa.decode import (
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
)
from ..isa.interp import ThreadState
from ..isa.memory import Heap
from ..isa.program import Program
from .caches import L1
from .config import MachineConfig
from .smt import _FAR_FUTURE, DEFAULT_MAX_CYCLES, SMTSimulator
from .stats import STALL_CATEGORY, SimStats


class _OOOThread:
    """Per-thread OOO timing state."""

    __slots__ = ("state", "fetch_cycle", "reg_complete", "reg_level",
                 "retire_ring", "start_ring", "last_retire", "retire_count",
                 "spawn_retries", "spec_issued", "spawn_cycle")

    def __init__(self, state: ThreadState, start_cycle: int,
                 config: MachineConfig):
        self.state = state
        self.fetch_cycle = start_cycle
        #: Instructions fetched by this (speculative) context, for the
        #: runaway-slice containment budget.
        self.spec_issued = 0
        #: Cycle the context was allocated, for the cycle budget.
        self.spawn_cycle = start_cycle
        n = len(state.slots.board)
        #: scoreboard slot -> completion cycle of its register's producer.
        self.reg_complete: List[int] = [0] * n
        #: scoreboard slot -> cache level that supplied it (loads only).
        self.reg_level: List[Optional[str]] = [None] * n
        # The rings' maxlen goes in positionally: deque() parses a keyword
        # several times slower, and a context is built per spawn.
        #: retirement times of the last ROB instructions.
        self.retire_ring: Deque[int] = deque((), config.rob_entries)
        #: issue (leave-RS) times of the last RS instructions.
        self.start_ring: Deque[int] = deque((), config.rs_entries)
        self.last_retire = start_cycle
        self.retire_count = 0
        #: Deferred-spawn retries so far (bounded; see run()).
        self.spawn_retries = 0


class OOOSimulator(SMTSimulator):
    """Runs a finalised program on the out-of-order SMT machine model."""

    SNAPSHOT_MODEL = "ooo"
    THREAD = _OOOThread
    _SNAPSHOT_FIELDS = SMTSimulator._SNAPSHOT_FIELDS + (
        "_issue_used", "_port_used", "_fetch_used", "_queue", "_tie",
        "_end_cycle")

    #: Cycles between two checks of the resource calendars' size.
    PRUNE_EVERY = 1 << 16

    def __init__(self, program: Program, heap: Heap, config: MachineConfig,
                 spawning: bool = True,
                 max_cycles: int = DEFAULT_MAX_CYCLES):
        super().__init__(program, heap, config, spawning, max_cycles)
        self._issue_used: Dict[int, int] = {}
        self._port_used: Dict[int, int] = {}
        self._fetch_used: Dict[int, int] = {}
        # Run-loop state, held on the instance so a checkpoint can capture
        # it mid-run and a restored simulator can continue seamlessly:
        # (next fetch cycle, tie, thread) per live thread.
        self._queue: List[Tuple[int, int, _OOOThread]] = []
        self._tie = 0
        self._end_cycle: Optional[int] = None

    @property
    def cycle(self) -> int:
        """Earliest pending fetch cycle (the checkpoint's progress mark)."""
        if self._queue:
            return self._queue[0][0]
        return self.stats.cycles

    def _begin(self) -> _OOOThread:  # noqa: D102
        main = super()._begin()
        self._queue = [(0, 0, main)]
        return main

    # -- per-cycle resource pools ---------------------------------------------------

    def _prune_pools(self, now: int) -> None:
        """Drop per-cycle resource counters far in the past (memory bound).

        Every probe is at a cycle at or after the earliest pending fetch,
        so dropping older counters never changes a result.
        """
        horizon = now - 10_000
        for pool in (self._issue_used, self._port_used, self._fetch_used):
            if len(pool) > 200_000:
                for cycle in [c for c in pool if c < horizon]:
                    del pool[cycle]

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
        access instead of attribute/dict lookups, one call of the
        instruction's step closure, scoreboards indexed by register slot,
        timing and retirement inline, and a no-sift pop when only one
        thread is live.  The run state (``_tie``, ``_end_cycle``,
        ``_miss_horizon``) lives in locals, written back before every
        checkpoint and on exit.  A popped thread runs fetch
        group after fetch group while it stays strictly the earliest and
        no event is due — exactly what pushing and popping it again would
        do — with its retirement state and the instruction counters in
        locals, written back when it leaves.  The rare events
        (checkpoint, calendar pruning, profiler sample) share one
        ``next_event`` compare.
        """
        config = self.config
        dcode = self._dcode
        stats = self.stats
        if not self._started:
            self._begin()
        queue = self._queue
        horizon = self._miss_horizon
        heap = self.heap
        memory = self.memory
        access = memory.access
        predict = self.predictor.predict_and_update
        breakdown = stats.cycle_breakdown
        issue_used = self._issue_used
        port_used = self._port_used
        fetch_used = self._fetch_used
        issue_width = config.issue_width
        memory_ports = config.memory_ports
        bundles_per_cycle = config.bundles_per_cycle
        bundle = range(config.bundle_size)
        rob_size = config.rob_entries
        rs_size = config.rs_entries
        # A thread's rings hold min(retired, size) entries, so its retire
        # count tells when one is full.  The bandwidth check needs
        # ``issue_width`` entries, which a smaller ROB never holds.
        retire_gate = issue_width if rob_size >= issue_width else _FAR_FUTURE
        spec_cycle_budget = config.spec_cycle_budget
        spec_budget = config.spec_instruction_budget
        mispredict_penalty = config.mispredict_penalty
        chk_flush_penalty = config.chk_flush_penalty
        spawn_startup_latency = config.spawn_startup_latency
        max_cycles = self.max_cycles
        contexts = self.contexts
        trace = self.trace
        heappush = heapq.heappush
        heappop = heapq.heappop
        tie = self._tie
        end_cycle = self._end_cycle
        if end_cycle is None:
            end_cycle = _FAR_FUTURE
        next_checkpoint = _FAR_FUTURE
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = self.cycle + checkpoint_every
        next_prune = self.cycle + self.PRUNE_EVERY
        prof_next = self._prof_next
        next_event = min(next_checkpoint, next_prune, prof_next)
        prof = None

        while queue:
            # ``now`` is the earliest pending fetch cycle: pops never go
            # back in time, so the context policy sees them in order.
            now = queue[0][0]
            if now >= next_event:
                if now >= next_checkpoint:
                    self._tie = tie
                    self._end_cycle = (None if end_cycle == _FAR_FUTURE
                                       else end_cycle)
                    self._miss_horizon = horizon
                    on_checkpoint(self)
                    while next_checkpoint <= now:
                        next_checkpoint += checkpoint_every
                if now >= next_prune:
                    self._prune_pools(now)
                    next_prune = now + self.PRUNE_EVERY
                # Profiling: pops that bail out below go unsampled;
                # the next real fetch group samples instead.
                if now >= prof_next:
                    prof = self._profiler
                    t_prof = prof.begin(now)
                next_event = min(next_checkpoint, next_prune, prof_next)
            # A heap of one needs no sift — the common case once the
            # speculative contexts drain.
            if len(queue) == 1:
                thread = queue.pop()[2]
            else:
                thread = heappop(queue)[2]
            state = thread.state
            tid = state.tid
            is_main = tid == 0
            reg_complete = thread.reg_complete
            reg_level = thread.reg_level
            start_ring = thread.start_ring
            retire_ring = thread.retire_ring
            last_retire = thread.last_retire
            retired = first = thread.retire_count
            rfi_stack = state.rfi_stack
            # Runaway-slice containment: the retire count at which this
            # speculative context exhausts its instruction budget (-1:
            # unbounded).
            stop = -1
            if tid and spec_budget:
                stop = first + max(spec_budget - thread.spec_issued, 0)
            n_stub = n_exec = n_cache_exec = 0

            # The thread's fetch groups, for as long as it stays the
            # earliest thread and no event is due: the pop and push it
            # would make in between cannot reorder anything.
            while True:
                if (tid and spec_cycle_budget
                        and not (state.halted or state.killed)
                        and now - thread.spawn_cycle >= spec_cycle_budget):
                    self._budget_kill(state)
                if state.halted or state.killed or now >= end_cycle:
                    self._release(contexts.index(thread), now, False)
                    prof = None
                    break
                if now >= max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles")

                # One fetch group: a bundle of up to 3 instructions.
                fetch = now
                used = fetch_used.get(fetch, 0)
                while used >= bundles_per_cycle:
                    fetch += 1
                    used = fetch_used.get(fetch, 0)
                fetch_used[fetch] = used + 1
                next_fetch = fetch + 1
                if prof is not None:
                    t_prof = prof.lap("fetch", t_prof)
                for _ in bundle:
                    pc = state.pc
                    d = dcode[pc]
                    kind = d[0]
                    # ROB occupancy: wait for instruction (i - ROB) to retire.
                    if retired >= rob_size and retire_ring[0] > fetch:
                        fetch = retire_ring[0]
                        next_fetch = fetch + 1

                    chk_fires = False
                    if kind > K_LFETCH:
                        # Chaining spawns in speculative threads wait
                        # (bounded) for a free context rather than being
                        # dropped instantly: a re-poll every 16 cycles, up
                        # to 96 times.
                        if (kind == K_SPAWN and tid
                                and None not in contexts
                                and thread.spawn_retries < 96):
                            stats.spawn_waits += 1
                            thread.spawn_retries += 1
                            next_fetch = fetch + 16
                            break
                        # The gate counts a fire, so it is not asked
                        # for an instruction the budget stops.
                        chk_fires = (kind == K_CHK and retired != stop
                                     and self._chk_gate(d[6]))  # D_UID
                    if retired == stop:
                        state.killed = True
                        stats.budget_kills += 1
                        break

                    # Inside a recovery stub (fired chk.c, rfi not yet
                    # executed): counted separately for the retired-
                    # instruction oracle, as in the in-order model.
                    if rfi_stack:
                        n_stub += 1
                    if prof is not None:
                        t_prof = prof.lap("schedule", t_prof)
                    r = d[1](state, heap, chk_fires)  # D_STEP
                    if prof is not None:
                        t_prof = prof.lap("interp", t_prof)

                    # Timing: operands ready, then an RS entry, then the
                    # first cycle with a free issue slot (and memory port).
                    start = fetch + 1
                    for reg in d[3]:                  # D_READS
                        t = reg_complete[reg]
                        if t > start:
                            start = t
                    if retired >= rs_size and start_ring[0] > start:
                        start = start_ring[0]
                    used = issue_used.get(start, 0)
                    while used >= issue_width:
                        start += 1
                        used = issue_used.get(start, 0)
                    issue_used[start] = used + 1
                    dest = d[2]                       # D_DEST
                    # What the step returned, per kind: repro.isa.decode.
                    if K_LD <= kind <= K_LFETCH:
                        if r:
                            # An executed ld/st/lfetch inside the heap.
                            used = port_used.get(start, 0)
                            while used >= memory_ports:
                                start += 1
                                used = port_used.get(start, 0)
                            port_used[start] = used + 1
                            if kind == K_LD:
                                completion, level = access(
                                    r, start, d[6], is_main)
                                reg_complete[dest] = completion
                                reg_level[dest] = level
                                if is_main and level != L1 \
                                        and completion > horizon:
                                    horizon = completion
                            else:
                                access(r, start, d[6], is_main,
                                       kind == K_LFETCH, kind == K_ST)
                                completion = start + 1
                        elif r is None:               # squashed
                            completion = start + 1
                            if kind == K_LFETCH:
                                memory.prefetches_dropped += 1
                        else:
                            # Executed without an access: a deferred
                            # speculative fault or a dropped prefetch.
                            completion = start + d[4]  # D_LAT
                            if kind == K_LD:
                                reg_complete[dest] = completion
                            else:
                                memory.prefetches_dropped += 1
                    elif dest is not None and r:      # an executed write
                        completion = start + d[4]
                        reg_complete[dest] = completion
                        reg_level[dest] = None
                    else:
                        # Squashed, or no destination: every such kind
                        # takes one cycle.
                        completion = start + 1
                    start_ring.append(start)

                    # In-order retirement, bounded by retire bandwidth:
                    # retire width == issue width, so instruction i cannot
                    # retire in the same cycle as instruction i - width.
                    retire = completion if completion > last_retire \
                        else last_retire
                    if retired >= retire_gate \
                            and retire_ring[-issue_width] >= retire:
                        retire = retire_ring[-issue_width] + 1
                    retire_ring.append(retire)
                    retired += 1
                    if prof is not None:
                        t_prof = prof.lap("timing", t_prof)

                    # Figure 10 accounting (main thread, gap-based).
                    if is_main:
                        gap = retire - last_retire
                        if gap > 0:
                            if horizon > last_retire:
                                n_cache_exec += 1
                            else:
                                n_exec += 1
                            if gap > 1:
                                # The rest of the gap: the level that
                                # supplied a load, else its latest-arriving
                                # source.
                                if kind == K_LD:
                                    level = reg_level[dest]
                                else:
                                    level, worst = None, -1
                                    for reg in d[3]:
                                        t = reg_complete[reg]
                                        if t > worst:
                                            worst = t
                                            level = reg_level[reg]
                                cause = STALL_CATEGORY.get(level)
                                if cause is None:
                                    cause = ("Other" if K_BR <= kind <= K_RET
                                             else "Exec")
                                breakdown[cause] += gap - 1
                    last_retire = retire

                    # Control-flow consequences for fetch.  ALU, mov, cmp
                    # and the memory kinds have none; only the kinds that
                    # end the group (branches, kill, halt) can finish a
                    # thread.
                    if kind <= K_LFETCH:
                        continue
                    if kind == K_BRC:
                        penalty = predict(pc, tid, r)
                        if penalty < 0:
                            stats.mispredicts += 1
                            # Resolved at execute; refill afterwards.
                            next_fetch = completion + mispredict_penalty
                            break
                        if r:
                            next_fetch = fetch + 1 + penalty
                            break
                    elif kind <= K_RET:
                        break
                    elif kind == K_CHK:
                        if r:
                            stats.chk_fired += 1
                            if trace is not None:
                                trace.note(now, "chk_fired", uid=d[6])
                            # Spawning happens at retirement with an
                            # exception-like flush (Section 4.4.1).
                            next_fetch = retire + chk_flush_penalty
                            break
                        stats.chk_ignored += 1
                    elif kind == K_SPAWN:
                        if r is not None:
                            thread.spawn_retries = 0
                            child = self._spawn(state, r, now,
                                                retire + spawn_startup_latency)
                            if child is not None:
                                tie += 1
                                heappush(queue,
                                         (child.fetch_cycle, tie, child))
                    elif kind == K_KILL or kind == K_HALT:
                        break

                if state.halted or state.killed:
                    self._release(contexts.index(thread), now, not is_main)
                    if is_main:
                        end_cycle = stats.cycles = last_retire
                    break
                now = next_fetch if next_fetch > fetch + 1 else fetch + 1
                if now >= next_event or (queue and queue[0][0] <= now):
                    tie += 1
                    if queue:
                        heappush(queue, (now, tie, thread))
                    else:
                        queue.append((now, tie, thread))
                    break

            thread.last_retire = last_retire
            thread.retire_count = retired
            n = retired - first
            if is_main:
                stats.main_instructions += n
                stats.main_stub_instructions += n_stub
                breakdown["Exec"] += n_exec
                breakdown["CacheExec"] += n_cache_exec
            else:
                stats.spec_instructions += n
                thread.spec_issued += n
            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof_next = prof.sample(
                    fetch, stats, 1 if is_main else 0, False)
                next_event = min(next_checkpoint, next_prune, prof_next)
                prof = None
        self._tie = tie
        self._end_cycle = None if end_cycle == _FAR_FUTURE else end_cycle
        self._miss_horizon = horizon

        stats.mispredicts = self.predictor.mispredicts
        return stats
