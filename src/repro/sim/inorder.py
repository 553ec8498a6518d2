"""Cycle-stepped in-order SMT pipeline model (the baseline machine).

Models the paper's 12-stage in-order research Itanium: a scoreboarded
in-order core where "the in-order pipeline stalls when an instruction
attempts to use the destination register of an outstanding load miss"
(Section 4.3), with SMT fetch/issue of 2 bundles from one thread or 1
bundle each from two threads, shared function units (4 int, 3 branch,
2 memory ports), gshare branch prediction, and four hardware thread
contexts with lightweight-exception spawning for SSP.

The simulator is execution-driven: instructions execute architecturally at
issue (each one a :func:`repro.isa.decode.step_decoded` call over the
pre-decoded table, the one definition of what an opcode does), so
speculative threads compute real addresses and their prefetches warm the
shared caches that the main thread then hits — the entire SSP effect is
emergent, not modelled.

Long stalls are skipped in O(1): when no context can issue, the clock jumps
to the earliest wake-up, charging the skipped cycles to the main thread's
current stall category (Figure 10 accounting).

Contexts come from the shared policy of :mod:`repro.sim.smt`.  This loop
decides only when: finished threads are reaped at the top of a cycle, and
a chaining spawn with no free context parks until one is reaped, for at
most ``SPAWN_WAIT_LIMIT`` cycles.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..isa.decode import (
    D_READS,
    D_UID,
    K_BRC,
    K_CALLI,
    K_CHK,
    K_CMP,
    K_HALT,
    K_KILL,
    K_LD,
    K_LFETCH,
    K_LIBLD,
    K_RET,
    K_SPAWN,
    K_ST,
    RES_INT,
    RES_MEM,
    step_decoded,
)
from ..isa.interp import ThreadState
from ..isa.memory import Heap
from ..isa.program import Program
from .caches import L1
from .config import MachineConfig
from .smt import _FAR_FUTURE, DEFAULT_MAX_CYCLES, SMTSimulator
from .stats import STALL_CATEGORY, SimStats


class HWThread:
    """Timing state of one occupied hardware thread context."""

    __slots__ = ("state", "reg_ready", "reg_level", "stall_until", "wake",
                 "spawn_parked_pc", "spec_issued", "spawn_cycle",
                 "ready_bound")

    def __init__(self, state: ThreadState, start_cycle: int = 0,
                 config: Optional[MachineConfig] = None):
        self.state = state
        #: Instructions issued by this (speculative) context, for the
        #: runaway-slice containment budget.
        self.spec_issued = 0
        #: Cycle the context was allocated, for the cycle budget.
        self.spawn_cycle = start_cycle
        #: register name -> cycle its value becomes available.
        self.reg_ready: Dict[str, int] = {}
        #: Upper bound on every value in ``reg_ready``: once the clock
        #: passes it, no register can block and the scoreboard scan is
        #: skipped wholesale.
        self.ready_bound = 0
        #: register name -> cache level that supplied it (loads only).
        self.reg_level: Dict[str, Optional[str]] = {}
        #: no fetch/issue before this cycle (flush, startup).
        self.stall_until = start_cycle
        #: earliest cycle this thread may make progress (for time skip).
        self.wake = start_cycle
        #: pc of a chaining spawn this thread already parked on once; the
        #: second encounter gives up (the request is dropped) — an
        #: unbounded wait could deadlock all speculative contexts.
        self.spawn_parked_pc: Optional[int] = None


class InOrderSimulator(SMTSimulator):
    """Runs a finalised program on the in-order SMT machine model."""

    SNAPSHOT_MODEL = "inorder"
    THREAD = HWThread
    _SNAPSHOT_FIELDS = SMTSimulator._SNAPSHOT_FIELDS + (
        "_rr", "_context_waiters", "_now")

    #: Longest a chaining spawn waits for a free context before being
    #: dropped (bounds priority inversion and prevents deadlock).
    SPAWN_WAIT_LIMIT = 1500

    def __init__(self, program: Program, heap: Heap, config: MachineConfig,
                 spawning: bool = True,
                 max_cycles: int = DEFAULT_MAX_CYCLES):
        super().__init__(program, heap, config, spawning, max_cycles)
        self._dreads = [d[D_READS] for d in self._dcode]
        n_ctx = config.hardware_contexts
        # Speculative-context round-robin orders, one per _rr value:
        # slot 0 (main) first, then the speculative slots starting at _rr.
        self._slot_orders = {
            rr: tuple([0] + [1 + (rr + k - 1) % (n_ctx - 1)
                             for k in range(1, n_ctx)])
            for rr in range(1, n_ctx)} if n_ctx > 1 else {}
        # Cycle-budget deadlines of the live speculative contexts
        # (spawn_cycle + spec_cycle_budget, min-heap): the run loop only
        # walks the context slots when one of these, or a context that
        # died while issuing, says a context can actually have died.
        self._spec_deadlines: List[int] = []
        self._rr = 1  # round-robin pointer over speculative contexts
        # Speculative threads parked waiting for a free context.
        self._context_waiters: List[HWThread] = []
        # Current cycle, for checkpoints.
        self._now = 0
        # Execution profile of the main thread, the functional block and
        # call-graph profile (see :attr:`exec_counts`): issues per pc,
        # squashed ones included, and per-site ``br.call.ind`` targets.
        # Speculative contexts count into a scratch table that is never
        # read, which keeps the issue loop branch-free.  Neither is part
        # of a snapshot: a restored simulator counts from the restore.
        self._issue_counts = [0] * len(self._dcode)
        self._spec_issue_counts = [0] * len(self._dcode)
        #: ``br.call.ind`` uid -> {callee name: main-thread calls}.
        self.indirect_targets: Dict[int, Dict[str, int]] = {}

    @property
    def exec_counts(self) -> Dict[int, int]:
        """Main-thread issues per instruction uid, squashed ones included
        — what :class:`~repro.isa.interp.FunctionalInterpreter` counts
        as steps, since the main thread steps the same instructions."""
        counts: Dict[int, int] = {}
        for d, n in zip(self._dcode, self._issue_counts):
            if n:
                uid = d[D_UID]
                counts[uid] = counts.get(uid, 0) + n
        return counts

    def _note_indirect(self, uid: int, fid: int) -> None:
        """Record one executed main-thread ``br.call.ind`` target (valid
        ids only), as the functional profiler does."""
        program = self.program
        if 0 <= fid < len(program.function_by_id):
            per_site = self.indirect_targets.setdefault(uid, {})
            name = program.function_by_id[fid]
            per_site[name] = per_site.get(name, 0) + 1

    @property
    def cycle(self) -> int:
        """Current simulated cycle (updated at checkpoint boundaries)."""
        return self._now

    def restore(self, state: Dict[str, object]) -> None:  # noqa: D102
        super().restore(state)
        # Derived reap-trigger state (not part of the snapshot): the
        # deadlines of the restored live contexts.  Dead-but-unreaped
        # contexts are handled by the unconditional reap pass on the
        # first iteration of the next run().
        budget = self.config.spec_cycle_budget
        self._spec_deadlines = sorted(
            ctx.spawn_cycle + budget for ctx in self.contexts[1:]
            if ctx is not None and not ctx.state.done) if budget else []

    # -- main loop --------------------------------------------------------------------

    def run(self, checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> SimStats:
        """Simulate until the main thread halts; returns the statistics.

        Args:
            checkpoint_every: with ``on_checkpoint``, invoke the callback
                at the first cycle boundary at or past every multiple of
                this many cycles (the callback must not mutate simulator
                state — it typically calls :meth:`snapshot`).
            on_checkpoint: ``callback(simulator)`` for periodic
                checkpoints/heartbeats.  Checkpoint cadence never affects
                the simulated statistics.

        A simulator whose state was installed by :meth:`restore` continues
        from the checkpointed cycle instead of starting over.

        One iteration per non-skipped cycle: reap, select up to two
        issuable threads, issue from each, then charge the cycle to the
        main thread's Figure 10 category.  Issue is one loop body over
        the candidates.  Each instruction passes the issue checks
        (budget, scoreboard, units, chaining-spawn wait), takes one
        architectural step through :func:`repro.isa.decode.step_decoded`
        and is then timed by kind from the step's result tuple: this loop
        models time only.  Everything constant over a run is bound to a
        local once, and the rare per-cycle events (checkpoint, cycle
        limit, profiler sample) share one ``next_event`` compare.
        """
        if not self._started:
            self._begin()
        config = self.config
        main = self.contexts[0]
        main_state = main.state
        stats = self.stats
        now = self._now
        next_checkpoint = _FAR_FUTURE
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = now + checkpoint_every
        max_cycles = self.max_cycles
        prof_next = self._prof_next
        next_event = min(next_checkpoint, max_cycles, prof_next)
        prof = None

        program = self.program
        dcode = self._dcode
        dreads = self._dreads
        heap = self.heap
        memory = self.memory
        access = memory.access
        predict = self.predictor.predict_and_update
        contexts = self.contexts
        slot_orders = self._slot_orders
        breakdown = stats.cycle_breakdown
        main_misses = self._main_misses
        main_counts = self._issue_counts
        spec_counts = self._spec_issue_counts
        heappop = heapq.heappop
        heappush = heapq.heappush
        n_ctx = config.hardware_contexts
        # Speculative slots the round-robin pointer cycles over; a
        # single-context machine has none and keeps _rr at 1.
        n_spec = max(n_ctx - 1, 1)
        issue_width = config.issue_width
        bundle_size = config.bundle_size
        cycle_budget = config.spec_cycle_budget
        spec_budget = config.spec_instruction_budget
        memory_ports = config.memory_ports
        int_units = config.int_units
        branch_units = config.branch_units
        mispredict_penalty = config.mispredict_penalty
        chk_flush_penalty = config.chk_flush_penalty
        spawn_latency = config.spawn_startup_latency
        trace = self.trace
        rr = self._rr
        deadlines = self._spec_deadlines
        main_only = (main,)
        # Force a full reap pass on the first iteration: a restored
        # snapshot (or a resumed run) may hold dead-but-unreaped
        # contexts.  The pass also sets ``have_spec``, which then only
        # changes at a spawn or at the next pass.
        reap_due = True
        have_spec = False

        while not (main_state.halted or main_state.killed):
            if now >= next_event:
                if now >= next_checkpoint:
                    self._now = now
                    self._rr = rr
                    on_checkpoint(self)
                    while next_checkpoint <= now:
                        next_checkpoint += checkpoint_every
                if now >= max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {self.max_cycles} cycles")
                # A sampled iteration: ``prof`` goes non-None and the
                # loop takes wall laps at its phase boundaries below.
                if now >= prof_next:
                    prof = self._profiler
                    t_prof = prof.begin(now)
                next_event = min(next_checkpoint, max_cycles, prof_next)

            # Reap finished speculative threads and wake parked spawners.
            # The slot walk only runs when a context can actually have
            # died: an issue-side death last cycle (reap_due) or an
            # expired cycle-budget deadline.
            if reap_due or (deadlines and deadlines[0] <= now):
                reap_due = False
                while deadlines and deadlines[0] <= now:
                    heappop(deadlines)
                have_spec = False
                for slot in range(1, n_ctx):
                    ctx = contexts[slot]
                    if ctx is None:
                        continue
                    cs = ctx.state
                    if cs.halted or cs.killed:
                        pass
                    elif cycle_budget \
                            and now - ctx.spawn_cycle >= cycle_budget:
                        self._budget_kill(cs)
                    else:
                        have_spec = True
                        continue
                    self._release(slot, now)
                    if self._context_waiters:
                        for waiter in self._context_waiters:
                            ws = waiter.state
                            if not (ws.halted or ws.killed):
                                waiter.wake = now
                        self._context_waiters = []
            if prof is not None:
                t_prof = prof.lap("reap", t_prof)

            # Select up to two issuable threads: the main thread has fetch
            # priority (speculative threads use *otherwise idle*
            # resources); speculative contexts share the remaining slot
            # round-robin.
            cand0 = cand1 = None
            if have_spec:
                for slot in slot_orders[rr]:
                    ctx = contexts[slot]
                    if ctx is None:
                        continue
                    cs = ctx.state
                    if cs.halted or cs.killed or ctx.stall_until > now \
                            or ctx.wake > now:
                        continue
                    if ctx.ready_bound > now:
                        ready = ctx.reg_ready
                        blocked = False
                        for reg in dreads[cs.pc]:
                            if ready.get(reg, 0) > now:
                                blocked = True
                                break
                        if blocked:
                            continue
                    if cand0 is None:
                        cand0 = ctx
                    else:
                        cand1 = ctx
                        break
            elif main.stall_until <= now and main.wake <= now:
                if main.ready_bound <= now:
                    cand0 = main
                else:
                    ready = main.reg_ready
                    for reg in dreads[main_state.pc]:
                        if ready.get(reg, 0) > now:
                            break
                    else:
                        cand0 = main
            rr = rr % n_spec + 1
            if prof is not None:
                t_prof = prof.lap("select", t_prof)

            issued_main = 0
            if cand0 is not None:
                # The cycle's shared function units.
                res_int = int_units
                res_mem = memory_ports
                res_br = branch_units
                if cand1 is None:
                    budget = issue_width
                    cands = main_only if cand0 is main else (cand0,)
                else:
                    budget = bundle_size
                    cands = (cand0, cand1)
                for thread in cands:
                    state = thread.state
                    is_main = thread is main
                    counts = main_counts if is_main else spec_counts
                    ready = thread.reg_ready
                    bound = thread.ready_bound
                    levels = thread.reg_level
                    rfi_stack = state.rfi_stack
                    issued = 0
                    # Main-thread instructions issued inside a recovery
                    # stub (rfi stack non-empty: between a fired chk.c and
                    # its rfi).  They are adaptation overhead, counted
                    # separately so the retired-instruction oracle can
                    # compare models net of fired triggers.
                    n_stub = 0
                    # Runaway-slice containment: a speculative context
                    # stops at its instruction budget; the while's else
                    # arm kills it once it stopped there short of the
                    # cycle's issue budget.
                    stop = budget
                    if not is_main and spec_budget:
                        spec_base = thread.spec_issued
                        if spec_budget - spec_base < budget:
                            stop = spec_budget - spec_base

                    while issued < stop:
                        pc = state.pc
                        d = dcode[pc]

                        # Scoreboard: stall on use of a not-yet-ready
                        # register.  The scan is skipped outright while no
                        # write is still pending (``bound`` caps every
                        # reg_ready value), and for the first instruction,
                        # which select has just found ready.
                        if issued and bound > now:
                            worst = 0
                            for reg in d[8]:              # D_READS
                                t = ready.get(reg, 0)
                                if t > worst:
                                    worst = t
                            if worst > now:
                                thread.wake = worst
                                break

                        # Structural hazards: shared function units.
                        rescls = d[10]                    # D_RES
                        if rescls == RES_INT:
                            if res_int == 0:
                                thread.wake = now + 1
                                break
                            res_int -= 1
                        elif rescls == RES_MEM:
                            if res_mem == 0:
                                thread.wake = now + 1
                                break
                            res_mem -= 1
                        else:
                            if res_br == 0:
                                thread.wake = now + 1
                                break
                            res_br -= 1

                        kind = d[0]                       # D_KIND
                        chk_fires = False
                        if kind > K_LFETCH:
                            if kind == K_SPAWN:
                                # A chaining spawn in a speculative thread
                                # *waits* for a free context (the
                                # lightweight exception fires "when a free
                                # hardware context is available", Section
                                # 2.1) — this keeps a chain alive as a
                                # self-throttling pipeline.  The main
                                # thread never blocks: its chk.c simply
                                # does not fire.
                                if not is_main and None not in contexts:
                                    if thread.spawn_parked_pc == pc:
                                        # Second attempt with no context:
                                        # give up — the request is ignored
                                        # (Section 2.1) and the thread runs
                                        # on, which also rules out
                                        # all-contexts-parked deadlock.
                                        thread.spawn_parked_pc = None
                                    else:
                                        stats.spawn_waits += 1
                                        thread.spawn_parked_pc = pc
                                        thread.wake = \
                                            now + self.SPAWN_WAIT_LIMIT
                                        self._context_waiters.append(thread)
                                        break
                            elif kind == K_CHK:
                                chk_fires = self._chk_gate(d[13])  # D_UID
                            elif kind == K_CALLI and is_main:
                                # The target, read before the call;
                                # recorded below only if the call executes.
                                call_fid = state.regs.get(d[3], 0)

                        counts[pc] += 1
                        # Inside a recovery stub, read before the step (a
                        # fired chk.c pushes the rfi stack, rfi pops it).
                        if rfi_stack:
                            n_stub += 1

                        # The architectural step.  A squashed instruction
                        # (false qualifying predicate) still consumed its
                        # slot and unit and counts as issued; what it
                        # costs is decided below.
                        r = step_decoded(program, heap, state, d, chk_fires)
                        issued += 1

                        # Timing only from here on, from the step's result
                        # tuple.
                        if kind <= K_CMP or kind == K_LIBLD:
                            if r[3]:                      # R_EXECUTED
                                dest = d[2]               # D_DEST
                                t = now + d[9]            # D_LAT
                                ready[dest] = t
                                if t > bound:
                                    bound = t
                                levels[dest] = None
                            continue

                        if kind == K_LD:
                            dest = d[2]
                            addr = r[0]                   # R_MEM
                            if addr is None:
                                # Squashed, or a deferred speculative
                                # fault: the register is written without a
                                # memory access.
                                t = now + 1
                                level = None
                            else:
                                t, level = access(addr, now, d[13], is_main)
                                if is_main and level != L1:
                                    heappush(main_misses, t)
                            ready[dest] = t
                            if t > bound:
                                bound = t
                            levels[dest] = level
                            continue

                        if kind == K_BRC:
                            # An executed br.cond is always taken: its
                            # predicate is both the qualifying predicate
                            # and the branch condition.  A squashed one
                            # still trains the predictor, not taken.
                            taken = bool(r[1])            # R_TAKEN
                            penalty = predict(pc, state.tid, taken)
                            if penalty < 0:
                                stats.mispredicts += 1
                                thread.stall_until = thread.wake = \
                                    now + 1 + mispredict_penalty
                                break
                            if not taken:
                                continue
                            if penalty > 0:
                                thread.stall_until = thread.wake = \
                                    now + 1 + penalty
                            break  # a taken branch ends the fetch group

                        if kind == K_ST:
                            if r[0] is not None:
                                access(r[0], now, d[13], is_main, False, True)
                            continue

                        if kind == K_LFETCH:
                            if r[0] is None:
                                # Squashed, or outside the heap:
                                # non-faulting, dropped.
                                memory.prefetches_dropped += 1
                            else:
                                access(r[0], now, d[13], is_main, True)
                            continue

                        if kind <= K_RET:
                            if kind == K_CALLI and is_main and r[3]:
                                self._note_indirect(d[13], call_fid)
                            break  # br, br.call(.ind), br.ret end the group

                        if kind == K_CHK:
                            if r[4]:                      # R_CHK
                                # Lightweight exception: pipeline flush,
                                # resume in the stub.
                                stats.chk_fired += 1
                                if trace is not None:
                                    trace.note(now, "chk_fired", uid=d[13])
                                thread.stall_until = thread.wake = \
                                    now + chk_flush_penalty
                                break
                            stats.chk_ignored += 1
                            continue

                        if kind == K_SPAWN:
                            if r[2] is not None:          # R_SPAWN
                                start = now + spawn_latency
                                if self._spawn(state, r[2], now,
                                               start) is not None:
                                    have_spec = True
                                    if cycle_budget:
                                        heappush(deadlines,
                                                 start + cycle_budget)
                            continue

                        if kind == K_KILL or kind == K_HALT:
                            break
                        # rfi, lib.st and nop do not end the fetch group.
                    else:
                        if issued < budget:
                            state.killed = True
                            stats.budget_kills += 1

                    thread.ready_bound = bound
                    if issued:
                        if thread.wake <= now \
                                and not (state.halted or state.killed):
                            thread.wake = now + 1
                        if is_main:
                            issued_main = issued
                            stats.main_instructions += issued
                            if n_stub:
                                stats.main_stub_instructions += n_stub
                        else:
                            stats.spec_instructions += issued
                            thread.spec_issued += issued
                    if not is_main and (state.halted or state.killed):
                        reap_due = True
            if prof is not None:
                t_prof = prof.lap("issue", t_prof)

            # Figure 10 accounting for this cycle.
            while main_misses and main_misses[0] <= now:
                heappop(main_misses)
            if issued_main:
                category = "CacheExec" if main_misses else "Exec"
            elif main_state.halted or main_state.killed \
                    or main.stall_until > now or main.ready_bound <= now:
                # Done, a flush/redirect bubble, or fetch slots lost to
                # other threads.
                category = "Other"
            else:
                # Stalled on the scoreboard: charge the level that
                # supplies the latest-arriving source register.
                ready = main.reg_ready
                worst, worst_reg = 0, None
                for reg in dreads[main_state.pc]:
                    t = ready.get(reg, 0)
                    if t > worst:
                        worst, worst_reg = t, reg
                if worst > now:
                    level = main.reg_level.get(worst_reg)
                    # A short L1-hit interlock counts as execution.
                    category = "Exec" if level == L1 \
                        else STALL_CATEGORY.get(level, "Other")
                else:
                    category = "Other"
            breakdown[category] += 1
            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof_next = prof.sample(
                    now, stats, issued_main, cand0 is None)
                next_event = min(next_checkpoint, max_cycles, prof_next)
                prof = None

            # Only an issuing main thread can halt or kill itself, so a
            # finished run always leaves through here and the loop test.
            if cand0 is not None:
                now += 1
                continue

            # Nothing issuable (so nothing issued and ``category`` is this
            # cycle's): skip to the earliest wake-up.  Without live
            # speculative threads only the main thread can wake.
            wake = _FAR_FUTURE
            for ctx in contexts if have_spec else main_only:
                if ctx is None:
                    continue
                cs = ctx.state
                if cs.halted or cs.killed:
                    continue
                w = ctx.stall_until
                if ctx.wake > w:
                    w = ctx.wake
                if ctx.ready_bound > now:
                    ready = ctx.reg_ready
                    worst = 0
                    for reg in dreads[cs.pc]:
                        t = ready.get(reg, 0)
                        if t > worst:
                            worst = t
                    if worst > now and worst > w:
                        w = worst
                if w < wake:
                    wake = w
            if wake == _FAR_FUTURE or wake <= now:
                wake = now + 1
            skip = wake - now - 1
            if skip > 0:
                breakdown[category] += skip
            now = wake

        self._rr = rr
        self._now = now
        stats.cycles = now
        stats.mispredicts = self.predictor.mispredicts
        return stats
