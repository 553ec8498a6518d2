"""Cycle-stepped in-order SMT pipeline model (the baseline machine).

Models the paper's 12-stage in-order research Itanium: a scoreboarded
in-order core where "the in-order pipeline stalls when an instruction
attempts to use the destination register of an outstanding load miss"
(Section 4.3), with SMT fetch/issue of 2 bundles from one thread or 1
bundle each from two threads, shared function units (4 int, 3 branch,
2 memory ports), gshare branch prediction, and four hardware thread
contexts with lightweight-exception spawning for SSP.

The simulator is execution-driven: instructions execute architecturally at
issue (stepped over the pre-decoded table of :mod:`repro.isa.decode`, with
the semantics of :func:`repro.isa.interp.execute`), so speculative threads
compute real addresses and their prefetches warm the shared caches that the
main thread then hits — the entire SSP effect is emergent, not modelled.

Long stalls are skipped in O(1): when no context can issue, the clock jumps
to the earliest wake-up, charging the skipped cycles to the main thread's
current stall category (Figure 10 accounting).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..isa.decode import (
    D_READS,
    K_ALU,
    K_BR,
    K_BRC,
    K_CALL,
    K_CALLI,
    K_CHK,
    K_CMP,
    K_HALT,
    K_KILL,
    K_LD,
    K_LFETCH,
    K_LIBLD,
    K_LIBST,
    K_MOV,
    K_NOP,
    K_RET,
    K_RFI,
    K_SPAWN,
    K_ST,
    RES_BR,
    RES_INT,
    RES_MEM,
    decode_program,
)
from ..isa.interp import ExecutionError, ThreadState, spawn_thread
from ..isa.memory import HEAP_BASE, Heap
from ..isa.program import Program
from ..isa import registers as regs
from .branch import GsharePredictor
from .caches import L1, MemorySystem
from .config import MachineConfig
from .stats import STALL_CATEGORY, SimStats

#: Sentinel wake cycle for threads with nothing to wait for.
_FAR_FUTURE = 1 << 60


class HWThread:
    """Timing state of one occupied hardware thread context."""

    __slots__ = ("state", "reg_ready", "reg_level", "stall_until", "wake",
                 "spawn_parked_pc", "spec_issued", "spawn_cycle",
                 "ready_bound")

    def __init__(self, state: ThreadState, start_cycle: int = 0):
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


class _Resources:
    """Per-cycle shared function-unit budget."""

    __slots__ = ("mem", "int_", "br")

    def __init__(self, config: MachineConfig):
        self.mem = config.memory_ports
        self.int_ = config.int_units
        self.br = config.branch_units


class InOrderSimulator:
    """Runs a finalised program on the in-order SMT machine model."""

    #: Longest a chaining spawn waits for a free context before being
    #: dropped (bounds priority inversion and prevents deadlock).
    SPAWN_WAIT_LIMIT = 1500

    def __init__(self, program: Program, heap: Heap, config: MachineConfig,
                 spawning: bool = True, max_cycles: int = 200_000_000):
        if not program.finalized:
            program.finalize()
        self.program = program
        self._dcode = decode_program(program)
        self._dreads = [d[D_READS] for d in self._dcode]
        n_ctx = config.hardware_contexts
        # Speculative-context round-robin orders, one per _rr value:
        # slot 0 (main) first, then the speculative slots starting at _rr.
        self._slot_orders = {
            rr: tuple([0] + [1 + (rr + k - 1) % (n_ctx - 1)
                             for k in range(1, n_ctx)])
            for rr in range(1, n_ctx)} if n_ctx > 1 else {}
        self.heap = heap
        self.config = config
        self.spawning = spawning
        self.max_cycles = max_cycles
        self.memory = MemorySystem(config)
        self.memory.prefetch_sources = dict(
            getattr(program, "prefetch_sources", {}))
        self.predictor = GsharePredictor(
            config.gshare_entries, config.btb_entries, config.btb_ways,
            config.hardware_contexts)
        self.stats = SimStats(self.memory)
        self.contexts: List[Optional[HWThread]] = (
            [None] * config.hardware_contexts)
        # Outstanding main-thread misses: heap of completion cycles.
        self._main_misses: List[int] = []
        # Live speculative contexts and their cycle-budget deadlines
        # (spawn_cycle + spec_cycle_budget, min-heap).  The run loop
        # only walks the context slots when one of these says a context
        # can actually have died.
        self._live_spec = 0
        self._spec_deadlines: List[int] = []
        self._next_tid = 0
        self._rr = 1  # round-robin pointer over speculative contexts
        # Speculative threads parked waiting for a free context.
        self._context_waiters: List[HWThread] = []
        # Dynamic chk.c throttling (Section 4.4.1 future work): per-trigger
        # fire counts, the partial-hit baseline at first fire, and the set
        # of suppressed triggers.
        self._chk_fires: Dict[int, int] = {}
        self._chk_partials_at_first: Dict[int, int] = {}
        self._chk_suppressed: set = set()
        # Checkpoint/resume bookkeeping: current cycle and whether the run
        # loop has been entered (so a restored simulator continues instead
        # of re-initialising the main context).
        self._now = 0
        self._started = False
        # Cycle-attribution profiler (repro.obs.profiler).  With no
        # profiler attached, ``_prof_next`` is a far-future sentinel and
        # the run loop's profiling gate is one always-false int compare.
        self._profiler = None
        self._prof_next = _FAR_FUTURE

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
        self._prof_next = self._now

    # -- checkpoint/resume ---------------------------------------------------------

    #: Everything mutable the run loop touches.  The program itself is NOT
    #: part of a snapshot: runs are content-addressed by their RunSpec, so
    #: a resume rebuilds the identical program and only the dynamic state
    #: crosses the checkpoint file.
    SNAPSHOT_MODEL = "inorder"
    _SNAPSHOT_FIELDS = (
        "heap", "memory", "predictor", "stats", "contexts", "main_state",
        "_main_misses", "_next_tid", "_rr", "_context_waiters",
        "_chk_fires", "_chk_partials_at_first", "_chk_suppressed",
        "_now", "_started",
    )

    @property
    def cycle(self) -> int:
        """Current simulated cycle (updated at checkpoint boundaries)."""
        return self._now

    def snapshot(self) -> Dict[str, object]:
        """Picklable snapshot of all dynamic state at a cycle boundary.

        The returned mapping aliases live simulator objects; serialise it
        (``pickle.dumps``) before letting the simulation continue.  Object
        identity inside the snapshot (stats ↔ memory, contexts ↔ waiters)
        is preserved by pickling the dict as one unit.
        """
        if not self._started:
            self._begin()
        state: Dict[str, object] = {
            name: getattr(self, name) for name in self._SNAPSHOT_FIELDS}
        state["model"] = self.SNAPSHOT_MODEL
        state["cycle"] = self._now
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Reinstall a :meth:`snapshot`; the next :meth:`run` resumes.

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
        if self._profiler is not None:
            self._prof_next = self._now
        else:
            self._prof_next = _FAR_FUTURE
        # Snapshots pickled before the scoreboard bound existed lack the
        # slot; recompute it exactly from the restored scoreboard.
        for ctx in self.contexts:
            if ctx is not None and not hasattr(ctx, "ready_bound"):
                ctx.ready_bound = max(ctx.reg_ready.values(), default=0)
        # Derived reap-trigger state (not part of the snapshot): rebuild
        # from the restored contexts.  Dead-but-unreaped contexts are
        # handled by the unconditional reap pass on the first iteration
        # of the next run().
        budget = self.config.spec_cycle_budget
        self._live_spec = 0
        self._spec_deadlines = []
        for ctx in self.contexts[1:]:
            if ctx is not None and not (ctx.state.halted
                                        or ctx.state.killed):
                self._live_spec += 1
                if budget:
                    heapq.heappush(self._spec_deadlines,
                                   ctx.spawn_cycle + budget)

    @property
    def main_done(self) -> bool:
        """True once the main thread has halted (or been killed)."""
        return self._started and self.contexts[0].state.done

    def _begin(self) -> None:
        """Initialise the main context (once per simulator lifetime)."""
        program = self.program
        main_state = ThreadState(
            tid=0, pc=program.function_entry[program.entry])
        #: Final main-thread architectural state (the differential oracle
        #: compares it across execution engines after :meth:`run`).
        self.main_state = main_state
        self.contexts[0] = HWThread(main_state)
        self._now = 0
        self._started = True

    # -- context management -------------------------------------------------------

    def _on_reap(self, slot: int, now: int) -> None:
        """Hook invoked when a finished speculative thread frees its
        context (overridden by the tracing simulator)."""

    def _on_chk_fired(self, uid: int, now: int) -> None:
        """Hook invoked when a chk.c trigger fires (overridden by the
        tracing simulator; fired triggers are rare, so the no-op call
        costs nothing measurable)."""

    def _free_slot(self) -> Optional[int]:
        for slot in range(1, self.config.hardware_contexts):
            if self.contexts[slot] is None:
                return slot
        return None

    def _spawn(self, parent: HWThread, target: int, now: int) -> bool:
        slot = self._free_slot()
        if slot is None:
            self.stats.spawn_failures += 1
            return False
        self._next_tid += 1
        child_state = spawn_thread(parent.state, self._next_tid, target)
        child = HWThread(child_state,
                         start_cycle=now + self.config.spawn_startup_latency)
        self.contexts[slot] = child
        self._live_spec += 1
        budget = self.config.spec_cycle_budget
        if budget:
            heapq.heappush(self._spec_deadlines,
                           child.spawn_cycle + budget)
        self.stats.spawns += 1
        return True

    # -- issue logic ---------------------------------------------------------------

    def _total_partials(self) -> int:
        return sum(self.memory.partial_counts.values())

    def _throttle_allows(self, chk_uid: int) -> bool:
        """Dynamic coverage/timeliness monitor for one trigger.

        Samples the first N fires; if the main thread gained fewer than
        ``throttle_min_benefit`` partial hits per fire — the speculative
        threads are not getting useful prefetches in flight — the trigger
        is suppressed for the rest of the run (its chk.c "returns no
        available context").
        """
        if chk_uid in self._chk_suppressed:
            return False
        config = self.config
        fires = self._chk_fires.get(chk_uid, 0)
        if fires == 0:
            self._chk_partials_at_first[chk_uid] = self._total_partials()
        elif fires >= config.throttle_sample_fires:
            gained = (self._total_partials()
                      - self._chk_partials_at_first[chk_uid])
            if gained / fires < config.throttle_min_benefit:
                self._chk_suppressed.add(chk_uid)
                return False
        self._chk_fires[chk_uid] = fires + 1
        return True

    def _issue_thread_fast(self, thread: HWThread, budget: int, now: int,
                           res: _Resources) -> int:
        """Issue up to ``budget`` instructions from ``thread`` at ``now``.

        Returns the number issued.  Updates scoreboard, caches, predictor,
        and may spawn/kill threads.  One fused dispatch per instruction
        over ``repro.isa.decode`` tuples: the architectural step
        (mirroring ``interp.execute``), instruction counters,
        scoreboard/latency updates and control flow are a single branch
        per kind — no Instruction attribute access, no ExecResult
        allocation, and the per-instruction counters and unit pools
        accumulate in locals that flush once per call.
        """
        program = self.program
        dcode = self._dcode
        state = thread.state
        config = self.config
        heap = self.heap
        words = heap._words
        heap_size = heap.size
        memory = self.memory
        stats = self.stats
        predictor = self.predictor
        spec_budget = config.spec_instruction_budget
        is_main = state.tid == 0
        issued = 0
        # Main-thread instructions issued inside a recovery stub (rfi
        # stack non-empty: between a fired chk.c and its rfi).  They are
        # adaptation overhead, counted separately so the
        # retired-instruction oracle can compare models net of fired
        # triggers.
        n_stub = 0
        spec_base = thread.spec_issued
        ready = thread.reg_ready
        bound = thread.ready_bound
        levels = thread.reg_level
        rd = state.regs
        preds = state.preds
        rfi_stack = state.rfi_stack
        zero = regs.ZERO
        true_pred = regs.TRUE_PREDICATE
        res_int = res.int_
        res_mem = res.mem
        res_br = res.br

        while issued < budget:
            # Runaway-slice containment: a speculative context that has
            # exhausted its instruction budget is killed on the spot.
            # thread.spec_issued == spec_base + issued at every loop top
            # (each issue increments both), so the budget check can stay
            # on locals.
            if not is_main and spec_budget \
                    and spec_base + issued >= spec_budget:
                state.killed = True
                stats.budget_kills += 1
                break

            pc = state.pc
            d = dcode[pc]

            # Scoreboard: stall on use of a not-yet-ready register.  The
            # scan is skipped outright while no write is still pending
            # (``bound`` caps every reg_ready value).
            if bound > now:
                worst = 0
                for reg in d[8]:                  # D_READS
                    t = ready.get(reg, 0)
                    if t > worst:
                        worst = t
                if worst > now:
                    thread.wake = worst
                    break

            # Structural hazards: shared function units.
            rescls = d[10]                        # D_RES
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

            kind = d[0]                           # D_KIND

            # A chaining spawn in a speculative thread *waits* for a free
            # context (the lightweight exception fires "when a free
            # hardware context is available", Section 2.1) — this is what
            # keeps a chain alive as a self-throttling pipeline.  The main
            # thread never blocks: its chk.c simply does not fire.
            if kind == K_SPAWN and not is_main \
                    and self._free_slot() is None:
                if thread.spawn_parked_pc == pc:
                    # Second attempt with no context: give up — the spawn
                    # request is ignored (Section 2.1) and the thread runs
                    # on, which also rules out all-contexts-parked
                    # deadlock.
                    thread.spawn_parked_pc = None
                else:
                    stats.spawn_waits += 1
                    thread.spawn_parked_pc = pc
                    thread.wake = now + self.SPAWN_WAIT_LIMIT
                    self._context_waiters.append(thread)
                    break

            chk_fires = False
            if kind == K_CHK:
                chk_fires = self.spawning and self._free_slot() is not None
                if chk_fires and config.dynamic_chk_throttle:
                    chk_fires = self._throttle_allows(d[13])  # D_UID

            # Predication: a false qualifying predicate squashes the
            # instruction — it still consumed its slot and unit, counts
            # as issued, and (for br.cond) still trains the predictor.
            pred = d[7]                           # D_PRED
            if pred is not None and not preds.get(pred, False):
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                if kind == K_LD:
                    dest = d[2]
                    ready[dest] = now + 1
                    if now + 1 > bound:
                        bound = now + 1
                    levels[dest] = None
                elif kind == K_LFETCH:
                    memory.prefetches_dropped += 1
                if kind == K_BRC:
                    penalty = predictor.predict_and_update(
                        pc, state.tid, False)
                    if penalty < 0:
                        stats.mispredicts += 1
                        thread.stall_until = \
                            now + 1 + config.mispredict_penalty
                        thread.wake = thread.stall_until
                        break
                elif K_BR <= kind <= K_RET:
                    break
                elif kind == K_CHK:
                    stats.chk_ignored += 1
                elif kind == K_KILL or kind == K_HALT:
                    break
                continue

            if kind == K_ALU:
                src1 = d[4]
                dest = d[2]
                rd[dest] = d[12](rd.get(d[3], 0),
                                 rd.get(src1, 0) if src1 is not None
                                 else d[5])
                if dest == zero:
                    rd[zero] = 0
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                t = now + d[9]                    # D_LAT
                ready[dest] = t
                if t > bound:
                    bound = t
                levels[dest] = None
                continue

            if kind == K_LD:
                dest = d[2]
                addr = rd.get(d[3], 0) + d[6]     # D_IMM0
                if not addr & 7 and HEAP_BASE <= addr < heap_size:
                    rd[dest] = words.get(addr >> 3, 0)
                    state.pc = pc + 1
                    issued += 1
                    if rfi_stack:
                        n_stub += 1
                    access = memory.access(addr, now, d[13], is_main)
                    ready[dest] = access.ready
                    if access.ready > bound:
                        bound = access.ready
                    levels[dest] = access.level
                    if is_main and access.level != L1:
                        heapq.heappush(self._main_misses, access.ready)
                elif state.speculative:
                    rd[dest] = 0                  # deferred exception
                    state.pc = pc + 1
                    issued += 1
                    ready[dest] = now + 1
                    if now + 1 > bound:
                        bound = now + 1
                    levels[dest] = None
                else:
                    raise ExecutionError(
                        f"bad load address {addr:#x} at pc {pc} "
                        f"({program.code[pc]})")
                continue

            if kind == K_CMP:
                src1 = d[4]
                dest = d[2]
                preds[dest] = d[12](rd.get(d[3], 0),
                                    rd.get(src1, 0) if src1 is not None
                                    else d[5])
                if dest == true_pred:
                    preds[true_pred] = True
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                t = now + d[9]
                ready[dest] = t
                if t > bound:
                    bound = t
                levels[dest] = None
                continue

            if kind == K_MOV:
                src = d[3]
                dest = d[2]
                rd[dest] = rd.get(src, 0) if src is not None else d[5]
                if dest == zero:
                    rd[zero] = 0
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                t = now + d[9]
                ready[dest] = t
                if t > bound:
                    bound = t
                levels[dest] = None
                continue

            if kind == K_BRC:
                # An *executed* br.cond is always taken: its predicate is
                # both the qualifying predicate (false → squashed above)
                # and the branch condition.
                state.pc = d[11]                  # D_TARGET
                issued += 1
                if rfi_stack:
                    n_stub += 1
                penalty = predictor.predict_and_update(pc, state.tid, True)
                if penalty < 0:
                    stats.mispredicts += 1
                    thread.stall_until = now + 1 + config.mispredict_penalty
                    thread.wake = thread.stall_until
                    break
                if penalty > 0:
                    thread.stall_until = now + 1 + penalty
                    thread.wake = thread.stall_until
                break  # taken branch ends this thread's fetch group

            if kind == K_BR:
                state.pc = d[11]
                issued += 1
                if rfi_stack:
                    n_stub += 1
                break

            if kind == K_ST:
                if state.speculative:
                    raise ExecutionError(
                        "speculative thread attempted a store — the "
                        "emitter must never place stores in p-slices "
                        f"({program.code[pc]} at pc {pc})")
                addr = rd.get(d[3], 0) + d[6]
                if addr & 7 or not HEAP_BASE <= addr < heap_size:
                    raise ExecutionError(
                        f"bad store address {addr:#x} at pc {pc} "
                        f"({program.code[pc]})")
                words[addr >> 3] = rd.get(d[4], 0)
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                memory.access(addr, now, d[13], is_main, is_store=True)
                continue

            if kind == K_LFETCH:
                addr = rd.get(d[3], 0) + d[6]
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                if not addr & 7 and HEAP_BASE <= addr < heap_size:
                    memory.access(addr, now, d[13], is_main,
                                  is_prefetch=True)
                else:
                    memory.prefetches_dropped += 1
                continue

            if kind == K_CALL:
                state.call_stack.append((pc + 1, dict(rd)))
                state.pc = d[11]
                issued += 1
                if rfi_stack:
                    n_stub += 1
                break

            if kind == K_RET:
                if not state.call_stack:
                    state.halted = True
                else:
                    ret_pc, saved = state.call_stack.pop()
                    saved[regs.RET_VALUE] = rd.get(regs.RET_VALUE, 0)
                    state.regs = saved
                    rd = saved
                    state.pc = ret_pc
                issued += 1
                if rfi_stack:
                    n_stub += 1
                break

            if kind == K_CALLI:
                fid = rd.get(d[3], 0)
                if 0 <= fid < len(program.function_by_id):
                    state.call_stack.append((pc + 1, dict(rd)))
                    state.pc = program.function_entry[
                        program.function_by_id[fid]]
                elif state.speculative:
                    state.killed = True
                else:
                    raise ExecutionError(
                        f"bad indirect call target {fid} at pc {pc}")
                issued += 1
                if rfi_stack:
                    n_stub += 1
                break

            if kind == K_CHK:
                was_stub = bool(rfi_stack)
                if chk_fires:
                    rfi_stack.append(pc + 1)
                    state.pc = d[11]
                else:
                    state.pc = pc + 1
                issued += 1
                if was_stub:
                    n_stub += 1
                if chk_fires:
                    # Lightweight exception: pipeline flush, resume in
                    # the stub.
                    stats.chk_fired += 1
                    self._on_chk_fired(d[13], now)
                    thread.stall_until = now + config.chk_flush_penalty
                    thread.wake = thread.stall_until
                    break
                stats.chk_ignored += 1
                continue

            if kind == K_RFI:
                if not rfi_stack:
                    raise ExecutionError(
                        f"rfi with no pending recovery at pc {pc}")
                state.pc = rfi_stack.pop()
                issued += 1
                n_stub += 1
                continue  # rfi does not end the fetch group

            if kind == K_SPAWN:
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                self._spawn(thread, d[11], now)
                continue

            if kind == K_LIBST:
                state.lib_out[d[5]] = rd.get(d[3], 0)
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                continue

            if kind == K_LIBLD:
                dest = d[2]
                rd[dest] = state.lib_in[d[5]]
                state.pc = pc + 1
                issued += 1
                if rfi_stack:
                    n_stub += 1
                t = now + d[9]
                ready[dest] = t
                if t > bound:
                    bound = t
                levels[dest] = None
                continue

            if kind == K_KILL or kind == K_HALT:
                if kind == K_KILL:
                    state.killed = True
                else:
                    state.halted = True
                issued += 1
                if rfi_stack:
                    n_stub += 1
                break

            # K_NOP
            state.pc = pc + 1
            issued += 1
            if rfi_stack:
                n_stub += 1
            continue

        if issued and thread.wake <= now \
                and not (state.halted or state.killed):
            thread.wake = now + 1
        thread.ready_bound = bound
        res.int_ = res_int
        res.mem = res_mem
        res.br = res_br
        if issued:
            if is_main:
                stats.main_instructions += issued
                if n_stub:
                    stats.main_stub_instructions += n_stub
            else:
                stats.spec_instructions += issued
                thread.spec_issued = spec_base + issued
        return issued

    # -- accounting -----------------------------------------------------------------

    def _main_category_fast(self, main: HWThread, issued_main: int,
                            now: int) -> str:
        """Figure 10 category of the main thread for cycle ``now``."""
        misses = self._main_misses
        while misses and misses[0] <= now:
            heapq.heappop(misses)
        if issued_main > 0:
            return "CacheExec" if misses else "Exec"
        ms = main.state
        if ms.halted or ms.killed:
            return "Other"
        if main.stall_until > now:
            return "Other"  # flush/redirect bubble
        ready = main.reg_ready
        worst_cycle, worst_reg = 0, None
        for reg in self._dreads[ms.pc]:
            t = ready.get(reg, 0)
            if t > worst_cycle:
                worst_cycle, worst_reg = t, reg
        if worst_cycle > now:
            level = main.reg_level.get(worst_reg)
            if level == L1:
                return "Exec"  # short L1-hit interlock
            if level in STALL_CATEGORY:
                return STALL_CATEGORY[level]
            return "Other"
        return "Other"  # lost fetch slots to other threads, etc.

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

        One iteration per non-skipped cycle, issuing from the pre-decoded
        table, with hoisted locals, precomputed slot orders, a fused
        reap-and-liveness pass, inline scoreboard checks over decoded
        read sets, and inline Figure 10 accounting on the issuing path.
        """
        config = self.config
        if not self._started:
            self._begin()
        main = self.contexts[0]
        main_state = main.state
        stats = self.stats
        now = self._now
        next_checkpoint = None
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = now + checkpoint_every

        dreads = self._dreads
        contexts = self.contexts
        slot_orders = self._slot_orders
        breakdown = stats.cycle_breakdown
        main_misses = self._main_misses
        heappop = heapq.heappop
        n_ctx = config.hardware_contexts
        # Speculative slots the round-robin pointer cycles over; a
        # single-context machine has none and keeps _rr at 1.
        n_spec = max(n_ctx - 1, 1)
        issue_width = config.issue_width
        bundle_size = config.bundle_size
        max_cycles = self.max_cycles
        cycle_budget = config.spec_cycle_budget
        memory_ports = config.memory_ports
        int_units = config.int_units
        branch_units = config.branch_units
        res = _Resources(config)
        rr = self._rr
        prof_next = self._prof_next
        issue = self._issue_thread_fast
        deadlines = self._spec_deadlines
        # Force a full reap pass on the first iteration: a restored
        # snapshot (or a resumed run) may hold dead-but-unreaped
        # contexts.
        reap_due = True

        while not (main_state.halted or main_state.killed):
            if next_checkpoint is not None and now >= next_checkpoint:
                self._now = now
                self._rr = rr
                on_checkpoint(self)
                while next_checkpoint <= now:
                    next_checkpoint += checkpoint_every
            if now >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {self.max_cycles} cycles")
            # Profiling gate: one int compare per iteration when off
            # (``prof_next`` is the far-future sentinel).  On a sampled
            # iteration ``prof`` goes non-None and the loop takes wall
            # laps at its phase boundaries below.
            prof = None
            if now >= prof_next:
                prof = self._profiler
                t_prof = prof.begin(now)

            # Reap finished speculative threads and wake parked spawners.
            # The slot walk only runs when a context can actually have
            # died: an issue-side death last cycle (reap_due) or an
            # expired cycle-budget deadline; otherwise liveness comes
            # from the running _live_spec count.
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
                    cs_done = cs.halted or cs.killed
                    if cycle_budget and not cs_done \
                            and now - ctx.spawn_cycle >= cycle_budget:
                        cs.killed = True
                        stats.budget_kills += 1
                        cs_done = True
                    if cs_done:
                        contexts[slot] = None
                        self._live_spec -= 1
                        stats.threads_completed += 1
                        self._on_reap(slot, now)
                        if self._context_waiters:
                            for waiter in self._context_waiters:
                                ws = waiter.state
                                if not (ws.halted or ws.killed):
                                    waiter.wake = now
                            self._context_waiters = []
                    else:
                        have_spec = True
            else:
                have_spec = self._live_spec != 0
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
                res.mem = memory_ports
                res.int_ = int_units
                res.br = branch_units
                if cand1 is None:
                    n = issue(cand0, issue_width, now, res)
                    if cand0 is main:
                        issued_main = n
                else:
                    n = issue(cand0, bundle_size, now, res)
                    if cand0 is main:
                        issued_main = n
                    n = issue(cand1, bundle_size, now, res)
                    if cand1 is main:
                        issued_main = n
                if ((cand0 is not main
                     and (cand0.state.halted or cand0.state.killed))
                        or (cand1 is not None and cand1 is not main
                            and (cand1.state.halted
                                 or cand1.state.killed))):
                    reap_due = True
            if prof is not None:
                t_prof = prof.lap("issue", t_prof)

            if issued_main:
                # Inline _main_category_fast's issuing arm (the common
                # case): drain expired misses, charge CacheExec/Exec.
                while main_misses and main_misses[0] <= now:
                    heappop(main_misses)
                breakdown["CacheExec" if main_misses else "Exec"] += 1
            else:
                breakdown[self._main_category_fast(main, 0, now)] += 1
            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof_next = prof.sample(
                    now, stats, issued_main, cand0 is None)
            if main_state.halted or main_state.killed:
                now += 1
                break

            if cand0 is not None:
                now += 1
                continue

            # Nothing issuable: skip to the earliest wake-up.
            wake = _FAR_FUTURE
            for ctx in contexts:
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
                breakdown[self._main_category_fast(main, 0, now)] += skip
            now = wake

        self._rr = rr
        self._now = now
        stats.cycles = now
        stats.mispredicts = self.predictor.mispredicts
        return stats
