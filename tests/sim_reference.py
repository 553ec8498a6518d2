"""Reference ISA semantics and run loops, for differential tests.

:func:`execute` is an independent statement of what each opcode does,
over :class:`~repro.isa.instructions.Instruction` objects, reporting in
an :class:`ExecResult`.  It names registers: it reaches a
:class:`~repro.isa.interp.ThreadState`'s register lists only through the
state's name -> slot view.  Production code defines the semantics once,
in the step closures of :mod:`repro.isa.decode`; this module is the
oracle they are held equal to.

Each simulator class overrides ``run`` with the original per-cycle loop,
which interprets Instruction objects and steps them through
:func:`execute`.  The production simulators run the same cycle structure
over the pre-decoded issue tables of :mod:`repro.isa.decode`;
``tests/test_sim_fastpath.py`` asserts byte-identical ``SimStats``
between the two on every paper workload and a fuzz corpus.  Everything
else (construction, the context policy of :mod:`repro.sim.smt` —
spawning, release, budget kills, the ``chk.c`` gate — and
checkpointing) is inherited, so only the loops are compared.  The
reference loops keep their own name-keyed scoreboards and their own heap
of outstanding main-thread misses.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.isa import registers as regs
from repro.isa.instructions import Instruction
from repro.isa.decode import decode_program
from repro.isa.interp import ExecutionError, ThreadState
from repro.isa.memory import Heap
from repro.isa.program import Program
from repro.sim.caches import L1
from repro.sim.inorder import _FAR_FUTURE, HWThread, InOrderSimulator
from repro.sim.ooo import OOOSimulator, _OOOThread
from repro.sim.stats import STALL_CATEGORY, SimStats


#: The oracle's own statement of each ALU operation and ``cmp`` relation,
#: independent of the production decode table.
_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
}

_RELATIONS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


class ExecResult:
    """What one functional step did (consumed by the timing layer)."""

    __slots__ = ("next_pc", "mem_addr", "taken", "spawn_target", "executed",
                 "chk_taken")

    def __init__(self, next_pc: int, mem_addr: Optional[int] = None,
                 taken: Optional[bool] = None,
                 spawn_target: Optional[int] = None,
                 executed: bool = True, chk_taken: bool = False):
        self.next_pc = next_pc
        self.mem_addr = mem_addr
        self.taken = taken
        self.spawn_target = spawn_target
        self.executed = executed
        self.chk_taken = chk_taken


def new_state(program: Program, tid: int = 0, pc: int = 0,
              speculative: bool = False) -> ThreadState:
    """A thread state over ``program``'s register slots."""
    return ThreadState(tid, pc, speculative,
                       slots=decode_program(program).slots)


def _get(state: ThreadState, reg: str) -> int:
    return state.regs[state.slots.regs[reg]]


def _set(state: ThreadState, reg: str, value) -> None:
    state.regs[state.slots.regs[reg]] = value
    if reg == regs.ZERO:
        state.regs[state.slots.regs[reg]] = 0      # hard-wired


def _pred(state: ThreadState, reg: str) -> bool:
    return state.preds[state.slots.preds[reg]]


def _set_pred(state: ThreadState, reg: str, value: bool) -> None:
    state.preds[state.slots.preds[reg]] = value
    if reg == regs.TRUE_PREDICATE:
        state.preds[state.slots.preds[reg]] = True  # hard-wired


def execute(program: Program, heap: Heap, state: ThreadState,
            instr: Instruction, chk_fires: bool = False) -> ExecResult:
    """Execute ``instr`` architecturally on ``state``.

    ``chk_fires`` tells a ``chk.c`` whether a free hardware context is
    available (the timing model's decision); when false the check behaves
    like a nop, per Section 3.4.2.  Whatever the opcode, a write to ``r0``
    leaves it 0 and a write to ``p0`` leaves it true.
    """
    pc = state.pc
    op = instr.op

    # Predication: a false qualifying predicate squashes the instruction.
    if instr.pred is not None and not _pred(state, instr.pred):
        state.pc = pc + 1
        return ExecResult(pc + 1, executed=False)

    if op in _ALU:
        a = _get(state, instr.srcs[0])
        b = _get(state, instr.srcs[1]) if len(instr.srcs) > 1 else instr.imm
        _set(state, instr.dest, _ALU[op](a, b))
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "mov":
        _set(state, instr.dest,
             _get(state, instr.srcs[0]) if instr.srcs else instr.imm)
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "ld":
        addr = _get(state, instr.srcs[0]) + (instr.imm or 0)
        if heap.valid(addr):
            _set(state, instr.dest, heap.load(addr))
        elif state.speculative:
            _set(state, instr.dest, 0)  # deferred exception: NaT-like zero
            addr = None            # no memory access is made
        else:
            raise ExecutionError(
                f"bad load address {addr:#x} at pc {pc} ({instr})")
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "st":
        if state.speculative:
            raise ExecutionError(
                "speculative thread attempted a store — the emitter must "
                f"never place stores in p-slices ({instr} at pc {pc})")
        addr = _get(state, instr.srcs[0]) + (instr.imm or 0)
        if not heap.valid(addr):
            raise ExecutionError(
                f"bad store address {addr:#x} at pc {pc} ({instr})")
        heap.store(addr, _get(state, instr.srcs[1]))
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "lfetch":
        addr = _get(state, instr.srcs[0]) + (instr.imm or 0)
        if not heap.valid(addr):
            addr = None            # non-faulting prefetch: dropped
        state.pc = pc + 1
        return ExecResult(pc + 1, mem_addr=addr)

    if op == "cmp":
        a = _get(state, instr.srcs[0])
        b = _get(state, instr.srcs[1]) if len(instr.srcs) > 1 else instr.imm
        _set_pred(state, instr.dest, _RELATIONS[instr.relation](a, b))
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "br":
        target = program.branch_target[pc]
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.cond":
        taken = _pred(state, instr.pred) if instr.pred else True
        target = program.branch_target[pc] if taken else pc + 1
        state.pc = target
        return ExecResult(target, taken=taken)

    if op == "br.call":
        target = program.branch_target[pc]
        state.call_stack.append((pc + 1, list(state.regs)))
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.call.ind":
        fid = _get(state, instr.srcs[0])
        if not 0 <= fid < len(program.function_by_id):
            if state.speculative:
                state.killed = True
                return ExecResult(pc, executed=False)
            raise ExecutionError(f"bad indirect call target {fid} at pc {pc}")
        target = program.function_entry[program.function_by_id[fid]]
        state.call_stack.append((pc + 1, list(state.regs)))
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "br.ret":
        if not state.call_stack:
            # Returning from the outermost frame ends the thread.
            state.halted = True
            return ExecResult(pc, taken=True)
        ret_pc, saved = state.call_stack.pop()
        ret_val = _get(state, regs.RET_VALUE)
        state.regs = saved
        _set(state, regs.RET_VALUE, ret_val)
        state.pc = ret_pc
        return ExecResult(ret_pc, taken=True)

    if op == "chk.c":
        if chk_fires:
            # Lightweight exception: divert to the recovery stub, remember
            # where to resume.
            target = program.branch_target[pc]
            state.rfi_stack.append(pc + 1)
            state.pc = target
            return ExecResult(target, taken=True, chk_taken=True)
        state.pc = pc + 1
        return ExecResult(pc + 1, taken=False)

    if op == "rfi":
        if not state.rfi_stack:
            raise ExecutionError(f"rfi with no pending recovery at pc {pc}")
        target = state.rfi_stack.pop()
        state.pc = target
        return ExecResult(target, taken=True)

    if op == "spawn":
        target = program.branch_target[pc]
        state.pc = pc + 1
        return ExecResult(pc + 1, spawn_target=target)

    if op == "lib.st":
        state.lib_out[instr.imm] = _get(state, instr.srcs[0])
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "lib.ld":
        _set(state, instr.dest, state.lib_in[instr.imm])
        state.pc = pc + 1
        return ExecResult(pc + 1)

    if op == "kill":
        state.killed = True
        return ExecResult(pc)

    if op == "halt":
        state.halted = True
        return ExecResult(pc)

    if op == "nop":
        state.pc = pc + 1
        return ExecResult(pc + 1)

    raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover


class _Resources:
    """Per-cycle shared function-unit budget."""

    __slots__ = ("mem", "int_", "br")

    def __init__(self, config):
        self.mem = config.memory_ports
        self.int_ = config.int_units
        self.br = config.branch_units


class _RefHWThread(HWThread):
    """In-order timing state with a scoreboard keyed by register name."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.reg_ready = {}
        self.reg_level = {}


class _RefOOOThread(_OOOThread):
    """OOO timing state with a scoreboard keyed by register name."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.reg_complete = {}
        self.reg_level = {}


class ReferenceInOrderSimulator(InOrderSimulator):
    """In-order model driven by the Instruction-object loop."""

    THREAD = _RefHWThread

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Outstanding main-thread misses (completion cycles), for the
        # Figure 10 Cache+Exec category.  Not part of a snapshot.
        self._main_misses: List[int] = []

    def run(self, checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> SimStats:
        """Reference per-cycle loop interpreting Instruction objects."""
        config = self.config
        if not self._started:
            self._begin()
        main = self.contexts[0]
        stats = self.stats
        now = self._now
        next_checkpoint = None
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = now + checkpoint_every

        while not main.state.done:
            if next_checkpoint is not None and now >= next_checkpoint:
                self._now = now
                on_checkpoint(self)
                while next_checkpoint <= now:
                    next_checkpoint += checkpoint_every
            if now >= self.max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {self.max_cycles} cycles")
            # Profiling gate: one int compare per iteration when off
            # (``_prof_next`` is the far-future sentinel).  On a sampled
            # iteration ``prof`` goes non-None and the loop takes wall
            # laps at its phase boundaries below.
            prof = None
            if now >= self._prof_next:
                prof = self._profiler
                t_prof = prof.begin(now)

            # Reap finished speculative threads; wake any chain spawner
            # that was parked waiting for a context.
            cycle_budget = config.spec_cycle_budget
            for slot in range(1, config.hardware_contexts):
                ctx = self.contexts[slot]
                if (ctx is not None and cycle_budget
                        and not ctx.state.done
                        and now - ctx.spawn_cycle >= cycle_budget):
                    # Containment: the context outlived its cycle budget.
                    self._budget_kill(ctx.state)
                if ctx is not None and ctx.state.done:
                    self._release(slot, now)
                    if self._context_waiters:
                        for waiter in self._context_waiters:
                            if not waiter.state.done:
                                waiter.wake = now
                        self._context_waiters = []
            if prof is not None:
                t_prof = prof.lap("reap", t_prof)

            # Select up to two issuable threads: the main thread has fetch
            # priority (speculative threads use *otherwise idle* resources);
            # speculative contexts share the remaining slot round-robin.
            candidates: List[HWThread] = []
            n_ctx = config.hardware_contexts
            slot_order = [0] + [1 + (self._rr + k - 1) % (n_ctx - 1)
                                for k in range(1, n_ctx)]
            for slot in slot_order:
                ctx = self.contexts[slot]
                if (ctx is None or ctx.state.done or ctx.stall_until > now
                        or ctx.wake > now):
                    continue
                if self._blocked_on(ctx, now) is None:
                    candidates.append(ctx)
                    if len(candidates) == 2:
                        break
            self._rr = self._rr % (n_ctx - 1) + 1
            if prof is not None:
                t_prof = prof.lap("select", t_prof)

            issued_main = 0
            if candidates:
                res = _Resources(config)
                if len(candidates) == 1:
                    budget = config.issue_width
                else:
                    budget = config.bundle_size
                for ctx in candidates:
                    n = self._issue_thread(ctx, budget, now, res)
                    if ctx is main:
                        issued_main = n
            if prof is not None:
                t_prof = prof.lap("issue", t_prof)

            stats.charge(self._main_category(main, issued_main, now))
            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof.sample(now, stats, issued_main,
                                              not candidates)
            if main.state.done:
                now += 1
                break

            if candidates:
                now += 1
                continue

            # Nothing issuable: skip to the earliest wake-up.
            wake = _FAR_FUTURE
            for ctx in self.contexts:
                if ctx is None or ctx.state.done:
                    continue
                w = max(ctx.stall_until, ctx.wake)
                blocked = self._blocked_on(ctx, now)
                if blocked is not None:
                    w = max(w, blocked[0])
                wake = min(wake, w)
            if wake == _FAR_FUTURE or wake <= now:
                wake = now + 1
            skip = wake - now - 1
            if skip > 0:
                stats.charge(self._main_category(main, 0, now), skip)
            now = wake

        self._now = now
        stats.cycles = now
        stats.mispredicts = self.predictor.mispredicts
        return stats

    def _issue_thread(self, thread: HWThread, budget: int, now: int,
                      res: _Resources) -> int:
        """Issue up to ``budget`` instructions from ``thread`` at ``now``.

        Returns the number issued.  Updates scoreboard, caches, predictor,
        and may spawn/kill threads.
        """
        program = self.program
        code = program.code
        state = thread.state
        config = self.config
        is_main = state.tid == 0
        issued = 0

        while issued < budget:
            # Runaway-slice containment: a speculative context that has
            # exhausted its instruction budget is killed on the spot.
            if not is_main:
                limit = config.spec_instruction_budget
                if limit and thread.spec_issued >= limit:
                    state.killed = True
                    self.stats.budget_kills += 1
                    break

            instr = code[state.pc]
            op = instr.op

            # Scoreboard: stall on use of a not-yet-ready register.
            blocked = self._blocked_on(thread, now)
            if blocked is not None:
                thread.wake = blocked[0]
                break

            # Structural hazards: shared function units.
            if instr.is_memory:
                if res.mem == 0:
                    thread.wake = now + 1
                    break
                res.mem -= 1
            elif instr.is_branch or op in ("chk.c", "spawn"):
                if res.br == 0:
                    thread.wake = now + 1
                    break
                res.br -= 1
            else:
                if res.int_ == 0:
                    thread.wake = now + 1
                    break
                res.int_ -= 1

            # A chaining spawn in a speculative thread *waits* for a free
            # context (the lightweight exception fires "when a free
            # hardware context is available", Section 2.1) — this is what
            # keeps a chain alive as a self-throttling pipeline.  The main
            # thread never blocks: its chk.c simply does not fire.
            if (op == "spawn" and not is_main
                    and None not in self.contexts):
                if thread.spawn_parked_pc == state.pc:
                    # Second attempt with no context: give up — the spawn
                    # request is ignored (Section 2.1) and the thread runs
                    # on, which also rules out all-contexts-parked
                    # deadlock.
                    thread.spawn_parked_pc = None
                else:
                    self.stats.spawn_waits += 1
                    thread.spawn_parked_pc = state.pc
                    thread.wake = now + self.SPAWN_WAIT_LIMIT
                    self._context_waiters.append(thread)
                    break

            chk_fires = False
            if op == "chk.c":
                chk_fires = self._chk_gate(instr.uid)

            pc_before = state.pc
            # A non-empty rfi stack means the main thread is inside a
            # recovery stub (between a fired chk.c and its rfi): those
            # instructions retire on the main thread but are adaptation
            # overhead, tracked separately so the retired-instruction
            # oracle can compare models net of fired triggers.
            in_stub = is_main and bool(state.rfi_stack)
            result = execute(program, self.heap, state, instr, chk_fires)
            issued += 1
            if is_main:
                self.stats.main_instructions += 1
                if in_stub:
                    self.stats.main_stub_instructions += 1
            else:
                self.stats.spec_instructions += 1
                thread.spec_issued += 1

            # -- latency & side effects per class ---------------------------------
            if op == "ld":
                if result.mem_addr is not None and result.executed:
                    ready, level = self.memory.access(
                        result.mem_addr, now, instr.uid, is_main)
                    thread.reg_ready[instr.dest] = ready
                    if ready > thread.ready_bound:
                        thread.ready_bound = ready
                    thread.reg_level[instr.dest] = level
                    if is_main and level != L1:
                        heapq.heappush(self._main_misses, ready)
                else:
                    thread.reg_ready[instr.dest] = now + 1
                    if now + 1 > thread.ready_bound:
                        thread.ready_bound = now + 1
                    thread.reg_level[instr.dest] = None
            elif op == "st":
                if result.mem_addr is not None and result.executed:
                    self.memory.access(result.mem_addr, now, instr.uid,
                                       is_main, is_store=True)
            elif op == "lfetch":
                if result.mem_addr is not None and result.executed:
                    self.memory.access(result.mem_addr, now, instr.uid,
                                       is_main, is_prefetch=True)
                else:
                    self.memory.prefetches_dropped += 1
            elif instr.dest is not None and result.executed:
                latency = instr.fixed_latency()
                thread.reg_ready[instr.dest] = now + latency
                if now + latency > thread.ready_bound:
                    thread.ready_bound = now + latency
                thread.reg_level[instr.dest] = None

            # -- control flow ------------------------------------------------------
            if op == "br.cond":
                penalty = self.predictor.predict_and_update(
                    pc_before, state.tid, bool(result.taken))
                if penalty < 0:
                    self.stats.mispredicts += 1
                    thread.stall_until = now + 1 + config.mispredict_penalty
                    thread.wake = thread.stall_until
                    break
                if result.taken:
                    if penalty > 0:
                        thread.stall_until = now + 1 + penalty
                        thread.wake = thread.stall_until
                    break  # taken branch ends this thread's fetch group
            elif op in ("br", "br.call", "br.call.ind", "br.ret"):
                if state.halted:
                    break
                break  # control transfer ends the fetch group
            elif op == "chk.c" and result.chk_taken:
                # Lightweight exception: pipeline flush, resume in the stub.
                self.stats.chk_fired += 1
                thread.stall_until = now + config.chk_flush_penalty
                thread.wake = thread.stall_until
                break
            elif op == "chk.c":
                self.stats.chk_ignored += 1
            elif op == "spawn":
                if result.spawn_target is not None:
                    self._spawn(state, result.spawn_target, now,
                                now + config.spawn_startup_latency)
            elif op in ("kill", "halt"):
                break

            if state.done:
                break

        if issued and not state.done and thread.wake <= now:
            thread.wake = now + 1
        return issued

    def _blocked_on(self, thread: HWThread, now: int):
        """If the thread's next instruction can't issue, return
        (wake_cycle, blocking register); else None."""
        instr = self.program.code[thread.state.pc]
        ready = thread.reg_ready
        worst_cycle, worst_reg = 0, None
        for reg in instr.reads:
            t = ready.get(reg, 0)
            if t > worst_cycle:
                worst_cycle, worst_reg = t, reg
        if worst_cycle > now:
            return worst_cycle, worst_reg
        return None

    def _main_category(self, main: Optional[HWThread], issued_main: int,
                       now: int) -> str:
        misses = self._main_misses
        while misses and misses[0] <= now:
            heapq.heappop(misses)
        if issued_main > 0:
            return "CacheExec" if misses else "Exec"
        if main is None or main.state.done:
            return "Other"
        if main.stall_until > now:
            return "Other"  # flush/redirect bubble
        blocked = self._blocked_on(main, now)
        if blocked is not None:
            level = main.reg_level.get(blocked[1])
            if level == L1:
                return "Exec"  # short L1-hit interlock: pipeline still busy
            if level in STALL_CATEGORY:
                return STALL_CATEGORY[level]
            return "Other"
        return "Other"  # lost fetch slots to other threads, etc.


class ReferenceOOOSimulator(OOOSimulator):
    """Out-of-order model driven by the Instruction-object loop.

    Its per-cycle resource calendars (fetch bundles, issue slots, memory
    ports: cycle -> slots taken), their slot search and their pruning
    are its own, so the oracle does not lean on the loop it checks.
    Like the rest of this loop, they are not part of a snapshot.
    """

    THREAD = _RefOOOThread

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._main_misses: List[int] = []
        self._ref_fetch: Dict[int, int] = {}
        self._ref_issue: Dict[int, int] = {}
        self._ref_port: Dict[int, int] = {}
        self._ref_pops = 0

    def _ref_prune(self, now: int) -> None:
        """Drop calendar entries far in the past (memory bound)."""
        horizon = now - 10_000
        for pool in (self._ref_fetch, self._ref_issue, self._ref_port):
            if len(pool) > 200_000:
                for cycle in [c for c in pool if c < horizon]:
                    del pool[cycle]

    def run(self, checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> SimStats:
        """Reference run loop over :class:`Instruction` objects."""
        program = self.program
        config = self.config
        code = program.code
        stats = self.stats
        if not self._started:
            self._begin()
        # (next_fetch_cycle, tie, thread)
        queue = self._queue
        # Outstanding main-thread misses for CacheExec classification.
        main_misses = self._main_misses
        next_checkpoint = None
        if on_checkpoint is not None and checkpoint_every:
            next_checkpoint = self.cycle + checkpoint_every

        while queue:
            if next_checkpoint is not None and queue[0][0] >= next_checkpoint:
                on_checkpoint(self)
                while next_checkpoint <= queue[0][0]:
                    next_checkpoint += checkpoint_every
            fetch, _, thread = heapq.heappop(queue)
            self._ref_pops += 1
            if self._ref_pops % 50_000 == 0:
                self._ref_prune(fetch)
            # Profiling gate: one int compare per pop when off (see
            # inorder.py).  Pops that bail out below go unsampled; the
            # next real fetch group samples instead.
            prof = None
            if fetch >= self._prof_next:
                prof = self._profiler
                t_prof = prof.begin(fetch)
            state = thread.state
            if (state.tid != 0 and not state.done
                    and config.spec_cycle_budget
                    and fetch - thread.spawn_cycle
                    >= config.spec_cycle_budget):
                # Containment: the context outlived its cycle budget.
                self._budget_kill(state)
            if state.done:
                self._release(self.contexts.index(thread), fetch, False)
                continue
            if self._end_cycle is not None and fetch >= self._end_cycle:
                self._release(self.contexts.index(thread), fetch, False)
                continue
            if fetch >= self.max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {self.max_cycles} cycles")
            is_main = state.tid == 0

            # One fetch group: a bundle of up to 3 instructions.
            fetch = self._take_slot(self._ref_fetch, fetch,
                                    config.bundles_per_cycle)
            next_fetch = fetch + 1
            if prof is not None:
                t_prof = prof.lap("fetch", t_prof)
            for _ in range(config.bundle_size):
                instr = code[state.pc]
                # ROB occupancy: wait for instruction (i - ROB) to retire.
                ring = thread.retire_ring
                if len(ring) == ring.maxlen and ring[0] > fetch:
                    fetch = ring[0]
                    next_fetch = fetch + 1

                # Chaining spawns in speculative threads wait (bounded)
                # for a free context rather than being dropped instantly
                # (see inorder.py).
                if (instr.op == "spawn" and state.tid != 0
                        and None not in self.contexts
                        and thread.spawn_retries < 96):
                    stats.spawn_waits += 1
                    thread.spawn_retries += 1
                    next_fetch = fetch + 16
                    break

                # Runaway-slice containment: instruction budget.
                if state.tid != 0:
                    limit = config.spec_instruction_budget
                    if limit and thread.spec_issued >= limit:
                        state.killed = True
                        stats.budget_kills += 1
                        break
                    thread.spec_issued += 1

                chk_fires = False
                if instr.op == "chk.c":
                    chk_fires = self._chk_gate(instr.uid)
                pc_before = state.pc
                # Inside a recovery stub (fired chk.c, rfi not yet
                # executed): counted separately for the retired-instruction
                # oracle, as in the in-order model.
                in_stub = is_main and bool(state.rfi_stack)
                if prof is not None:
                    t_prof = prof.lap("schedule", t_prof)
                result = execute(program, self.heap, state, instr, chk_fires)
                if prof is not None:
                    t_prof = prof.lap("interp", t_prof)
                if is_main:
                    stats.main_instructions += 1
                    if in_stub:
                        stats.main_stub_instructions += 1
                else:
                    stats.spec_instructions += 1

                start, completion = self._time_instruction(
                    thread, instr, fetch, result.mem_addr, result.executed,
                    is_main)
                retire = self._retire(thread, completion)
                if prof is not None:
                    t_prof = prof.lap("timing", t_prof)

                # Figure 10 accounting (main thread, gap-based).
                if is_main:
                    prev = thread.retire_ring[-2] if len(
                        thread.retire_ring) > 1 else 0
                    gap = retire - prev
                    if instr.op == "ld" and result.mem_addr is not None:
                        level = thread.reg_level.get(instr.dest)
                        if level is not None and level != L1:
                            heapq.heappush(main_misses, completion)
                    if gap > 0:
                        while main_misses and main_misses[0] <= prev:
                            heapq.heappop(main_misses)
                        overlapped = bool(main_misses)
                        stats.charge("CacheExec" if overlapped else "Exec")
                        if gap > 1:
                            cause = self._gap_cause(thread, instr)
                            stats.charge(cause, gap - 1)

                # Control-flow consequences for fetch.
                op = instr.op
                if op == "br.cond":
                    penalty = self.predictor.predict_and_update(
                        pc_before, state.tid, bool(result.taken))
                    if penalty < 0:
                        stats.mispredicts += 1
                        # Resolved at execute; refill afterwards.
                        next_fetch = completion + config.mispredict_penalty
                        break
                    if result.taken:
                        next_fetch = fetch + 1 + penalty
                        break
                elif op in ("br", "br.call", "br.call.ind", "br.ret"):
                    if state.halted:
                        break
                    break
                elif op == "chk.c" and result.chk_taken:
                    stats.chk_fired += 1
                    # Spawning happens at retirement with an exception-like
                    # flush (Section 4.4.1).
                    next_fetch = retire + config.chk_flush_penalty
                    break
                elif op == "chk.c":
                    stats.chk_ignored += 1
                elif op == "spawn" and result.spawn_target is not None:
                    thread.spawn_retries = 0
                    child = self._spawn(state, result.spawn_target, fetch,
                                        retire + config.spawn_startup_latency)
                    if child is not None:
                        self._tie += 1
                        heapq.heappush(queue,
                                       (child.fetch_cycle, self._tie,
                                        child))
                elif op in ("kill", "halt"):
                    break
                if state.done:
                    break

            if prof is not None:
                prof.lap("account", t_prof)
                self._prof_next = prof.sample(fetch, stats,
                                              1 if is_main else 0, False)
            if state.done:
                self._release(self.contexts.index(thread), fetch,
                              not is_main)
                if is_main:
                    self._end_cycle = thread.last_retire
                    stats.cycles = thread.last_retire
                continue
            self._tie += 1
            heapq.heappush(queue, (max(next_fetch, fetch + 1), self._tie,
                                   thread))

        stats.mispredicts = self.predictor.mispredicts
        return stats

    def _take_slot(self, used: Dict[int, int], cycle: int, cap: int) -> int:
        """First cycle >= ``cycle`` with a free slot; takes it."""
        while used.get(cycle, 0) >= cap:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def _time_instruction(self, thread: _OOOThread, instr, fetch: int,
                          mem_addr: Optional[int], executed: bool,
                          is_main: bool) -> Tuple[int, int]:
        """Compute (start, completion) for one fetched instruction."""
        config = self.config
        ready = fetch + 1
        for reg in instr.reads:
            t = thread.reg_complete.get(reg, 0)
            if t > ready:
                ready = t
        # RS: can't enter scheduling until an RS entry frees.
        if len(thread.start_ring) == thread.start_ring.maxlen:
            oldest = thread.start_ring[0]
            if oldest > ready:
                ready = oldest
        start = self._take_slot(self._ref_issue, ready, config.issue_width)
        if instr.is_memory and executed and mem_addr is not None:
            start = self._take_slot(self._ref_port, start,
                                    config.memory_ports)
            if instr.op == "ld":
                completion, level = self.memory.access(
                    mem_addr, start, instr.uid, is_main)
                thread.reg_level[instr.dest] = level
            elif instr.op == "st":
                self.memory.access(mem_addr, start, instr.uid, is_main,
                                   is_store=True)
                completion = start + 1
            else:  # lfetch
                self.memory.access(mem_addr, start, instr.uid, is_main,
                                   is_prefetch=True)
                completion = start + 1
        else:
            if instr.op == "lfetch" and (mem_addr is None or not executed):
                self.memory.prefetches_dropped += 1
            completion = start + (instr.fixed_latency() if executed else 1)
        thread.start_ring.append(start)
        if instr.dest is not None and executed:
            thread.reg_complete[instr.dest] = completion
            if instr.op != "ld":
                thread.reg_level[instr.dest] = None
        return start, completion

    def _retire(self, thread: _OOOThread, completion: int) -> int:
        """In-order retirement, bounded by retire bandwidth."""
        retire = max(completion, thread.last_retire)
        ring = thread.retire_ring
        # Retire width == issue width: instruction i cannot retire in the
        # same cycle as instruction i - width.
        width = self.config.issue_width
        if thread.retire_count >= width:
            # ring holds up to ROB entries; the width-th most recent is a
            # cheap lower bound for bandwidth-limited retirement.
            if len(ring) >= width and ring[-width] >= retire:
                retire = ring[-width] + 1
        ring.append(retire)
        thread.last_retire = retire
        thread.retire_count += 1
        return retire

    def _gap_cause(self, thread: _OOOThread, instr) -> str:
        """Attribute a retire gap to a Figure 10 category."""
        if instr.op == "ld":
            level = thread.reg_level.get(instr.dest)
            if level is not None and level in STALL_CATEGORY:
                return STALL_CATEGORY[level]
            return "Exec"
        # Waiting on a source produced by a load?
        worst_level, worst_t = None, -1
        for reg in instr.reads:
            t = thread.reg_complete.get(reg, 0)
            if t > worst_t:
                worst_t = t
                worst_level = thread.reg_level.get(reg)
        if worst_level is not None and worst_level in STALL_CATEGORY:
            return STALL_CATEGORY[worst_level]
        if instr.is_branch:
            return "Other"
        return "Exec"
