"""Compiled issue groups: the in-order main thread's stretch, rendered once.

While the main thread is the only live context, the in-order model runs
it cycle after cycle (a *stretch*, :meth:`InOrderSimulator.run`).  Much
of that work is fixed by the program: which unit an instruction takes,
whether the cycle's group is full, whether a source was written earlier
in the same cycle, which timing its kind gets.  This module lifts a
program, once, into Python source with those decisions folded away, the
way a binary translator recompiles a binary for its host.

A **group** is what the main thread issues in one cycle starting at a
given pc, with every unit free.  It is cut statically at the issue width,
at the unit counts, at a read of a register written unconditionally
earlier in the group (its value is at least a cycle away, so the read
always stalls) and after the kinds that end a fetch group.  What stays
dynamic is the scoreboard test against writes from earlier cycles, the
branch outcome and the memory latency.  Each instruction's semantics
are :func:`repro.isa.decode.inline`'s rendering of the one semantics
table, with its operands as literal slots and constants; memory goes
through ``MemorySystem.access``, and ``br.cond``, ``chk.c``, ``spawn``
and ``br.call.ind`` call the predictor, ``_chk_gate``, ``_spawn`` and
``_note_indirect`` exactly as the interpreted issue does.

Each group is one small function.  It begins with the selection of its
own first instruction (the wait for its slow sources and the Figure 10
charge of a stall cycle, with the sources known statically), issues, and
returns the group of the next cycle: a static pc's group directly, a
return's or indirect call's through the table.  A register only ever
written with latency 1 is ready one cycle after any write, so only reads
of *slow* registers (written by a load or a longer-latency operation)
and of registers written under a predicate earlier in the group are
tested at all.

The code leaves the stretch, returning to the interpreted loop, where a
group cannot go on: a spawn, a halt or kill, a fired ``chk.c`` (its
recovery stub runs interpreted), a pc with no group, or the stretch's
deadline.  Everything it leaves behind — statistics, scoreboards, the
issue counts, the thread's wake and stall marks — is what the
interpreted stretch would leave, so results, snapshots and checkpoints
are byte-identical whichever path ran.

Nothing imports this module but the in-order model, when a run first
reaches its compile threshold.
"""

from __future__ import annotations

import functools
from heapq import heappush
from types import CellType, CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..isa.decode import (
    D_DEST,
    D_LAT,
    D_READS,
    D_RES,
    D_UID,
    K_BR,
    K_BRC,
    K_CALL,
    K_CALLI,
    K_CHK,
    K_HALT,
    K_KILL,
    K_LD,
    K_LFETCH,
    K_LIBLD,
    K_RET,
    K_RFI,
    K_SPAWN,
    K_ST,
    HELPERS,
    OPERATIONS,
    RES_BR,
    RES_INT,
    RES_MEM,
    Decoded,
    inline,
)
from ..isa.program import Program
from .caches import L1
from .config import MachineConfig
from .stats import STALL_CATEGORY

#: What the groups and ``stretch`` share, as cells of one run: the
#: stretch's running state, then what the run binds once.
_STATE = ("now", "k", "w0", "bound", "horizon", "limit", "have_spec",
          "n_stalls", "rd")
_BOUND = ("state", "preds", "ready", "levels", "heap", "words", "hsize",
          "memory", "access", "stats", "breakdown", "counts", "predict",
          "chk_gate", "note_indirect", "spawn", "deadlines", "trace",
          "thread", "groups", "pause")

#: A group assigns these.
_NONLOCAL = "        nonlocal now, k, w0, bound, horizon, have_spec"

#: The two functions every program's groups share.
_SHARED = """\
    def pause(nxt, worst, wr, pc):
        # The selection at nxt of the group at pc, when it may not simply
        # issue: the wake is the later of w0 and worst, the latest of the
        # slow sources (the first of them, wr).  Returns the cycle to issue
        # at, a stall cycle before it charged with the cycles it skips (to
        # the level wr waits on, or "Other"); at the stretch's limit,
        # leaves it there.
        nonlocal n_stalls
        wake = w0 if w0 > worst else worst
        if wake <= nxt:
            if nxt < limit:
                return nxt
        elif wake < limit:
            if worst > nxt and thread.stall_until <= nxt:
                breakdown[STALL_OF.get(levels[wr], "Other")] += wake - nxt
            else:
                breakdown["Other"] += wake - nxt
            n_stalls += 1
            return wake
        state.pc = pc
        raise Leave

    def stretch(now0, bound0, horizon0, limit0):
        # Issue from cycle now0, which the caller selected, until the
        # stretch leaves.  Returns None when not even now0 was issued,
        # else the last issued cycle, its issue count, the counts of the
        # cycles before it, the scoreboard bound, miss horizon and spawn
        # flag.  Each cycle but the last is accounted here; the caller
        # accounts the last.
        nonlocal now, k, w0, bound, horizon, limit, have_spec, n_stalls, rd
        g = groups[state.pc]
        if g is None:
            return None
        rd = state.regs
        now = now0 - 1
        k = n_stalls = 0
        w0 = -1
        bound = bound0
        horizon = horizon0
        limit = limit0
        have_spec = False
        n_issued = n_exec = n_cache_exec = 0
        try:
            while True:
                g = g()
                if g is None:
                    break
                if horizon > now:
                    n_cache_exec += 1
                else:
                    n_exec += 1
                n_issued += k
        except Leave:
            # Left before issuing at all, or at the selection after the
            # last issued cycle, whose accounting is the caller's.
            if not k:
                return None
            if horizon > now:
                n_cache_exec -= 1
            else:
                n_exec -= 1
            n_issued -= k
        if w0 >= 0:
            thread.wake = w0
        return (now, k, n_issued, n_exec, n_cache_exec, n_stalls, bound,
                horizon, have_spec)
"""


#: Source lines compiled at a time: a compile's memory grows with its
#: source, a compile call costs about as much as 3 lines.
_UNIT_LINES = 200


class _Leave(Exception):
    """Raised by a group's selection to leave the stretch."""


def _unit(source: str, names: Sequence[str]) -> Dict[str, CodeType]:
    """Compile ``source`` (functions at one indentation level, over the
    free ``names``) as its own unit; the code of each function."""
    outer = ("def outer():\n    " + " = ".join(names) + " = None\n"
             + source + "\n    return locals()\n")
    namespace: Dict[str, object] = {}
    exec(compile(outer, "<issue groups>", "exec"), namespace)
    return {name: fn.__code__ for name, fn in namespace["outer"]().items()
            if isinstance(fn, FunctionType)}


@functools.lru_cache(maxsize=None)
def _shared() -> Dict[str, CodeType]:
    """The code of ``pause`` and ``stretch``, compiled once."""
    return _unit(_SHARED, _STATE + _BOUND)


class _Writer:
    """Source lines at an indentation."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 1

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)


class _Compiler:
    """Renders one program's groups (see the module docstring)."""

    def __init__(self, program: Program, decoded: Decoded,
                 config: MachineConfig):
        self.table = decoded.table
        self.ops = decoded.ops
        self.config = config
        self.units = {RES_INT: config.int_units, RES_MEM: config.memory_ports,
                      RES_BR: config.branch_units}
        # Slots a register write can leave pending past the next cycle,
        # and the slots a load writes (whose supplying level is kept).
        self.slow: Set[int] = set()
        self.loaded: Set[int] = set()
        for d in self.table:
            if d[0] == K_LD:
                self.slow.add(d[D_DEST])
                self.loaded.add(d[D_DEST])
            elif d[D_DEST] is not None and d[D_LAT] > 1:
                self.slow.add(d[D_DEST])
        self.entries = sorted(program.function_entry.values())
        self.root = program.function_entry[program.entry]

    def compile_groups(self, roots: Sequence[int] = ()) -> List[CodeType]:
        """The code of the group of every cycle start the main thread can
        reach from its entry (or ``roots``) without a fired ``chk.c``: a
        group's exits name the next starts, a call adds its return point
        and an indirect call every function entry.  Recovery stubs and
        p-slices get none.  Groups are compiled in units of about
        ``_UNIT_LINES`` lines, which bounds the compiler's memory."""
        codes: List[CodeType] = []
        n = len(self.table)
        todo = list(roots) or [self.root]
        rendered: Set[int] = set()
        lines: List[str] = []
        names: Set[str] = set()

        def flush():
            source = "\n".join(lines)
            codes.extend(_unit(source, [
                name for name in _STATE + _BOUND if name in source]
                + sorted(names)).values())
            lines.clear()
            names.clear()

        while todo:
            pc = todo.pop()
            if pc in rendered or not 0 <= pc < n:
                continue
            rendered.add(pc)
            self.next_starts: List[int] = []
            lines += self.group(pc)
            names.update(f"g{start}" for start in self.next_starts)
            todo.extend(self.next_starts)
            if len(lines) >= _UNIT_LINES:
                flush()
        if lines:
            flush()
        return codes

    # -- one group ------------------------------------------------------------

    def group(self, start: int) -> List[str]:
        emit = _Writer()
        emit.depth = 2
        self.prologue(emit, start)
        self.emit = emit
        # Static state of the group as it is rendered: instructions issued,
        # free units, slots written unconditionally / under a predicate,
        # the longest fixed latency written unconditionally (the bound
        # update every exit makes) and whether a spawn was issued.
        self.issued = 0
        units = dict(self.units)
        self.uncond: Set[int] = set()
        self.cond: Set[int] = set()
        self.lat = 0
        # The latency the bound is already updated for, inline while no
        # exit precedes the write, and the exits rendered so far.
        self.covered = self.exits = 0
        self.spawned = False
        # Whether a br.ret is rendered: its new register window becomes
        # the stretch's ``rd``.
        self.returns = False
        # Slots known ready at this cycle: the first instruction's slow
        # sources (its selection waited for them) and each source a
        # scoreboard test has passed, until the group writes them.
        known = set(self.table[start][D_READS])
        pc = start
        n = len(self.table)
        while True:
            if pc >= n or self.issued == self.config.issue_width:
                self.exit(pc)
                break
            d = self.table[pc]
            reads = list(dict.fromkeys(d[D_READS]))
            if self.issued:
                if any(r in self.uncond for r in reads):
                    self.stall_exit(pc, [r for r in reads
                                         if r in self.uncond or r in self.cond
                                         or r in self.slow])
                    break
                dyn = [r for r in reads if r not in known
                       and (r in self.cond or r in self.slow)]
                if len(dyn) == 1:
                    emit(f"if (t := ready[{dyn[0]}]) > c:")
                    emit.depth += 1
                    self.exit(pc, wake="t")
                    emit.depth -= 1
                elif dyn:
                    emit("if " + " or ".join(f"ready[{r}] > c" for r in dyn)
                         + ":")
                    emit.depth += 1
                    self.stall_exit(pc, dyn)
                    emit.depth -= 1
                known.update(dyn)
            res = d[D_RES]
            if units[res] == 0:
                self.exit(pc, wake="c + 1")
                break
            units[res] -= 1
            if not self.instruction(pc, d):
                break
            known.discard(d[D_DEST])
            pc += 1
        nonlocal_ = _NONLOCAL + (", rd" if self.returns else "")
        return [f"    def g{start}():", nonlocal_] + emit.lines

    def prologue(self, emit: _Writer, pc: int) -> None:
        """Select the group's first instruction at ``now + 1``: when one
        of its slow sources or the wake the last exit left in ``w0`` is
        later, or the stretch's limit is reached, ``pause`` charges the
        stall or leaves; then move the clock."""
        slow = [r for r in dict.fromkeys(self.table[pc][D_READS])
                if r in self.slow]
        emit("nxt = now + 1")
        emit("if " + "".join(f"ready[{r}] > nxt or " for r in slow)
             + "w0 > nxt or nxt >= limit:")
        if len(slow) > 1:
            emit(f"    worst = ready[{slow[0]}]")
            emit(f"    wr = {slow[0]}")
            for r in slow[1:]:
                emit(f"    if ready[{r}] > worst: "
                     f"worst = ready[{r}]; wr = {r}")
            emit(f"    nxt = pause(nxt, worst, wr, {pc})")
        elif slow:
            emit(f"    nxt = pause(nxt, ready[{slow[0]}], {slow[0]}, {pc})")
        else:
            emit(f"    nxt = pause(nxt, 0, 0, {pc})")
        emit("now = c = nxt")

    # -- exits ----------------------------------------------------------------

    def exit(self, pc=None, wake=None, stall_until=False, leave=False,
             pc_set=False) -> None:
        """End the group: ``pc`` is the static next pc (None: the state's
        pc is already the next one).  ``wake`` is the thread's wake mark
        when the exit sets one (with its stall mark too when
        ``stall_until``); ``leave`` ends the stretch."""
        emit = self.emit
        self.exits += 1
        if self.lat > self.covered:
            emit(f"if c + {self.lat} > bound: bound = c + {self.lat}")
        # A static next pc is its group's to know; the state's pc is set
        # only where the stretch may leave.
        static = pc is not None and pc < len(self.table) and not leave
        if pc is not None and not pc_set and (not static or self.spawned):
            emit(f"state.pc = {pc}")
        emit(f"k = {self.issued}")
        if wake is not None:
            # w0 is the thread's wake mark while the stretch runs (the
            # stretch stores it on leaving) and carries it into the next
            # selection.
            emit(f"thread.stall_until = w0 = {wake}" if stall_until
                 else f"w0 = {wake}")
        if self.spawned:
            emit("if have_spec: return None")
        if leave:
            emit("return None")
        elif pc is None:
            emit("return groups[state.pc]")
        elif static:
            self.next_starts.append(pc)
            emit(f"return g{pc}")
        else:
            emit("return None")

    def stall_exit(self, pc: int, regs: List[int]) -> None:
        """A scoreboard stall at ``pc``: the wake is its latest source."""
        worst = f"ready[{regs[0]}]" if len(regs) == 1 else \
            "max(" + ", ".join(f"ready[{r}]" for r in regs) + ")"
        self.exit(pc, wake=worst)

    # -- one instruction ------------------------------------------------------

    def instruction(self, pc: int, d) -> bool:
        """Render the instruction at ``pc``; False when it ends the group
        (its exits are rendered)."""
        emit = self.emit
        ops = self.ops[pc]
        kind = ops.kind
        body, result = inline(ops)
        uid = d[D_UID]
        config = self.config
        if kind == K_CHK:
            emit(f"fire = chk_gate({uid})")
        elif kind == K_CALLI:
            emit(f"fid0 = rd[{ops.a}]")
        emit(f"counts[{pc}] += 1")
        self.issued += 1
        nxt = pc + 1
        pred = ops.p

        def guarded(then: Callable[[], None],
                    otherwise: Callable[[], None] = None) -> None:
            """The executed form under the predicate, then the squashed
            one, if any."""
            if pred:
                emit(f"if preds[{pred}]:")
                emit.depth += 1
            for line in body.splitlines():
                emit(line)
            then()
            if pred:
                emit.depth -= 1
                if otherwise is not None:
                    emit("else:")
                    emit.depth += 1
                    otherwise()
                    emit.depth -= 1

        dest = d[D_DEST]
        if kind <= K_LIBLD:                      # fixed-latency writes
            lat = d[D_LAT]

            def write():
                if pred:
                    emit(f"t = c + {lat}")
                    emit(f"ready[{dest}] = t")
                    emit("if t > bound: bound = t")
                else:
                    emit(f"ready[{dest}] = c + {lat}")
                if dest in self.loaded:
                    emit(f"levels[{dest}] = None")
            guarded(write)
            if pred:
                self.cond.add(dest)
            else:
                self.uncond.add(dest)
                self.lat = max(self.lat, lat)
                if not self.exits and lat > self.covered:
                    emit(f"if c + {lat} > bound: bound = c + {lat}")
                    self.covered = lat
            return True

        if kind == K_LD:
            def load():
                emit(f"ready[{dest}], levels[{dest}] = t, level = "
                     f"access({result}, c, {uid}, True)")
                emit(f"if level != {L1!r} and t > horizon: horizon = t")
                emit("if t > bound: bound = t")

            def squashed_load():
                emit(f"ready[{dest}] = c + 1")
                emit("if c + 1 > bound: bound = c + 1")
                emit(f"levels[{dest}] = None")
            guarded(load, squashed_load)
            self.uncond.add(dest)
            return True

        if kind == K_ST:
            guarded(lambda: emit(
                f"access({result}, c, {uid}, True, False, True)"))
            return True

        if kind == K_LFETCH:
            def prefetch():
                emit(f"if {result}: access({result}, c, {uid}, True, True)")
                emit("else: memory.prefetches_dropped += 1")
            guarded(prefetch,
                    lambda: emit("memory.prefetches_dropped += 1"))
            return True

        if kind == K_BRC:
            target = ops.target
            penalty = config.mispredict_penalty

            def branch(taken: bool) -> None:
                to = target if taken else nxt
                emit(f"penalty = predict({pc}, state.tid, {taken})")
                emit("if penalty < 0:")
                emit.depth += 1
                emit("stats.mispredicts += 1")
                self.exit(to, wake=f"c + {1 + penalty}", stall_until=True,
                          pc_set=taken)
                emit.depth -= 1
                if taken:
                    emit("if penalty > 0:")
                    emit.depth += 1
                    self.exit(to, wake="c + 1 + penalty", stall_until=True,
                              pc_set=True)
                    emit.depth -= 1
                    self.exit(to, pc_set=True)

            guarded(lambda: branch(True), lambda: branch(False))
            return bool(pred)           # a squashed br.cond falls through

        if kind == K_CHK:
            def check():
                emit(f"if {result}:")
                emit.depth += 1
                emit("stats.chk_fired += 1")
                emit("if trace is not None: "
                     f"trace.note(c, 'chk_fired', uid={uid})")
                # The recovery stub runs interpreted.
                self.exit(wake=f"c + {config.chk_flush_penalty}",
                          stall_until=True, leave=True)
                emit.depth -= 1
                emit("stats.chk_ignored += 1")
            guarded(check, lambda: emit("stats.chk_ignored += 1"))
            return True

        if kind == K_SPAWN:
            def fork():
                emit(f"start = c + {config.spawn_startup_latency}")
                emit(f"if spawn(state, {result}, c, start) is not None:")
                emit("    have_spec = True")
                if config.spec_cycle_budget:
                    emit("    heappush(deadlines, start + "
                         f"{config.spec_cycle_budget})")
            guarded(fork)
            self.spawned = True
            return True

        if kind == K_RFI:
            # A stretch runs with no recovery pending, so an executed rfi
            # raises; were one pending, the stretch would leave at its
            # target.  A squashed rfi does not end the fetch group.
            guarded(lambda: self.exit(leave=True))
            return bool(pred)

        if kind in (K_BR, K_CALL, K_CALLI, K_RET, K_KILL, K_HALT):
            def taken():
                if kind == K_BR or kind == K_CALL:
                    self.exit(ops.target, pc_set=True)
                elif kind == K_CALLI:
                    emit(f"note_indirect({uid}, fid0)")
                    self.exit()
                    self.next_starts.extend(self.entries)
                elif kind == K_RET:
                    emit("rd = state.regs")
                    self.returns = True
                    emit("if state.halted:")
                    emit.depth += 1
                    self.exit(pc, leave=True)
                    emit.depth -= 1
                    self.exit()
                else:
                    # kill and halt leave the pc where it is.
                    self.exit(pc, leave=True)
            guarded(taken, lambda: self.exit(nxt))
            if kind == K_CALL or kind == K_CALLI:
                self.next_starts.append(nxt)         # the return point
            return False

        # lib.st and nop: no timing of their own.
        if body:
            guarded(lambda: None)
        return True


class Compiled:
    """One program's groups, compiled for one machine shape."""

    __slots__ = ("namespace", "groups")

    def __init__(self, namespace: Dict[str, object],
                 groups: List[CodeType]):
        #: The globals the groups run in.
        self.namespace = namespace
        #: The code of each group, ``g<pc>``.
        self.groups = groups

    def bind(self, sim, thread) -> Callable:
        """The ``stretch`` of one run of ``sim``, its main thread
        ``thread``: the groups made functions over one set of cells.
        ``stretch.release()`` breaks the cycles the groups form through
        those cells, so the run's objects go when it ends."""
        state = thread.state
        heap = sim.heap
        memory = sim.memory
        stats = sim.stats
        table: List[Optional[Callable]] = [None] * len(sim._dcode)
        cells = {name: CellType(0) for name in _STATE}
        cells["have_spec"] = CellType(False)
        for name, value in (
                ("state", state), ("preds", state.preds),
                ("ready", thread.reg_ready),
                ("levels", thread.reg_level), ("heap", heap),
                ("words", heap._words), ("hsize", heap.size),
                ("memory", memory), ("access", memory.access),
                ("stats", stats), ("breakdown", stats.cycle_breakdown),
                ("counts", sim._issue_counts),
                ("predict", sim.predictor.predict_and_update),
                ("chk_gate", sim._chk_gate),
                ("note_indirect", sim._note_indirect),
                ("spawn", sim._spawn), ("deadlines", sim._spec_deadlines),
                ("trace", sim.trace), ("thread", thread), ("groups", table),
                ("pause", None)):
            cells[name] = CellType(value)
        namespace = self.namespace

        def function(code: CodeType) -> Callable:
            return FunctionType(code, namespace, code.co_name, None, tuple(
                cells.setdefault(name, CellType()) for name in
                code.co_freevars))

        shared = _shared()
        cells["pause"].cell_contents = function(shared["pause"])
        stretch = function(shared["stretch"])
        linked = []
        for code in self.groups:
            fn = table[int(code.co_name[1:])] = function(code)
            linked.append(cells.setdefault(code.co_name, CellType()))
            linked[-1].cell_contents = fn

        def release() -> None:
            for cell in linked:
                cell.cell_contents = None
            table.clear()

        stretch.release = release
        return stretch


def render(program: Program, decoded: Decoded, config: MachineConfig,
           roots: Sequence[int] = ()) -> Compiled:
    """Compile ``program``'s groups on ``config``, from ``roots`` (by
    default its entry)."""
    namespace: Dict[str, object] = {
        **OPERATIONS, **HELPERS, "STALL_OF": {**STALL_CATEGORY, L1: "Exec"},
        "Leave": _Leave,
        "heappush": heappush, "code": program.code,
        "entries": tuple(program.function_entry[name]
                         for name in program.function_by_id)}
    return Compiled(namespace,
                    _Compiler(program, decoded, config).compile_groups(roots))


def compile_stretch(program: Program, decoded: Decoded,
                    config: MachineConfig) -> Compiled:
    """:func:`render`'s groups, compiled once per decode and machine
    shape."""
    key = (config.issue_width, config.int_units, config.memory_ports,
           config.branch_units, config.mispredict_penalty,
           config.chk_flush_penalty, config.spawn_startup_latency,
           config.spec_cycle_budget)
    compiled = decoded.compiled.get(key)
    if compiled is None:
        compiled = decoded.compiled[key] = render(program, decoded, config)
    return compiled
