"""SSP-enabled code generation (Section 3.4.2, Figure 7).

The emitter takes the original binary, the scheduled slices and their
trigger points, and produces the adapted binary:

* each trigger becomes a ``chk.c`` — replacing a nop in the trigger block
  when one is available (the paper's binary adaptation replaces a nop
  slot), otherwise inserted;
* a *stub block* per slice is appended after the trigger's function: it
  copies live-ins to the buffer, spawns the slice, and returns to the
  interrupted instruction (``rfi``);
* a *slice block* holds the p-slice: live-in copy-out, the (optional)
  predicted-condition kill guard, the critical sub-slice, the chain
  spawn with its live-in re-fill (chaining SP only), the non-critical
  sub-slice with delinquent loads converted to prefetches, and a final
  ``kill``.

Invariants enforced: a slice block never contains a store; instructions
whose qualifying predicate is not computed inside the slice are pruned
(speculative slices tolerate dropped code, not wrong main-thread state).
:meth:`SSPEmitter.finalize` holds the result against the Figure 7 rules
of :func:`repro.check.lint.verify_adapted_binary` before it ships.

Callees invoked from inside a slice body are cloned into store-free
speculative versions ("the tool can form a slice block by extracting
instructions from various procedures") so a speculative thread can never
write memory, no matter what it calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..guard import faultinject
from ..isa import registers as regs
from ..isa.instructions import Instruction
from ..isa.program import Function, Program
from ..obs.tracer import Tracer, ensure_tracer
from ..scheduling.schedule import CHAINING, ScheduledSlice
from ..triggers.placement import TriggerPoint
from .liveins import LiveInLayout

#: Suffix for store-free speculative clones of callee functions.
SPEC_CLONE_SUFFIX = ".sspclone"
#: Label prefix of the stub blocks ``chk.c`` triggers jump to.
STUB_PREFIX = ".ssp_stub"
#: Label prefix of slice blocks; ``<slice>.<suffix>`` continues a slice.
SLICE_PREFIX = ".ssp_slice"


class SliceRecord:
    """Per-slice emission record (the Table 2 row material)."""

    def __init__(self, scheduled: ScheduledSlice, stub_label: str,
                 slice_label: str, triggers: List[TriggerPoint],
                 emitted_size: int):
        self.scheduled = scheduled
        self.stub_label = stub_label
        self.slice_label = slice_label
        self.triggers = triggers
        self.emitted_size = emitted_size

    @property
    def kind(self) -> str:
        return self.scheduled.kind

    @property
    def interprocedural(self) -> bool:
        return self.scheduled.region_slice.slice.interprocedural

    @property
    def num_live_ins(self) -> int:
        return len(self.scheduled.live_ins)


class AdaptedBinary:
    """The emitter's output: the SSP-enhanced program plus its records."""

    def __init__(self, program: Program, records: List[SliceRecord]):
        self.program = program
        self.records = records


class EmitError(Exception):
    """Raised when a slice cannot be emitted soundly."""


class SSPEmitter:
    """Generates the SSP-enhanced binary."""

    def __init__(self, program: Program, tracer: Optional[Tracer] = None):
        #: The original binary (left untouched).
        self.original = program
        #: The adapted clone (instruction uids preserved for main code).
        self.program = program.clone()
        self.tracer = ensure_tracer(tracer)
        self._counter = 0
        self._cloned_callees: Dict[str, str] = {}
        self.records: List[SliceRecord] = []
        #: Trigger insertions per block, applied sorted to keep indices
        #: valid.  Each entry carries the slice's delinquent-load uids and
        #: live-in registers so the nop-slot search can honour placement
        #: legality (see :meth:`_nearby_nop`).
        self._pending_triggers: Dict[
            Tuple[str, str],
            List[Tuple[int, str, frozenset, frozenset]]] = {}

    # -- public API --------------------------------------------------------------------

    def add_slice(self, scheduled: ScheduledSlice,
                  triggers: List[TriggerPoint]) -> SliceRecord:
        """Attach one scheduled slice and queue its triggers."""
        self._counter += 1
        n = self._counter
        func_name = scheduled.region_slice.region.function
        func = self.program.function(func_name)
        stub_label = f"{STUB_PREFIX}{n}"
        slice_label = f"{SLICE_PREFIX}{n}"

        layout = LiveInLayout(scheduled.live_ins)
        stub = func.add_block(stub_label)
        for instr in layout.copy_in_code():
            stub.append(instr)
        stub.append(Instruction(op="spawn", target=slice_label))
        stub.append(Instruction(op="rfi"))

        slice_block = func.add_block(slice_label)
        emitted = self._emit_slice_body(func, slice_block, scheduled,
                                        layout, slice_label)

        delinquents = frozenset(scheduled.region_slice.delinquent_uids)
        live_ins = frozenset(layout.registers)
        for point in triggers:
            key = (point.function, point.block)
            self._pending_triggers.setdefault(key, []).append(
                (point.index, stub_label, delinquents, live_ins))

        record = SliceRecord(scheduled, stub_label, slice_label,
                             list(triggers), emitted)
        self.records.append(record)
        self.tracer.counter("codegen.slices_emitted").add()
        self.tracer.counter("codegen.instructions_emitted").add(emitted)
        self.tracer.event("emit_slice", category="codegen",
                          slice_label=slice_label, kind=scheduled.kind,
                          emitted=emitted, triggers=len(triggers),
                          live_ins=len(scheduled.live_ins))
        return record

    def finalize(self) -> AdaptedBinary:
        """Apply triggers, verify, finalise and return the new binary."""
        self._apply_triggers()
        from ..check.lint import verify_adapted_binary
        verify_adapted_binary(self.program)
        self.program.finalize()
        return AdaptedBinary(self.program, self.records)

    # -- slice body -----------------------------------------------------------------------

    #: Spin-retry budget for a chase load racing its producer (a chained
    #: consumer can briefly outrun the main thread, e.g. a BFS queue).
    CHASE_RETRY_BUDGET = 256

    def _emit_slice_body(self, func: Function, block,
                         scheduled: ScheduledSlice,
                         layout: LiveInLayout, slice_label: str) -> int:
        current = [block]  # mutable current-block holder

        def append(instr: Instruction) -> None:
            current[0].append(instr)

        for instr in layout.copy_out_code():
            append(instr)

        if scheduled.guard is not None:
            guard = scheduled.guard
            kill_pred = "p63"  # reserved in generated code
            srcs = (guard.reg,) if guard.other_reg is None else \
                (guard.reg, guard.other_reg)
            append(Instruction(op="cmp", dest=kill_pred, srcs=srcs,
                               imm=guard.immediate,
                               relation=guard.relation))
            append(Instruction(op="kill", pred=kill_pred))

        defined: Set[str] = set(layout.registers) | {regs.ZERO}
        emitted = 0
        delinquents = scheduled.region_slice.delinquent_uids
        body_uids = {i.uid for i in scheduled.ordered}

        def emit_chase_retry(load_clone: Instruction) -> None:
            """Bounded spin on a chase load racing its producer: re-poll
            until the value is non-null, kill when the budget runs out
            (the traversal genuinely ended)."""
            retry_label = f"{slice_label}.retry"
            done_label = f"{slice_label}.go"
            self.tracer.counter("codegen.chase_retry_loops").add()
            append(Instruction(op="mov", dest="r59",
                               imm=self.CHASE_RETRY_BUDGET))
            retry_block = func.add_block(retry_label)
            current[0] = retry_block
            append(load_clone)
            append(Instruction(op="cmp", dest="p61",
                               srcs=(load_clone.dest,), imm=0,
                               relation="ne"))
            append(Instruction(op="br.cond", pred="p61",
                               target=done_label))
            append(Instruction(op="sub", dest="r59", srcs=("r59",), imm=1))
            append(Instruction(op="cmp", dest="p60", srcs=("r59",), imm=0,
                               relation="gt"))
            append(Instruction(op="br.cond", pred="p60",
                               target=retry_label))
            append(Instruction(op="kill"))
            current[0] = func.add_block(done_label)

        def emit_one(instr: Instruction) -> None:
            nonlocal emitted
            if instr.is_store:
                raise EmitError(f"store {instr} reached slice emission")
            if instr.pred is not None and instr.pred not in defined and \
                    instr.pred != regs.TRUE_PREDICATE:
                return  # predicate unavailable: prune speculatively
            clone = instr.copy()
            if clone.op == "ld" and instr.uid in delinquents:
                # Whether converted to an lfetch or kept as a real load (a
                # chase load whose value feeds the slice), the clone's
                # accesses prefetch for the original delinquent load.
                if self._value_unused(instr, scheduled, body_uids):
                    clone = Instruction(op="lfetch", srcs=clone.srcs,
                                        imm=clone.imm, pred=clone.pred)
                    self.tracer.counter("codegen.lfetch_conversions").add()
                else:
                    self.tracer.counter("codegen.chase_loads_kept").add()
                self.program.prefetch_sources[clone.uid] = instr.uid
            if clone.op in ("br.call", "br.call.ind"):
                clone = self._retarget_call(clone)
            if instr.uid == scheduled.kill_after_uid and \
                    clone.op == "ld" and clone.dest is not None:
                emit_chase_retry(clone)
                emitted += 1
                defined.add(clone.dest)
                return
            append(clone)
            emitted += 1
            if instr.dest is not None:
                defined.add(instr.dest)
            if clone.op == "br.call":
                defined.add(regs.RET_VALUE)

        for instr in scheduled.critical:
            emit_one(instr)

        if scheduled.kind == CHAINING:
            for copy_instr in layout.copy_in_code():
                append(copy_instr)
            append(Instruction(op="spawn", target=slice_label,
                               pred=scheduled.spawn_pred))

        for instr in scheduled.noncritical:
            emit_one(instr)

        for reg, offset in scheduled.extra_prefetches:
            if reg in defined:
                extra = Instruction(op="lfetch", srcs=(reg,), imm=offset)
                self.program.prefetch_sources[extra.uid] = \
                    scheduled.load.uid
                append(extra)
                emitted += 1
                self.tracer.counter(
                    "codegen.context_substituted_prefetches").add()

        if faultinject.fires("codegen.invalid_program"):
            # Chaos harness: a store inside a p-slice violates the core
            # invariant and must be caught by validation, never shipped.
            append(Instruction(op="st", srcs=(regs.ZERO, regs.ZERO)))

        append(Instruction(op="kill"))
        return emitted

    def _value_unused(self, instr: Instruction, scheduled: ScheduledSlice,
                      body_uids: Set[int]) -> bool:
        if any(instr.dest == reg for reg, _ in scheduled.extra_prefetches):
            return False  # feeds a recursive-context prefetch
        dg = scheduled.region_slice.dg
        for edge in dg.succs(instr.uid, kinds={"flow"}):
            if edge.dst in body_uids and edge.dst != instr.uid:
                return False
        return True

    # -- speculative callee clones ----------------------------------------------------------

    def _retarget_call(self, call: Instruction) -> Instruction:
        """Point in-slice calls at store-free speculative clones."""
        if call.op != "br.call":
            return call  # indirect: left as-is; targets were profiled
        clone_name = self._speculative_clone(call.target)
        call.target = clone_name
        return call

    def _speculative_clone(self, name: str) -> str:
        if name.endswith(SPEC_CLONE_SUFFIX):
            return name
        if name in self._cloned_callees:
            return self._cloned_callees[name]
        clone_name = name + SPEC_CLONE_SUFFIX
        self._cloned_callees[name] = clone_name
        self.tracer.counter("codegen.callee_clones").add()
        source = self.program.function(name)
        clone = self.program.add_function(clone_name, source.num_params)
        for block in source.blocks:
            new_block = clone.add_block(block.label)
            for instr in block.instrs:
                if instr.is_store:
                    continue  # store-free speculative version
                dup = instr.copy()
                if dup.op == "br.call":
                    dup.target = self._speculative_clone(dup.target)
                new_block.append(dup)
        return clone_name

    # -- triggers ------------------------------------------------------------------------------

    def _apply_triggers(self) -> None:
        for (func_name, label), entries in self._pending_triggers.items():
            func = self.program.function(func_name)
            block = func.block(label)
            # Descending index order keeps earlier indices valid.
            for index, stub_label, delinquents, live_ins in sorted(
                    entries, reverse=True):
                nop_at = self._nearby_nop(block, index, delinquents,
                                          live_ins)
                chk = Instruction(op="chk.c", target=stub_label)
                if nop_at is not None:
                    block.instrs[nop_at] = chk
                    self.tracer.counter(
                        "codegen.triggers_in_nop_slots").add()
                else:
                    block.instrs.insert(index, chk)
                    self.tracer.counter("codegen.triggers_inserted").add()

    def _nearby_nop(self, block, index: int, delinquents: frozenset,
                    live_ins: frozenset, window: int = 2) -> Optional[int]:
        """A *legal* nop slot at/near the trigger index, if any.

        Displacing the trigger from the placement policy's chosen index is
        only sound while two constraints hold.  Forward (later in the
        block), the ``chk.c`` must not move past one of the slice's
        delinquent loads — the trigger has to dominate the loads it
        prefetches for, or the very miss it targets retires before the
        slice is spawned.  Backward (earlier), it must not move above an
        instruction that defines one of the slice's live-in registers —
        the stub snapshots those registers when the trigger fires, and
        hoisting the snapshot above a producer captures a stale value and
        sends the p-slice down the wrong pointer chain.
        """
        for offset in range(window + 1):
            for candidate in (index + offset, index - offset):
                if not 0 <= candidate < len(block.instrs):
                    continue
                if block.instrs[candidate].op != "nop":
                    continue
                if candidate > index:
                    crossed = block.instrs[index:candidate]
                    if any(i.uid in delinquents for i in crossed):
                        continue
                elif candidate < index:
                    crossed = block.instrs[candidate:index]
                    if any(i.dest in live_ins for i in crossed):
                        continue
                    if any(i.uid in delinquents for i in crossed):
                        continue
                return candidate
        return None
