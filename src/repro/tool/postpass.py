"""The post-pass binary adaptation tool — the paper's contribution.

Drives the full Figure 1 flow on a profiled binary:

1. identify delinquent loads from the cache profile (≥90% coverage),
2. build the analyses (CFGs, latency-annotated dependence graphs, dynamic
   call graph, region graph with profiled trip counts),
3. slice each delinquent load's address (context-sensitive + control-flow
   speculative slicing),
4. walk the region graph outward per load, scheduling each candidate region
   for both basic and chaining SP, and select region + model by the
   reduced-miss-cycle threshold (Section 3.4.1),
5. combine slices that share dependence-graph nodes in the same region,
6. place triggers and emit the SSP-enhanced binary (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..guard import (
    DROP_LOAD,
    ERROR,
    ROLLBACK,
    WARNING,
    Diagnostic,
    GuardReport,
    recovery_boundary,
)
from ..isa.instructions import Instruction, numbered_after
from ..isa.interp import LIB_SLOTS
from ..isa.memory import Heap
from ..isa.program import Program
from ..analysis.callgraph import CallGraph
from ..analysis.cfg import CFG
from ..analysis.depgraph import DependenceGraph
from ..analysis.regions import LOOP, Region, RegionGraph
from ..check.proof import prove_equivalent
from ..codegen.emit import AdaptedBinary, SSPEmitter
from ..codegen.verify import DifferentialReport, differential_check
from ..guard import faultinject
from ..profiling.delinquent import select_delinquent_loads
from ..profiling.profile import ProgramProfile
from ..scheduling.basic import BasicScheduler
from ..scheduling.chaining import ChainingScheduler
from ..scheduling.schedule import BASIC, CHAINING, ScheduledSlice
from ..scheduling.slack import reduced_miss_cycles
from ..slicing.regional import (
    RegionSlice,
    merge_region_slices,
    restrict_to_region,
)
from ..slicing.slicer import ContextSensitiveSlicer, ProgramSlice
from ..slicing.speculative import executed_instruction_uids
from ..triggers.placement import place_triggers
from ..obs.tracer import Tracer, ensure_tracer


@dataclass
class ToolOptions:
    """Knobs of the post-pass tool (Section 3.4.1 heuristics)."""

    #: Delinquent-load coverage of total misses.
    coverage: float = 0.90
    max_delinquent_loads: int = 10
    #: reduced-miss-cycle threshold = cutoff_percentage * load miss cycles
    #: ("the value is calculated as the product of the cutoff percentage
    #: and the miss cycles from cache profiling").
    cutoff_percentage: float = 0.10
    #: "we also stop the traversal of the region graph when it is nested
    #: several levels deep".
    max_region_nesting: int = 3
    #: Trip counts below this use basic SP ("if the trip count is small").
    small_trip_count: float = 8.0
    #: "To avoid a slice becoming too big that often leads to wrong
    #: address calculations".
    max_slice_size: int = 64
    max_live_ins: int = LIB_SLOTS
    #: Ablation: restrict the tool to basic SP (no chaining), to measure
    #: the paper's claim that "long-range prefetching using chaining
    #: triggers is the key to high performance".
    disable_chaining: bool = False
    #: Run the differential semantic-equivalence check on the adapted
    #: binary (needs a heap factory) and roll back on mismatch.
    differential_verify: bool = True


#: :class:`ToolOptions` overrides for each rung of the resilience
#: degradation ladder (see :mod:`repro.resilience.ladder`): when a run
#: blows its budgets the worker re-adapts with progressively weaker
#: speculation — basic SP only, then basic SP for the single worst
#: delinquent load — before giving up on adaptation entirely.  Kept here,
#: next to the knobs they override, so tool and ladder cannot drift.
DEGRADATION_PRESETS: Dict[str, Dict[str, object]] = {
    "basic": {"disable_chaining": True},
    "top1": {"disable_chaining": True, "max_delinquent_loads": 1},
}


@dataclass
class RegionDecision:
    """One row of the region/model selection trace (for reports/ablation)."""

    load_uid: int
    region_name: str
    kind: str
    slack_per_iteration: float
    reduced_miss_cycles: float
    threshold: float
    selected: bool
    reason: str = ""


@dataclass
class ToolResult:
    """Everything the tool produced."""

    adapted: Optional[AdaptedBinary]
    delinquent_uids: List[int]
    decisions: List[RegionDecision] = field(default_factory=list)
    #: Degradation ledger: diagnostics, rollbacks, per-load counts.
    guard: GuardReport = field(default_factory=GuardReport)

    @property
    def program(self) -> Program:
        if self.adapted is None:
            raise ValueError("adaptation produced no slices")
        return self.adapted.program

    def table2_row(self) -> Dict[str, float]:
        """#slices, #interprocedural, average size, average #live-ins."""
        records = self.adapted.records if self.adapted else []
        n = len(records)
        return {
            "slices": n,
            "interproc": sum(1 for r in records if r.interprocedural),
            "avg_size": (sum(r.emitted_size for r in records) / n
                         if n else 0.0),
            "avg_live_ins": (sum(r.num_live_ins for r in records) / n
                             if n else 0.0),
        }

    def kinds(self) -> List[str]:
        return [r.kind for r in (self.adapted.records
                                 if self.adapted else [])]


class SSPPostPassTool:
    """Adapts a profiled binary for software-based speculative
    precomputation."""

    def __init__(self, options: Optional[ToolOptions] = None,
                 tracer: Optional[Tracer] = None):
        self.options = options or ToolOptions()
        #: Observability sink; defaults to the inert null tracer so the
        #: instrumented flow below costs nothing when tracing is off.
        self.tracer = ensure_tracer(tracer)

    # -- the full flow -------------------------------------------------------------

    def adapt(self, program: Program, profile: ProgramProfile,
              heap_factory: Optional[Callable[[], Heap]] = None
              ) -> ToolResult:
        """Run the post-pass and return the adapted binary + trace.

        Each pipeline stage runs under a tracer span (profiling →
        analysis → slicing → scheduling → triggers → codegen → verify)
        recording its wall time and Table-2 material metrics.

        The flow is *guarded*: every per-load / per-slice step runs
        inside a recovery boundary, so a failure drops that load or
        slice (with a structured diagnostic on ``result.guard``) instead
        of aborting the run, and a semantic-equivalence mismatch rolls
        the adaptation back.  ``adapt`` itself never raises for pipeline
        faults — the worst outcome is a no-op adaptation.  The
        differential verify stage needs ``heap_factory`` (a fresh heap
        per functional run) and is skipped when it is not provided.
        """
        report = GuardReport()
        result = ToolResult(adapted=None, delinquent_uids=[],
                            guard=report)
        final: List[Tuple[ScheduledSlice, list]] = []
        with recovery_boundary(report, "pipeline", tracer=self.tracer), \
                numbered_after(program.instructions()):
            final = self._adapt_guarded(program, profile, heap_factory,
                                        result)
        self._account(report, result.delinquent_uids,
                      final if result.adapted is not None else [])
        if report.diagnostics or report.rollbacks:
            self.tracer.event("guard.summary", category="guard",
                              summary=report.summary())
        return result

    def _adapt_guarded(self, program: Program, profile: ProgramProfile,
                       heap_factory: Optional[Callable[[], Heap]],
                       result: ToolResult
                       ) -> List[Tuple[ScheduledSlice, list]]:
        opts = self.options
        tracer = self.tracer
        report = result.guard
        if not program.finalized:
            program.finalize()

        with tracer.span("profiling") as sp:
            delinquent = select_delinquent_loads(
                profile, opts.coverage, opts.max_delinquent_loads,
                tracer=tracer)
            sp.set(delinquent_loads=len(delinquent),
                   delinquent_miss_cycles=sum(
                       profile.miss_cycles_of(uid) for uid in delinquent))
        result.delinquent_uids = delinquent
        if not delinquent:
            return []

        with tracer.span("analysis") as sp:
            cfgs: Dict[str, CFG] = {}
            depgraphs: Dict[str, DependenceGraph] = {}
            latency = profile.load_latency_map()
            for name, func in program.functions.items():
                if not func.blocks:
                    continue
                cfg = CFG(func)
                cfgs[name] = cfg
                depgraphs[name] = DependenceGraph(func, cfg, latency,
                                                  profile.l1_latency)
            callgraph = CallGraph(program, profile.indirect_targets)
            region_graph = RegionGraph(program, callgraph,
                                       profile.block_freq)
            executed = executed_instruction_uids(
                program, profile.block_freq,
                exec_counts=profile.exec_counts)
            slicer = ContextSensitiveSlicer(program, callgraph, depgraphs,
                                            executed, tracer=tracer)
            sp.set(functions=len(cfgs), regions=len(region_graph.regions))

        locate = self._locate_instructions(program)
        with tracer.span("slicing") as sp:
            slices: Dict[int, Tuple[str, str, Instruction,
                                    ProgramSlice]] = {}
            size_hist = tracer.histogram("slice_size")
            for uid in delinquent:
                if uid not in locate:
                    continue
                func_name, block_label, instr = locate[uid]
                if func_name not in depgraphs:
                    continue
                with recovery_boundary(report, "slicing", tracer=tracer,
                                       load_uid=uid, function=func_name):
                    program_slice = slicer.slice_load_address(instr,
                                                              func_name)
                    slices[uid] = (func_name, block_label, instr,
                                   program_slice)
                    size_hist.observe(program_slice.size())
            sp.set(slices=len(slices),
                   interprocedural=sum(
                       1 for _, _, _, s in slices.values()
                       if s.interprocedural),
                   failed=len(report.failures_in("slicing")))

        with tracer.span("scheduling") as sp:
            selections: List[Tuple[RegionSlice, str]] = []
            for uid, (func_name, block_label, instr,
                      program_slice) in slices.items():
                with recovery_boundary(report, "scheduling",
                                       tracer=tracer, load_uid=uid,
                                       function=func_name):
                    selection = self._select_region(
                        instr, func_name, block_label, program_slice,
                        region_graph, depgraphs, profile,
                        result.decisions)
                    if selection is not None:
                        selections.append(selection)
                    else:
                        self._note_negative_slack(
                            report, result.decisions, uid, func_name)
            merged = self._combine(selections)
            scheduled_slices: List[ScheduledSlice] = []
            live_in_hist = tracer.histogram("live_ins")
            slack_hist = tracer.histogram("slack_per_iteration")
            dropped_live_ins = 0
            for region_slice, kind in merged:
                with recovery_boundary(
                        report, "scheduling", tracer=tracer,
                        load_uid=region_slice.load.uid,
                        function=region_slice.region.function):
                    scheduled = self._schedule(region_slice, kind,
                                               region_graph, depgraphs)
                    if scheduled is None:
                        continue
                    if len(scheduled.live_ins) > opts.max_live_ins:
                        dropped_live_ins += 1
                        continue
                    live_in_hist.observe(len(scheduled.live_ins))
                    slack_hist.observe(scheduled.slack_per_iteration)
                    scheduled_slices.append(scheduled)
            sp.set(selections=len(selections), merged=len(merged),
                   scheduled=len(scheduled_slices),
                   dropped_live_ins=dropped_live_ins)
        if not scheduled_slices:
            return []

        with tracer.span("triggers") as sp:
            placements: List[Tuple[ScheduledSlice, list]] = []
            total_triggers = 0
            for scheduled in scheduled_slices:
                with recovery_boundary(
                        report, "triggers", tracer=tracer,
                        load_uid=scheduled.load.uid,
                        function=scheduled.region_slice.region.function):
                    triggers = place_triggers(program, scheduled, cfgs,
                                              tracer=tracer)
                    if not triggers:
                        continue
                    total_triggers += len(triggers)
                    placements.append((scheduled, triggers))
            sp.set(slices_with_triggers=len(placements),
                   triggers_placed=total_triggers)
        if not placements:
            return []

        with tracer.span("codegen") as sp:
            adapted, emitted = self._emit_guarded(program, placements,
                                                  report)
            result.adapted = adapted
            sp.set(slices_emitted=(len(adapted.records) if adapted
                                   else 0),
                   emitted_instructions=sum(
                       r.emitted_size for r in (adapted.records
                                                if adapted else [])),
                   failed=len(report.failures_in("codegen")))

        if result.adapted is not None and opts.differential_verify and \
                heap_factory is not None:
            with tracer.span("verify") as sp:
                with recovery_boundary(report, "verify",
                                       tracer=tracer) as b:
                    emitted = self._verify_and_rollback(
                        program, emitted, result, heap_factory, profile,
                        sp)
                if not b.ok:
                    # An unverified binary never ships.
                    report.record_rollback(
                        None, f"verify stage failed: {b.error}")
                    result.adapted = None
                    emitted = []
                sp.set(rollbacks=len(report.rollbacks),
                       equivalent=result.adapted is not None)
        return emitted

    # -- guarded codegen & verification ------------------------------------------------

    def _emit_all(self, program: Program,
                  placements: List[Tuple[ScheduledSlice, list]]
                  ) -> Optional[AdaptedBinary]:
        """One emission attempt from the pristine original program."""
        emitter = SSPEmitter(program, tracer=self.tracer)
        for scheduled, triggers in placements:
            emitter.add_slice(scheduled, triggers)
        if not emitter.records:
            return None
        return emitter.finalize()

    def _emit_guarded(self, program: Program,
                      placements: List[Tuple[ScheduledSlice, list]],
                      report: GuardReport
                      ) -> Tuple[Optional[AdaptedBinary],
                                 List[Tuple[ScheduledSlice, list]]]:
        """Emit all slices; on failure, isolate and drop the bad ones.

        Emission always restarts from a fresh clone of the original
        program, so dropping a slice can never leave half-applied edits
        behind.
        """
        adapted: Optional[AdaptedBinary] = None
        with recovery_boundary(report, "codegen",
                               tracer=self.tracer) as b:
            adapted = self._emit_all(program, placements)
        if b.ok:
            return adapted, list(placements)
        survivors: List[Tuple[ScheduledSlice, list]] = []
        for item in placements:
            scheduled = item[0]
            with recovery_boundary(
                    report, "codegen", tracer=self.tracer,
                    load_uid=scheduled.load.uid,
                    function=scheduled.region_slice.region.function) as b:
                self._emit_all(program, [item])
            if b.ok:
                survivors.append(item)
        if not survivors:
            return None, []
        with recovery_boundary(report, "codegen",
                               tracer=self.tracer) as b:
            adapted = self._emit_all(program, survivors)
        if b.ok:
            return adapted, survivors
        return None, []

    def _check(self, program: Program, adapted: Program,
               heap_factory: Callable[[], Heap], profile: ProgramProfile,
               span) -> DifferentialReport:
        """One equivalence check of ``adapted``: the static proof when it
        goes through, else the differential check (the shadow run).

        The proof only ever accepts, so every rejection is the
        differential check's own.  ``profile``'s recorded run of
        ``program`` is what the proof stands on and what spares the
        check its reference run.  An armed ``verify.mismatch`` fault
        site (which fires inside the differential check) skips the
        proof, so injected mismatches report as they always have.
        """
        tracer = self.tracer
        reference = profile.reference if profile.program is program \
            else None
        if reference is not None \
                and not faultinject.armed("verify.mismatch"):
            failed = prove_equivalent(program, adapted, profile,
                                      heap_factory)
            tracer.event("static_proof", category="verify",
                         proved=failed is None, failed=failed)
            if failed is None:
                tracer.counter("guard.verify.static").add()
                span.set(mode="static")
                return DifferentialReport(equivalent=True)
        tracer.counter("guard.verify.dynamic").add()
        span.set(mode="dynamic")
        diff = differential_check(program, adapted, heap_factory,
                                  reference=reference)
        tracer.event("differential_check", category="verify",
                     **diff.to_dict())
        return diff

    def _verify_and_rollback(self, program: Program,
                             placements: List[Tuple[ScheduledSlice,
                                                    list]],
                             result: ToolResult,
                             heap_factory: Callable[[], Heap],
                             profile: ProgramProfile, span
                             ) -> List[Tuple[ScheduledSlice, list]]:
        """Equivalence check + per-function rollback loop.

        Re-emission always starts from the pristine original, so a
        rolled-back function is byte-identical to the unadapted input by
        construction.
        """
        report = result.guard
        tracer = self.tracer
        remaining = list(placements)
        for _ in range(len(placements) + 1):
            diff = self._check(program, result.adapted.program,
                               heap_factory, profile, span)
            if diff.equivalent:
                return remaining
            culprit = diff.function
            report.record(Diagnostic(
                stage="verify", error="VerifyError", severity=ERROR,
                policy=ROLLBACK, message=diff.reason, function=culprit))
            tracer.counter("guard.failed.verify").add()
            drop = [p for p in remaining
                    if culprit is not None
                    and p[0].region_slice.region.function == culprit]
            if not drop:
                # Unknown culprit (or nothing left to drop): whole-binary
                # rollback.
                report.record_rollback(None, diff.reason)
                result.adapted = None
                return []
            report.record_rollback(culprit, diff.reason)
            remaining = [p for p in remaining if p not in drop]
            if not remaining:
                result.adapted = None
                return []
            with recovery_boundary(report, "codegen",
                                   tracer=tracer) as b:
                result.adapted = self._emit_all(program, remaining)
            if not b.ok or result.adapted is None:
                report.record_rollback(
                    None, "re-emission after rollback failed")
                result.adapted = None
                return []
        report.record_rollback(None, "differential check kept failing")
        result.adapted = None
        return []

    def _note_negative_slack(self, report: GuardReport,
                             decisions: List[RegionDecision],
                             uid: int, func_name: str) -> None:
        """Record why a load was dropped when every candidate schedule
        came back with negative slack (informational: the selection
        heuristic already refuses such slices)."""
        neg = [d for d in decisions
               if d.load_uid == uid and d.slack_per_iteration < 0]
        if not neg:
            return
        diagnostic = Diagnostic(
            stage="scheduling", error="ScheduleError", severity=WARNING,
            policy=DROP_LOAD,
            message=("all candidate regions scheduled with negative "
                     f"slack (min {min(d.slack_per_iteration for d in neg):.1f}); "
                     "load dropped"),
            load_uid=uid, function=func_name)
        report.record(diagnostic)
        self.tracer.event("guard.failure", category="guard",
                          **diagnostic.to_dict())

    def _account(self, report: GuardReport, delinquent: List[int],
                 placements: List[Tuple[ScheduledSlice, list]]) -> None:
        """Final adapted / skipped / failed load bookkeeping."""
        delinquent_set = set(delinquent)
        covered: set = set()
        for scheduled, _ in placements:
            covered |= (set(scheduled.region_slice.delinquent_uids)
                        & delinquent_set)
        failed = {d.load_uid for d in report.diagnostics
                  if d.load_uid is not None and d.severity != WARNING}
        failed = (failed & delinquent_set) - covered
        report.adapted_loads = len(covered)
        report.failed_loads = len(failed)
        report.skipped_loads = (len(delinquent_set) - len(covered)
                                - len(failed))

    # -- helpers ---------------------------------------------------------------------

    def _locate_instructions(self, program: Program
                             ) -> Dict[int, Tuple[str, str, Instruction]]:
        out: Dict[int, Tuple[str, str, Instruction]] = {}
        for name, func in program.functions.items():
            for block in func.blocks:
                for instr in block.instrs:
                    out[instr.uid] = (name, block.label, instr)
        return out

    def _region_uids(self, region: Region,
                     region_graph: RegionGraph) -> set:
        return {i.uid for i in region_graph.instructions_in(region)}

    def _select_region(self, load: Instruction, func_name: str,
                       block_label: str,
                       program_slice: ProgramSlice,
                       region_graph: RegionGraph,
                       depgraphs: Dict[str, DependenceGraph],
                       profile: ProgramProfile,
                       decisions: List[RegionDecision]
                       ) -> Optional[Tuple[RegionSlice, str]]:
        """Region-based traversal with the reduced-miss-cycle threshold."""
        opts = self.options
        miss_cycles = profile.miss_cycles_of(load.uid)
        executions = max(1, profile.executions_of(load.uid))
        miss_per_iteration = miss_cycles / executions
        threshold = opts.cutoff_percentage * miss_cycles

        start = region_graph.region_of_block(func_name, block_label)
        best: Optional[Tuple[float, RegionSlice, str]] = None
        for depth, region in enumerate(region_graph.outward_chain(start)):
            if depth >= opts.max_region_nesting:
                break
            region_slice = restrict_to_region(
                program_slice, region, region_graph, depgraphs)
            if region_slice is None:
                continue
            if region_slice.size() > opts.max_slice_size:
                break
            region_uids = self._region_uids(region, region_graph)
            candidates = self._score_models(region_slice, region,
                                            region_uids, profile,
                                            miss_per_iteration)
            for kind, scheduled, reduced in candidates:
                selected = reduced >= threshold
                decisions.append(RegionDecision(
                    load_uid=load.uid, region_name=region.name, kind=kind,
                    slack_per_iteration=scheduled.slack_per_iteration,
                    reduced_miss_cycles=reduced, threshold=threshold,
                    selected=False))
            kind, scheduled, reduced = self._choose_model(
                candidates, region)
            if best is None or reduced > best[0]:
                best = (reduced, region_slice, kind)
            if reduced >= threshold:
                decisions[-1].selected = True
                decisions[-1].reason = "threshold met"
                return region_slice, kind
        if best is not None and best[0] > 0:
            # "If none of the regions reduce the miss cycles beyond the
            # threshold percentage, we pick the region with the largest
            # percentage of miss cycles."
            decisions.append(RegionDecision(
                load_uid=load.uid, region_name=best[1].region.name,
                kind=best[2], slack_per_iteration=0.0,
                reduced_miss_cycles=best[0], threshold=threshold,
                selected=True, reason="best effort"))
            return best[1], best[2]
        return None

    def _score_models(self, region_slice: RegionSlice, region: Region,
                      region_uids: set, profile: ProgramProfile,
                      miss_per_iteration: float
                      ) -> List[Tuple[str, ScheduledSlice, float]]:
        entries = max(1, region.entries or 1)
        trips = max(1.0, region.trip_count)
        out: List[Tuple[str, ScheduledSlice, float]] = []
        basic = BasicScheduler(tracer=self.tracer).schedule(
            region_slice, region_uids)
        out.append((BASIC, basic, entries * reduced_miss_cycles(
            basic.slack_per_iteration, trips, miss_per_iteration)))
        if region.kind == LOOP and not self.options.disable_chaining:
            chain = ChainingScheduler(tracer=self.tracer).schedule(
                region_slice, region_uids)
            out.append((CHAINING, chain, entries * reduced_miss_cycles(
                chain.slack_per_iteration, trips, miss_per_iteration)))
        return out

    def _choose_model(self, candidates, region: Region):
        """Basic vs chaining (Section 3.4.1): small trip counts or a larger
        basic slack pick basic SP; otherwise chaining."""
        by_kind = {kind: (kind, sched, reduced)
                   for kind, sched, reduced in candidates}
        if CHAINING not in by_kind:
            return by_kind[BASIC]
        basic = by_kind[BASIC]
        chain = by_kind[CHAINING]
        if region.trip_count < self.options.small_trip_count:
            return basic
        if basic[1].slack_per_iteration > chain[1].slack_per_iteration:
            return basic
        return chain

    def _combine(self, selections: List[Tuple[RegionSlice, str]]
                 ) -> List[Tuple[RegionSlice, str]]:
        """Merge slices that share a region (and thus dependence nodes)."""
        groups: Dict[str, List[Tuple[RegionSlice, str]]] = {}
        for region_slice, kind in selections:
            groups.setdefault(region_slice.region.name, []).append(
                (region_slice, kind))
        out: List[Tuple[RegionSlice, str]] = []
        for items in groups.values():
            slices = [rs for rs, _ in items]
            kinds = {kind for _, kind in items}
            merged = merge_region_slices(slices)
            kind = CHAINING if CHAINING in kinds else BASIC
            out.append((merged, kind))
        return out

    def _schedule(self, region_slice: RegionSlice, kind: str,
                  region_graph: RegionGraph,
                  depgraphs: Dict[str, DependenceGraph]
                  ) -> Optional[ScheduledSlice]:
        region_uids = self._region_uids(region_slice.region, region_graph)
        if kind == CHAINING:
            return ChainingScheduler(tracer=self.tracer).schedule(
                region_slice, region_uids)
        return BasicScheduler(tracer=self.tracer).schedule(
            region_slice, region_uids)
