"""Spec execution: build artifacts, simulate, serialise the result.

:func:`execute_task` is the unit of work a queue worker
(:class:`~repro.service.worker.ServiceWorker`) runs for each job it
leases.  A :class:`WorkerTask` carries the resilience contract:
heartbeats that keep the lease live, periodic checkpoints,
resume-from-checkpoint, and wall-clock/RSS budgets enforced at
checkpoint boundaries.  :func:`execute_spec` is ``execute_task`` with
everything switched off.  Both rebuild everything they need from the
spec alone, so a job runs the same in any process.

Expensive intermediate artifacts (profile, tool adaptation, hand binary)
are memoised per process and per (workload, scale, tool options), so the
many specs of one experiment share one profiling run and one adaptation
within each worker.  Forked local workers inherit artifacts already
built by their parent.

The profiling run *is* the in-order base run (same binary, machine,
heap and cycle limit, no spawning), so a plain ``inorder/base`` spec
takes its statistics from that run instead of simulating again.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..guard import faultinject
from ..guard.errors import CheckpointError, ResourceBudgetError
from ..obs.tracer import NULL_TRACER
from ..profiling.collect import collect_profile
from ..profiling.profile import ProgramProfile
from ..resilience.checkpoint import CheckpointStore
from ..resilience.heartbeat import Heartbeat
from ..sim.config import MachineConfig
from ..sim.inorder import InOrderSimulator
from ..sim.machine import make_config, make_simulator
from ..sim.smt import DEFAULT_MAX_CYCLES
from ..tool.postpass import SSPPostPassTool, ToolOptions, ToolResult
from ..workloads import make_workload
from .spec import RunSpec

#: Variants whose run must leave the workload's expected output in the
#: heap (the ``perfect_*`` ablations alter memory behaviour, not results,
#: but are excluded to mirror the historical experiment harness).
_CHECKED_VARIANTS = ("base", "ssp")


class WorkloadArtifacts:
    """Lazily-built products for one (workload, scale, tool options)."""

    def __init__(self, name: str, scale: str,
                 tool_options: Optional[Dict[str, Any]] = None):
        self.name = name
        self.scale = scale
        self.tool_options = (ToolOptions(**tool_options)
                             if tool_options else None)
        self.workload = make_workload(name, scale)
        self.program = self.workload.build_program()
        #: Observability sink for the expensive builds below; callers that
        #: want spans (the CLI's ``--trace``) set this before the first
        #: access to :attr:`profile` / :attr:`tool_result`.
        self.tracer = NULL_TRACER
        self._profile: Optional[ProgramProfile] = None
        #: ``SimStats.to_dict()`` of the profiling run — the document,
        #: never the live stats or heap, so it costs no memory to keep.
        self._base_stats: Optional[Dict[str, Any]] = None
        self._tool_result: Optional[ToolResult] = None
        self._hand_workload = None

    @property
    def profile(self) -> ProgramProfile:
        if self._profile is None:
            with self.tracer.span("collect_profile",
                                  category="profiling") as sp:
                self._profile = collect_profile(
                    self.program, self.workload.build_heap,
                    on_run=self._keep_base_run)
                sp.set(baseline_cycles=self._profile.baseline_cycles,
                       total_miss_cycles=self._profile.total_miss_cycles())
        return self._profile

    def _keep_base_run(self, sim: InOrderSimulator) -> None:
        try:
            self.workload.check_output(sim.heap)
        except AssertionError:
            # Keep nothing: the base spec then simulates, and its own
            # output check fails exactly as it always did.
            return
        self._base_stats = sim.stats.to_dict()

    def base_stats(self) -> Optional[Dict[str, Any]]:
        """The in-order base run's statistics document, taken from the
        profiling run (a copy, so callers may keep or change it); None
        when that run failed its output check."""
        self.profile  # profiles on first use, which keeps the document
        return copy.deepcopy(self._base_stats)

    @property
    def tool_result(self) -> ToolResult:
        if self._tool_result is None:
            tool = SSPPostPassTool(self.tool_options, tracer=self.tracer)
            # The heap factory enables the differential verify stage
            # (semantic-equivalence rollback) inside the tool.
            self._tool_result = tool.adapt(
                self.program, self.profile,
                heap_factory=self.workload.build_heap)
        return self._tool_result

    @property
    def delinquent_uids(self):
        return self.tool_result.delinquent_uids

    @property
    def hand_workload(self):
        if self._hand_workload is None:
            self._hand_workload = make_workload(self.name + ".hand",
                                                self.scale)
        return self._hand_workload

    # -- per-variant run inputs ------------------------------------------------------

    def run_inputs(self, variant: str):
        """(program, heap-building workload) for one variant."""
        if variant == "ssp":
            result = self.tool_result
            if result.adapted is None:
                # Adaptation degraded to a no-op (guard drops/rollback):
                # run the unadapted binary — never worse than no
                # adaptation, never an exception.
                return self.program, self.workload
            return result.adapted.program, self.workload
        if variant == "hand":
            return self.hand_workload.build_program(), self.hand_workload
        return self.program, self.workload


#: Per-process artifact memo: (workload, scale, frozen options) -> built.
_ARTIFACTS: Dict[Tuple, WorkloadArtifacts] = {}


def artifacts_for(spec: RunSpec) -> WorkloadArtifacts:
    key = (spec.workload, spec.scale, spec.tool_options)
    artifacts = _ARTIFACTS.get(key)
    if artifacts is None:
        artifacts = _ARTIFACTS[key] = WorkloadArtifacts(
            spec.workload, spec.scale, spec.tool_options_dict())
    return artifacts


def clear_artifact_cache() -> None:
    """Drop memoised artifacts (tests; long-lived worker hygiene)."""
    _ARTIFACTS.clear()


def config_for(spec: RunSpec,
               artifacts: Optional[WorkloadArtifacts] = None
               ) -> MachineConfig:
    """The machine configuration a spec resolves to."""
    config = make_config(spec.model)
    if spec.variant == "perfect_mem":
        config = config.with_perfect_memory()
    elif spec.variant == "perfect_dloads":
        artifacts = artifacts or artifacts_for(spec)
        config = config.with_perfect_loads(artifacts.delinquent_uids)
    if spec.config_overrides:
        overrides = {}
        for key, value in spec.config_overrides:
            if key == "perfect_load_uids":
                value = frozenset(value)
            overrides[key] = value
        config = dataclasses.replace(config, **overrides)
    return config


@dataclass
class WorkerTask:
    """One execution attempt, as plain data.

    The plain ``execute_spec`` path is ``WorkerTask(spec)`` with every
    resilience feature off; a queue worker fills in the rest per lease.
    """

    spec: RunSpec
    #: Heartbeat file this attempt keeps fresh (None = no heartbeats).
    heartbeat_path: Optional[str] = None
    #: Write a checkpoint every N simulated cycles (None = never).
    checkpoint_every: Optional[int] = None
    #: Root directory for checkpoints (None = the default
    #: ``REPRO_CHECKPOINT_DIR`` / ``.repro-cache/checkpoints``).  The
    #: service plane points this at ``<service-root>/checkpoints`` so a
    #: lease stolen by a worker on another host finds the victim's
    #: checkpoints over the shared filesystem.
    checkpoint_root: Optional[str] = None
    #: Start from the newest intact on-disk checkpoint, if any.
    resume: bool = False
    #: Soft wall-clock budget (seconds), checked at checkpoint cadence.
    deadline: Optional[float] = None
    #: Peak-RSS budget (MiB), checked at checkpoint cadence.
    rss_budget_mb: Optional[float] = None
    #: How long a fired ``worker.hang`` site sleeps.  >0 (a forked
    #: worker under a watchdog) simulates a real hang for the watchdog
    #: to kill; 0 raises immediately (nothing could kill the sleep).
    hang_seconds: float = 0.0


#: Cycle cadence for heartbeats/budget checks when the task wants them
#: but checkpointing is off.
_PROGRESS_CADENCE = 50_000

def _served_by_profile(task: WorkerTask) -> bool:
    """True for a plain in-order base run, which the profiling run is:
    no overrides, the default cycle limit, and none of checkpoints,
    resume or budgets switched on.  A heartbeat does not change the
    result, so a leased job is served too."""
    spec = task.spec
    return (spec.model == "inorder" and spec.variant == "base"
            and not spec.effective_spawning and not spec.config_overrides
            and spec.max_cycles == DEFAULT_MAX_CYCLES
            and not task.checkpoint_every and not task.resume
            and task.deadline is None and task.rss_budget_mb is None)


def _peak_rss_mb() -> Optional[float]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute_task(task: WorkerTask) -> Dict[str, Any]:
    """Run one attempt to completion.

    Returns the same payload shape as :func:`execute_spec` plus a
    ``"resilience"`` record: checkpoints written, the cycle resumed
    from (or None), and any checkpoint files refused as damaged.
    """
    started = time.perf_counter()
    spec = task.spec
    heartbeat = (Heartbeat(Path(task.heartbeat_path))
                 if task.heartbeat_path else None)
    if heartbeat is not None:
        heartbeat.beat(stage="start")
    # Chaos sites: a worker that dies before doing any work, one that
    # stalls and then fails with a timeout error, one that stops
    # heartbeating (watchdog path), and one that dies of memory
    # exhaustion (ladder path).
    faultinject.check("runner.worker_crash")
    if faultinject.fires("runner.worker_timeout"):
        time.sleep(0.05)
        raise TimeoutError("injected fault at site 'runner.worker_timeout'")
    if faultinject.fires("worker.hang"):
        if task.hang_seconds > 0:
            time.sleep(task.hang_seconds)
        raise faultinject.InjectedFault(
            "worker.hang", "injected fault at site 'worker.hang'")
    if faultinject.fires("worker.oom"):
        raise MemoryError("injected fault at site 'worker.oom'")

    resilience: Dict[str, Any] = {"checkpoints": 0,
                                  "resumed_from_cycle": None,
                                  "checkpoint_errors": []}
    artifacts = artifacts_for(spec)
    if _served_by_profile(task):
        stats_doc = artifacts.base_stats()
        if stats_doc is not None:
            return {"stats": stats_doc,
                    "wall_time": time.perf_counter() - started,
                    "resilience": resilience}

    store: Optional[CheckpointStore] = None
    key = spec.content_hash()
    if task.checkpoint_every or task.resume:
        store = CheckpointStore(root=task.checkpoint_root)

    program, heap_workload = artifacts.run_inputs(spec.variant)
    heap = heap_workload.build_heap()
    sim = make_simulator(program, heap, spec.model,
                         config=config_for(spec, artifacts),
                         spawning=spec.effective_spawning,
                         max_cycles=spec.max_cycles)
    if task.resume and store is not None:
        errors: list = []
        loaded = store.load(key, errors)
        resilience["checkpoint_errors"] = errors
        if loaded is not None:
            state, header = loaded
            try:
                sim.restore(state["state"])
            except (CheckpointError, KeyError) as exc:
                resilience["checkpoint_errors"].append(str(exc))
            else:
                resilience["resumed_from_cycle"] = header.get("cycle", 0)

    cadence = task.checkpoint_every
    if cadence is None and (heartbeat is not None or task.deadline
                            or task.rss_budget_mb):
        cadence = _PROGRESS_CADENCE

    def check_budget(cycle: int) -> None:
        """Raise :class:`ResourceBudgetError` once this attempt is past
        its wall-clock or RSS budget (the ladder's trigger)."""
        if task.deadline is not None:
            elapsed = time.perf_counter() - started
            if elapsed > task.deadline:
                raise ResourceBudgetError(
                    f"{spec.label()} exceeded its {task.deadline}s "
                    f"wall-clock budget at cycle {cycle} "
                    f"({elapsed:.1f}s elapsed)")
        if task.rss_budget_mb is not None:
            rss = _peak_rss_mb()
            if rss is not None and rss > task.rss_budget_mb:
                raise ResourceBudgetError(
                    f"{spec.label()} exceeded its {task.rss_budget_mb} "
                    f"MiB RSS budget at cycle {cycle} "
                    f"({rss:.0f} MiB peak)")

    def on_checkpoint(running_sim) -> None:
        if heartbeat is not None:
            heartbeat.beat(cycle=running_sim.cycle, stage="simulate")
        check_budget(running_sim.cycle)
        if store is not None and task.checkpoint_every:
            store.save(key, {"state": running_sim.snapshot()},
                       cycle=running_sim.cycle, label=spec.label())
            resilience["checkpoints"] += 1

    # The cadence only checks the budget inside a run; a run shorter
    # than one cadence step (or a budget already spent building and
    # adapting the binary) is caught here.
    check_budget(sim.cycle)
    stats = sim.run(checkpoint_every=cadence, on_checkpoint=on_checkpoint)
    if spec.variant in _CHECKED_VARIANTS:
        # After a restore the live heap is the snapshot's, not the one
        # this process built — always check what the simulator ran on.
        heap_workload.check_output(sim.heap)
    if store is not None:
        # The run completed; its checkpoints have served their purpose.
        store.discard(key)
    if heartbeat is not None:
        heartbeat.beat(cycle=stats.cycles, stage="done")

    return {
        "stats": stats.to_dict(),
        "wall_time": time.perf_counter() - started,
        "resilience": resilience,
    }


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec to completion; returns ``{"stats": ..., "wall_time"}``.

    The stats value is the JSON-safe :meth:`SimStats.to_dict` form (not the
    object) so the same payload crosses process boundaries and lands in
    the result cache without re-serialisation.
    """
    return execute_task(WorkerTask(spec=spec))
