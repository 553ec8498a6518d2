"""The service worker: pull leases, dedupe through the cache, simulate.

A :class:`ServiceWorker` is the one execution engine: every cache miss,
whether a :class:`~repro.runner.executor.Runner` batch or a service
submission, runs as a job one of these workers leased.  Its loop per
job is:

1. claim a lease from the :class:`~repro.service.queue.JobQueue`
   (``O_EXCL`` lease file = in-flight dedupe);
2. look the spec up in the shared :class:`~repro.runner.cache.ResultCache`
   — a hit means some other worker (or an earlier batch) already paid
   for this simulation, so the job completes as a **dedupe** without
   executing;
3. otherwise execute it — the default unit of work is
   :func:`repro.runner.worker.execute_task` with the *lease file as the
   heartbeat path*, so the beats that show the run is alive keep the
   lease from being stolen — and write the result through the backend
   before retiring the job.

A failed attempt goes back to the queue until its ``max_attempts``;
the failure policy is the queue's.  With a
:class:`~repro.resilience.config.ResilienceConfig` the worker also
applies, per job:

* **checkpoint/resume** — checkpoints land under
  ``<service-root>/checkpoints`` (shared, like everything else under
  the root), and a stolen or retried lease resumes from the previous
  owner's newest intact checkpoint, so a SIGKILL mid-job costs the
  fleet only the cycles since the last checkpoint and still lands on
  byte-identical SimStats;
* **degradation ladder** — a budget/OOM blowout walks the job down
  full → basic → top1 → unadapted *inside the lease*.  A degraded
  result is cached under the degraded spec's own content hash (it
  never masquerades as the full-capability result); the done record
  publishes the rung and the executed spec so clients can follow the
  redirect.

Run one worker per core per host; any number of hosts sharing the
service root cooperate through the same queue.  A worker crash merely
lets its lease go stale (or its pid be probed as dead); the job is
re-executed elsewhere (at-least-once), and content addressing makes
the duplicate write byte-identical.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..guard import faultinject
from ..guard.errors import ResourceBudgetError
from ..obs.record import SCHEMA, counters
from ..resilience.config import ResilienceConfig
from ..resilience.ladder import degrade_spec, ladder_steps
from ..runner.cache import ResultCache
from ..runner.spec import RunSpec
from ..runner.worker import WorkerTask, execute_spec, execute_task
from .queue import JobQueue, Lease, default_worker_id

#: Exit status of a ``worker.crash`` chaos death (``os._exit`` — no
#: cleanup, no summary, the lease left dangling; as close to SIGKILL as
#: a site can self-inflict).
CRASH_EXIT_STATUS = 23

#: Sites whose fired-counts a forked worker aligns with the job's earlier
#: executions (a dead child's increments never reach anyone).
_WORKER_SITES = ("worker.hang", "worker.oom",
                 "runner.worker_crash", "runner.worker_timeout")


def classify_failure(exc: BaseException) -> Optional[str]:
    """The resource-pressure kind of a failure (``budget`` or ``oom``):
    the same capability level would blow the same budget, so the job
    descends the ladder rather than retrying.  None for anything else."""
    if isinstance(exc, ResourceBudgetError):
        return "budget"
    if isinstance(exc, MemoryError):
        return "oom"
    return None


class ServiceWorker:
    """One queue consumer bound to a shared backend."""

    def __init__(self, queue: JobQueue, backend: ResultCache,
                 task_fn: Callable[..., Dict] = execute_spec,
                 worker_id: Optional[str] = None,
                 resilience: Optional[ResilienceConfig] = None):
        """
        Args:
            queue: the shared job queue.
            backend: the shared result store (the dedupe authority).
            task_fn: spec -> payload unit of work.  The default
                ``execute_spec`` is upgraded to a heartbeating
                ``execute_task`` automatically; a custom ``task_fn``
                (tests, alternative executors) is called as
                ``task_fn(spec)`` after one lease beat.
            worker_id: stable tag for lease/done records; defaults to
                ``<hostname>-<pid>``.
            resilience: per-job discipline (checkpoint cadence, resume,
                wall-clock/RSS budgets, ladder descent).  None = execute
                plainly.
        """
        self.queue = queue
        self.backend = backend
        self.task_fn = task_fn
        self.worker_id = worker_id or default_worker_id()
        self.resilience = resilience
        #: Shared checkpoint namespace: stolen leases resume from the
        #: victim's checkpoints through the same service root.  None =
        #: the default :class:`~repro.resilience.CheckpointStore` root.
        self.checkpoint_root: Optional[Path] = \
            Path(queue.root) / "checkpoints"
        #: True in a forked local worker: fault plans follow the job's
        #: executions, and a fired ``worker.hang`` really hangs (there
        #: is a watchdog to kill it when the run is resilient).
        self.forked = False
        #: When set, called with (hash, cache entry) for every job this
        #: worker executes: a client's own workers hand it their results
        #: without the client reading them back.  An inline one runs in
        #: the client's process, so it does not consult the
        #: ``worker.crash`` site (a worker process dying): that would
        #: kill the client.
        self.on_result: Optional[Callable[[str, Dict], None]] = None
        self.started = time.time()
        #: The run record's counter map, mirrored into the summary file
        #: for cross-process assertions ("exactly one simulation per
        #: unique spec hash").
        self.counters: Dict[str, int] = counters()
        #: step -> count of jobs that completed at that ladder rung
        #: (full-capability completions are not recorded here).
        self.ladder: Dict[str, int] = {}

    # -- one job ---------------------------------------------------------------------

    def step(self, prefer=None) -> Optional[str]:
        """Process at most one job; returns its hash, or None if starved."""
        lease = self.queue.claim(self.worker_id, prefer=prefer)
        if lease is None:
            return None
        if lease.stolen:
            self.counters["stolen_leases"] += 1
        return self._process(lease)

    def _process(self, lease: Lease) -> str:
        spec, digest = lease.spec, lease.hash
        crashable = self.forked or self.on_result is None
        if crashable and faultinject.fires("worker.crash"):
            # Chaos: die holding the lease, before any work lands.
            # Recovery is the dead-pid probe / visibility timeout: some
            # other worker steals the lease and re-executes.
            os._exit(CRASH_EXIT_STATUS)
        entry = self.backend.get(spec)
        if entry is not None:
            self.counters["deduped"] += 1
            lease.complete(executed=False,
                           wall_time=entry.get("wall_time", 0.0),
                           worker=self.worker_id)
            return digest
        if self.forked:
            # The child started from its parent's fault counters; align
            # them with this job's earlier executions (failed attempts
            # plus killed or crashed owners), so a ``times``-bounded
            # plan fires that many times across processes.
            prior = (int(lease.job.get("attempts", 0))
                     + int(lease.job.get("steals", 0)))
            for site in _WORKER_SITES:
                faultinject.sync_fired(site, prior)
        self.counters["launched"] += 1
        try:
            payload, executed_spec, descents = self._execute(spec, lease)
        except Exception as exc:  # noqa: BLE001 - routed to the queue
            fault_site = (exc.site if isinstance(
                exc, faultinject.InjectedFault) else None)
            requeued = lease.fail(
                f"{type(exc).__name__}: {exc}", worker=self.worker_id,
                fault_site=fault_site,
                traceback_text=traceback.format_exc(limit=8))
            self.counters["retries" if requeued else "failures"] += 1
            return digest
        wall = payload.get("wall_time", 0.0)
        res_record = payload.get("resilience") or {}
        metrics = dict(payload.get("metrics") or {})
        meta: Dict = {}
        if descents:
            # The rung rides in the cached metrics, and (because the
            # degraded result lives under its own content hash) the
            # done record carries the redirect clients need to find it.
            step = ladder_steps(spec)[len(descents)]
            self.counters["degraded"] += 1
            self.counters["descents"] += len(descents)
            self.ladder[step] = self.ladder.get(step, 0) + 1
            metrics["resilience"] = {"ladder_step": step,
                                     "reasons": res_record["reasons"]}
            meta.update(ladder_step=step, degraded_after=descents,
                        executed_spec=executed_spec.key(),
                        executed_hash=executed_spec.content_hash())
        if res_record.get("resumed_from_cycle") is not None:
            self.counters["resumes"] += 1
            meta["resumed_from_cycle"] = res_record["resumed_from_cycle"]
        if res_record.get("checkpoints"):
            self.counters["checkpoints"] += res_record["checkpoints"]
            meta["checkpoints"] = res_record["checkpoints"]
        self.backend.put(executed_spec, payload["stats"], wall,
                         metrics=metrics or None)
        if self.on_result is not None:
            self.on_result(digest, {"stats": payload["stats"],
                                    "wall_time": wall, "metrics": metrics})
        if crashable and faultinject.fires("worker.crash"):
            # Chaos, late flavour: die after the backend put but before
            # the done record.  Recovery: the next claimer's backend
            # lookup hits, and the job completes as a dedupe.
            os._exit(CRASH_EXIT_STATUS)
        lease.complete(executed=True, wall_time=wall,
                       worker=self.worker_id, meta=meta)
        self.counters["executed"] += 1
        return digest

    def _execute(self, spec: RunSpec,
                 lease: Lease) -> Tuple[Dict, RunSpec, List[str]]:
        """One execution: (payload, executed spec, the failure kind
        behind each ladder descent)."""
        if self.task_fn is not execute_spec:
            lease.beat(stage="execute")
            return self.task_fn(spec), spec, []
        cfg = self.resilience
        # The lease file doubles as the heartbeat file: the worker's
        # periodic beats (every checkpoint / progress cadence) are
        # exactly what keeps the lease from being stolen mid-simulation.
        if cfg is None:
            payload = execute_task(WorkerTask(
                spec=spec, heartbeat_path=str(lease.path)))
            return payload, spec, []
        # A stolen or retried lease means a previous owner may have left
        # checkpoints behind — resume rather than restart.
        resume = cfg.resume or (bool(cfg.checkpoint_every) and (
            lease.stolen or lease.attempt > 1))
        checkpoint_root = (str(self.checkpoint_root)
                           if self.checkpoint_root is not None
                           and (cfg.checkpoint_every or resume) else None)
        hang_seconds = (max(4 * cfg.heartbeat_timeout, 1.0)
                        if self.forked else 0.0)
        steps = ladder_steps(spec)
        reasons: list = []
        descents: List[str] = []
        for idx, step in enumerate(steps):
            executed_spec = degrade_spec(spec, step)
            try:
                payload = execute_task(WorkerTask(
                    spec=executed_spec,
                    heartbeat_path=str(lease.path),
                    checkpoint_every=cfg.checkpoint_every,
                    checkpoint_root=checkpoint_root,
                    resume=resume,
                    deadline=cfg.deadline,
                    rss_budget_mb=cfg.rss_budget_mb,
                    hang_seconds=hang_seconds))
            except Exception as exc:  # noqa: BLE001 - classified below
                kind = classify_failure(exc)
                if kind is not None and idx + 1 < len(steps):
                    reasons.append(f"{step}: {kind}: {exc}")
                    descents.append(kind)
                    lease.beat(stage=f"degrade:{steps[idx + 1]}")
                    continue
                raise
            if reasons:
                payload.setdefault("resilience", {})["reasons"] = reasons
            return payload, executed_spec, descents
        raise RuntimeError(  # pragma: no cover - unreachable by design
            f"{spec.label()}: degradation ladder exhausted")

    # -- the loop --------------------------------------------------------------------

    def drain(self, prefer=None, max_jobs: Optional[int] = None,
              idle_exit: Optional[float] = None,
              poll: float = 0.1) -> int:
        """Consume jobs until the queue starves; returns jobs processed.

        With ``idle_exit`` the worker lingers that many seconds after
        the queue empties (a daemon-ish mode for CI: it survives gaps
        between submissions); without it, one starved claim ends the
        drain.  ``max_jobs`` bounds the total for tests.
        """
        processed = 0
        idle_since: Optional[float] = None
        while max_jobs is None or processed < max_jobs:
            digest = self.step(prefer=prefer)
            if digest is not None:
                processed += 1
                idle_since = None
                continue
            if idle_exit is None:
                break
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if now - idle_since > idle_exit:
                break
            time.sleep(poll)
        return processed

    # -- summary ---------------------------------------------------------------------

    def summary(self) -> Dict:
        """This worker's run record: its counters under the record's
        names, its ladder rungs, its store's counters and, when a fault
        plan is installed, the fault scorecard."""
        doc = {
            "schema": SCHEMA,
            "worker": self.worker_id,
            "pid": os.getpid(),
            "started": self.started,
            "finished": time.time(),
            **self.counters,
            "ladder": dict(self.ladder),
            "backend": self.backend.counters_snapshot(),
        }
        faults = faultinject.snapshot()
        if faults is not None:
            doc["faults"] = faults
        return doc

    def write_summary(self, path: Optional[os.PathLike] = None) -> Path:
        """Persist the counters (default ``<root>/workers/<id>.json``)
        so a multi-process run can audit who simulated what.

        Crash-safe like :meth:`ResultCache.put`: private temp file,
        flush + fsync, atomic rename — a reader (``collect_fleet``)
        sees the old complete summary or the new one, never a torn one.
        """
        if path is None:
            workers_dir = self.queue.root / "workers"
            workers_dir.mkdir(parents=True, exist_ok=True)
            path = workers_dir / f"{self.worker_id}.json"
        path = Path(path)
        blob = json.dumps(self.summary(), sort_keys=True, indent=2)
        if faultinject.fires("worker.summary.torn"):
            # Chaos: a half-written summary at the final path (the
            # pre-hardening failure mode).  collect_fleet must skip and
            # count it, never raise.
            path.write_text(blob[:max(1, len(blob) // 2)],
                            encoding="utf-8")
            return path
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path
