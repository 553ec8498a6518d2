"""Async batch API: ``submit(specs) -> batch_id``, ``status``, ``fetch``.

A batch is content-addressed like everything else in the service: its id
is a digest of its member spec hashes, so resubmitting the same batch —
from the same client or another one — is idempotent and lands on the
same manifest.  ``submit`` enqueues only the specs the shared backend
does not already hold; ``status`` folds queue state and backend
occupancy into per-batch progress; ``fetch`` materialises
:class:`~repro.runner.executor.RunResult` objects once the batch is
complete.  A client keeps every result it holds in one map, so it reads
each result from the backend at most once.

:meth:`ServiceClient.run_batch` is the one execution engine: every
:class:`~repro.runner.executor.Runner` cache miss goes through it, on
the configured service root or on a private per-call root.  It submits,
then *participates* — the client runs its own
:class:`~repro.service.local.LocalWorkers` while waiting, preferring
its own jobs, so a lone process still completes (it is its own worker)
while any external workers share the load and concurrent clients dedupe
against each other through the queue and the backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..resilience.config import ResilienceConfig
from ..resilience.ladder import STEP_FULL
from ..runner.cache import ResultCache
from ..runner.executor import RunResult
from ..runner.spec import RunSpec
from ..runner.telemetry import RunnerTelemetry
from .queue import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_POISON_THRESHOLD,
    DEFAULT_VISIBILITY_TIMEOUT,
    JobQueue,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .local import LocalWorkers

#: Environment variable naming the service root.
ENV_SERVICE_ROOT = "REPRO_SERVICE_ROOT"

#: Default service root when the CLI is used without --root or the env.
DEFAULT_SERVICE_ROOT = ".repro-service"

#: Hex digits of the batch digest used as the batch id.
_BATCH_ID_DIGITS = 12


@dataclass
class ServiceConfig:
    """Where the service lives and how its queue behaves."""

    root: Path
    visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: Lease steals before the queue quarantines a job as poison.
    poison_threshold: int = DEFAULT_POISON_THRESHOLD
    #: Client poll cadence while waiting on a batch: the *base* of a
    #: bounded exponential backoff (idle polls double the sleep up to
    #: ``poll_max``, with deterministic batch-hash jitter so a thousand
    #: waiting clients never thunder in phase).
    poll: float = 0.05
    #: Ceiling of the idle-poll backoff.
    poll_max: float = 2.0
    #: Whether a waiting client also works the queue (recommended: a
    #: lone client then never deadlocks waiting for absent workers).
    inline_worker: bool = True

    @classmethod
    def from_environment(cls) -> Optional["ServiceConfig"]:
        """Config from ``REPRO_SERVICE_ROOT``, or None when it is unset."""
        root = os.environ.get(ENV_SERVICE_ROOT)
        return cls(root=Path(root)) if root else None

    @classmethod
    def resolve(cls, root: Optional[os.PathLike] = None
                ) -> "ServiceConfig":
        """Explicit root > environment > ``.repro-service``."""
        if root is not None:
            return cls(root=Path(root))
        return cls.from_environment() or cls(
            root=Path(DEFAULT_SERVICE_ROOT))

    def make_backend(self, salt: Optional[str] = None) -> ResultCache:
        """The shared result store, ``<root>/cache``."""
        return ResultCache(root=self.root / "cache", salt=salt)

    def make_queue(self) -> JobQueue:
        return JobQueue(self.root,
                        visibility_timeout=self.visibility_timeout,
                        max_attempts=self.max_attempts,
                        poison_threshold=self.poison_threshold)


def batch_id_for(hashes: Sequence[str]) -> str:
    """Content address of a batch: digest of its sorted member hashes."""
    digest = hashlib.sha256("\n".join(sorted(set(hashes))).encode())
    return digest.hexdigest()[:_BATCH_ID_DIGITS]


class ServiceClient:
    """Submit/status/fetch against one service root."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 backend: Optional[ResultCache] = None,
                 config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig.resolve(root)
        self.root = self.config.root
        self.queue = self.config.make_queue()
        self.backend = backend if backend is not None \
            else self.config.make_backend()
        self.batches_dir = self.root / "batches"
        #: Where this client's workers checkpoint; None = the default
        #: CheckpointStore root (a private root is deleted after its
        #: batch, and ``--resume`` must outlive it).
        self.checkpoint_root: Optional[Path] = self.root / "checkpoints"
        #: Whether :meth:`submit` skips specs the backend already holds.
        #: A :class:`~repro.runner.executor.Runner` on a private root
        #: turns it off: it has just missed every spec it submits.
        self.submit_checks_backend = True
        #: hash -> cache entry of every result this client holds: the
        #: hits :meth:`submit` read, what its own workers executed and
        #: what the wait loop read.  :meth:`fetch` reads the backend
        #: only for what this map lacks.
        self.entries: Dict[str, Dict] = {}

    # -- submit ----------------------------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> str:
        """Enqueue a batch; returns its (content-addressed) batch id.

        Specs the shared backend already holds are not enqueued — the
        cache is the product, the queue only carries misses.  Duplicate
        specs within the batch collapse to one job, and a concurrent
        identical submission from another client collapses against the
        same pending files.
        """
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_hash(), spec)
        batch_id = batch_id_for(list(unique))
        enqueued = 0
        cached = 0
        for digest, spec in unique.items():
            entry = (self.backend.get(spec) if self.submit_checks_backend
                     else None)
            if entry is not None:
                self.entries[digest] = entry
                cached += 1
                continue
            # Whatever this client held, the backend has lost it since.
            self.entries.pop(digest, None)
            _, new = self.queue.submit(spec)
            enqueued += int(new)
        manifest = {
            "batch": batch_id,
            "created": time.time(),
            "hashes": list(unique),
            "specs": [spec.key() for spec in unique.values()],
            "labels": [spec.label() for spec in unique.values()],
            "enqueued": enqueued,
            "cached_at_submit": cached,
        }
        self.batches_dir.mkdir(parents=True, exist_ok=True)
        path = self.batches_dir / f"{batch_id}.json"
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(manifest, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, path)
        return batch_id

    def load_batch(self, batch_id: str) -> Dict:
        path = self.batches_dir / f"{batch_id}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"unknown batch {batch_id!r} under "
                           f"{self.root}") from None

    def _batch_specs(self, manifest: Dict) -> List[RunSpec]:
        return [RunSpec.from_key(key) for key in manifest["specs"]]

    # -- status ----------------------------------------------------------------------

    def status(self, batch_id: str) -> Dict:
        """Per-batch progress: done/failed/poisoned/running/queued/
        lost/missing.

        ``poisoned`` jobs are terminal (the batch completes around
        them, reported as failures with their quarantine diagnostic).
        ``lost`` flags a done record whose backend entry did not
        survive (torn put, eviction) — the wait loop resubmits those.
        Every entry is read afresh, and :attr:`entries` is neither
        consulted nor filled: an observer re-polls this to find entries
        torn after some client read them.
        """
        return self._status(self.load_batch(batch_id), self._fresh_state)

    def _status(self, manifest: Dict,
                state_of: Callable[[RunSpec], str]) -> Dict:
        """The progress of a loaded batch, each job's state from
        ``state_of``."""
        states = {spec.content_hash(): state_of(spec)
                  for spec in self._batch_specs(manifest)}
        counts = {state: 0 for state in
                  ("done", "failed", "poisoned", "running", "queued",
                   "lost", "missing")}
        for state in states.values():
            counts[state] = counts.get(state, 0) + 1
        total = len(states)
        terminal = counts["done"] + counts["failed"] + counts["poisoned"]
        return {
            "batch": manifest["batch"],
            "total": total,
            **counts,
            "complete": terminal >= total,
            "states": states,
        }

    def _fresh_state(self, spec: RunSpec) -> str:
        """One job's state read afresh: its entry, then the queue."""
        if self.backend.get(spec) is not None:
            return "done"
        digest = spec.content_hash()
        state = self.queue.state_of(digest)
        if state == "done" \
                and self._locate_done(self.queue.read_done(digest)) is None:
            return "lost"
        return state

    def _held_state(self, spec: RunSpec) -> str:
        """One job's state in the wait loop: done when :attr:`entries`
        holds its result.  Otherwise the backend is read only once the
        queue no longer holds the job as queued or running, and the
        entry read is kept, so draining a batch costs one backend read
        per job, not one per job per poll."""
        digest = spec.content_hash()
        if digest in self.entries:
            return "done"
        state = self.queue.state_of(digest)
        if state in ("queued", "running"):
            return state
        entry = self.backend.get(spec)
        if entry is None and state == "done":
            entry = self._locate_done(self.queue.read_done(digest))
        if entry is None:
            return "lost" if state == "done" else state
        self.entries[digest] = entry
        return "done"

    def _locate_done(self, record: Optional[Dict]) -> Optional[Dict]:
        """The entry an ok done ``record`` redirects to when its result
        is not under the spec's own hash: the executed (degraded) spec's.
        None = the result is lost — the queue says finished but no entry
        survives (a torn write, an eviction), and at-least-once covers
        this too: resubmission, not a hang."""
        if not (record and record.get("ok") and record.get("executed_spec")):
            return None
        return self.backend.get(RunSpec.from_key(record["executed_spec"]))

    # -- fetch -----------------------------------------------------------------------

    def fetch(self, batch_id: str) -> List[RunResult]:
        """Results for a complete batch, in manifest (submission) order.

        Raises :class:`RuntimeError` while work is still outstanding —
        poll :meth:`status` or use :meth:`wait` first.
        """
        specs = self._batch_specs(self.load_batch(batch_id))
        results = [self._result_for(spec)[0] for spec in specs]
        outstanding = [spec.label() for spec, result in zip(specs, results)
                       if result is None]
        if outstanding:
            raise RuntimeError(
                f"batch {batch_id} has {len(outstanding)} unfinished "
                f"job(s): {', '.join(outstanding[:5])}")
        return results

    def _result_for(self, spec: RunSpec, local_ids=frozenset()
                    ) -> Tuple[Optional[RunResult], Optional[Dict]]:
        """A terminal RunResult for one spec (None while in flight),
        and the job's done record.

        The backend is read only when :attr:`entries` lacks the result.
        A done record may redirect to a *degraded* spec (the ladder
        ran on a worker): the result then comes from the degraded hash,
        honestly labelled through its metrics' ``resilience`` rung.  A
        result that one of ``local_ids`` executed is ``cached=False``
        and carries its attempts.  A poisoned job surfaces as a terminal
        failure carrying the quarantine diagnostic — never a hang.
        """
        digest = spec.content_hash()
        record = self.queue.read_done(digest)
        entry = self.entries.get(digest)
        if entry is None:
            entry = self.backend.get(spec) or self._locate_done(record)
        if entry is not None:
            mine = _executed_by(record, local_ids)
            return RunResult.from_entry(
                spec, entry, cached=not mine,
                attempts=record["attempts"] if mine else 0), record
        if record is not None and not record.get("ok"):
            return RunResult(spec, attempts=record.get("attempts", 1),
                             error=record.get("error", "failed")), record
        poisoned = self.queue.read_poisoned(digest)
        if poisoned is not None:
            detail = (poisoned.get("last_error")
                      or "every worker died or wedged mid-job")
            return RunResult(
                spec, attempts=int(poisoned.get("attempts") or 0),
                error=f"poisoned after {poisoned.get('steals', 0)} "
                      f"lease steal(s): {detail}",
                metrics={"poisoned": poisoned}), None
        return None, record

    # -- wait / synchronous driving --------------------------------------------------

    def _poll_delay(self, idle_rounds: int, key: str) -> float:
        """Bounded exponential backoff with deterministic hash jitter.

        Idle polls double the sleep from ``config.poll`` up to
        ``config.poll_max``.  The jitter in [0, 0.5) of the delay is a
        pure function of ``(key, round)`` — the batch id is itself a
        digest of the member spec hashes, so a fleet of clients waiting
        on *different* batches desynchronises while a replay of the
        same batch sleeps identically (chaos runs stay reproducible).
        """
        base = max(self.config.poll, 1e-4)
        delay = min(self.config.poll_max,
                    base * (2 ** min(idle_rounds, 16)))
        digest = hashlib.sha256(f"{key}:{idle_rounds}".encode()).digest()
        jitter = int.from_bytes(digest[:4], "big") / 2 ** 33
        return delay * (1.0 + jitter)

    @staticmethod
    def _progress_fingerprint(state: Dict) -> tuple:
        return (state.get("done", 0), state.get("failed", 0),
                state.get("poisoned", 0), state.get("running", 0),
                state.get("queued", 0))

    def wait(self, batch_id: str, timeout: Optional[float] = None,
             task_fn: Optional[Callable[..., Dict]] = None) -> Dict:
        """Block until the batch completes (or the timeout lapses).

        With ``config.inline_worker`` the waiting client claims and
        executes jobs itself, preferring the batch's own hashes.
        Returns the final :meth:`status` dict — poisoned jobs count as
        terminal, so a poisoned batch returns
        (with ``status["poisoned"] > 0``) rather than hanging.  Idle
        polls back off exponentially (:meth:`_poll_delay`).
        """
        return self._drive(batch_id, self._workers(task_fn), timeout)

    def _workers(self, task_fn: Optional[Callable[..., Dict]],
                 jobs: int = 1,
                 resilience: Optional[ResilienceConfig] = None
                 ) -> Optional[LocalWorkers]:
        """This client's own workers (None without
        ``config.inline_worker``): each result they execute lands in
        :attr:`entries`."""
        if not self.config.inline_worker:
            return None
        from .local import LocalWorkers
        workers = LocalWorkers(self.queue, self.backend, task_fn, jobs,
                               resilience, self.checkpoint_root)
        workers.results = self.entries
        return workers

    def _drive(self, batch_id: str, workers: Optional[LocalWorkers],
               timeout: Optional[float]) -> Dict:
        """The :meth:`wait` loop: run ``workers`` (if any) on the
        batch's own jobs until the queue starves them, read the status
        over :attr:`entries`, heal lost jobs, back off while idle."""
        manifest = self.load_batch(batch_id)
        specs = self._batch_specs(manifest)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        idle_rounds = 0
        last_fingerprint: Optional[tuple] = None
        while True:
            if workers is not None:
                workers.work(specs, deadline)
            state = self._status(manifest, self._held_state)
            if state["complete"]:
                return state
            self._heal_missing(state, manifest)
            fingerprint = self._progress_fingerprint(state)
            progressed = fingerprint != last_fingerprint
            last_fingerprint = fingerprint
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"batch {batch_id} incomplete after {timeout}s: "
                    f"{state['done']}/{state['total']} done")
            if progressed:
                idle_rounds = 0
            else:
                time.sleep(self._poll_delay(idle_rounds, batch_id))
                idle_rounds += 1

    def _heal_missing(self, state: Dict, manifest: Dict) -> None:
        """Resubmit jobs that fell through every crack: a ``missing``
        job lost both its result and its pending file, a ``lost`` one
        finished but its backend entry did not survive (torn put,
        eviction).  at-least-once includes losing races — and losing
        writes."""
        if state.get("missing") or state.get("lost"):
            for spec in self._batch_specs(manifest):
                if state["states"].get(spec.content_hash()) in (
                        "missing", "lost"):
                    self.queue.resubmit(spec)

    def run_batch(self, specs: Sequence[RunSpec],
                  telemetry: Optional[RunnerTelemetry] = None,
                  task_fn: Optional[Callable[..., Dict]] = None,
                  timeout: Optional[float] = None, jobs: int = 1,
                  resilience: Optional[ResilienceConfig] = None
                  ) -> List[RunResult]:
        """Submit + drain + fetch: the one execution engine.

        Returns one :class:`RunResult` per unique spec.  The client's
        own workers (:class:`LocalWorkers`: ``jobs`` of them, forked and
        watched unless ``jobs=1`` without ``resilience``) drain the
        queue alongside any external ones.  Results they executed are
        ``cached=False`` and folded into ``telemetry`` from the done
        records; results other workers or earlier batches paid for
        surface as dedupe hits.  With ``resilience`` each result also
        carries ``metrics["resilience"]``: its ladder rung and
        watchdog kills.
        """
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_hash(), spec)
        batch_id = self.submit(list(unique.values()))
        workers = self._workers(task_fn, jobs, resilience)
        self._drive(batch_id, workers, timeout)
        local_ids = workers.ids if workers else frozenset()
        kills = workers.kills if workers else {}
        results: List[RunResult] = []
        for digest, spec in unique.items():
            result, record = self._result_for(spec, local_ids)
            if resilience is not None:
                meta = dict(result.metrics.get("resilience") or {})
                meta.setdefault("ladder_step", (record or {}).get(
                    "ladder_step", STEP_FULL))
                meta["watchdog_kills"] = len(kills.get(digest, ()))
                for key in ("executed_spec", "resumed_from_cycle",
                            "checkpoints"):
                    if key in (record or {}):
                        meta[key] = record[key]
                result.metrics = dict(result.metrics, resilience=meta)
            results.append(result)
            if telemetry is not None:
                _fold(telemetry, spec, result,
                      record if _executed_by(record, local_ids) else None,
                      kills.get(digest, ()))
        return results


def _executed_by(record: Optional[Dict], worker_ids) -> bool:
    """True when the done record says one of ``worker_ids`` executed
    the job (rather than finding its result already stored)."""
    return (record is not None and bool(record.get("executed"))
            and record.get("worker") in worker_ids)


def _fold(telemetry: RunnerTelemetry, spec: RunSpec, result: RunResult,
          record: Optional[Dict], kills) -> None:
    """Write one batch result into ``telemetry``'s counters and records.
    ``record`` is the done record when the client's own workers executed
    the job (their events happened in other processes, or without a
    telemetry sink)."""
    c = telemetry.counters
    c["watchdog_kills"] += len(kills)
    row = {"spec": spec.content_hash(), "label": spec.label(),
           "cached": record is None, "wall_time": result.wall_time,
           "attempts": result.attempts}
    if record is None and result.ok:
        # Another worker (or a concurrent client) paid for this
        # simulation: a service-level dedupe.
        c["deduped"] += 1
        telemetry.records.append(dict(row, deduped=True, wall_time=0.0))
        return
    if record is not None:
        c["launched"] += record["attempts"]
        descents = len(record.get("degraded_after", ()))
        c["degraded"] += descents > 0
        c["descents"] += descents
        c["resumes"] += record.get("resumed_from_cycle") is not None
        c["checkpoints"] += record.get("checkpoints", 0)
    c["retries"] += max(result.attempts - 1, 0)
    if result.ok:
        c["executed"] += 1
        telemetry.records.append(row)
        return
    c["poisoned"] += "poisoned" in result.metrics
    c["failures"] += 1
