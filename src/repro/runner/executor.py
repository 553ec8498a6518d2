"""Run orchestration: cache lookup, then one execution engine.

The :class:`Runner` turns a batch of :class:`~repro.runner.spec.RunSpec`
into :class:`~repro.sim.stats.SimStats`:

1. the content-addressed :class:`~repro.runner.cache.ResultCache`
   answers what it already holds (near-instant, zero simulations), and
   identical specs in one batch coalesce into one execution;
2. every miss goes to one
   :meth:`~repro.service.client.ServiceClient.run_batch` call — on the
   configured service root, or on a private per-call root whose queue
   lives only for the call (named after the owner's pid, so the next
   private run removes it if the owner was killed).  The queue and its
   :class:`~repro.service.worker.ServiceWorker` are the only way a miss
   executes: ``jobs=1`` is one inline worker, anything else ``jobs``
   forked local workers with a watchdog.  The failure policy is the
   queue's: a failed attempt is requeued until ``retries + 1`` attempts,
   then one terminal :class:`RunResult` carries the error.

Workers write each result through the cache, and every outcome is
recorded in the attached :class:`~repro.runner.telemetry.RunnerTelemetry`.

Results are deterministic: a spec fully determines its statistics, so
inline, forked and cached executions of the same spec yield identical
``SimStats`` snapshots (asserted by the test suite).
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..sim.stats import SimStats
from .cache import ResultCache
from .spec import RunSpec
from .telemetry import RunnerTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.config import ResilienceConfig
    from ..service.client import ServiceClient, ServiceConfig

#: Sentinel meaning "build the default cache from the environment".
_DEFAULT_CACHE = object()

#: Sentinel meaning "enable service mode iff REPRO_SERVICE_ROOT is set".
_DEFAULT_SERVICE = object()


#: Private roots are ``repro-run-<owner pid>-<random>`` under the temp
#: directory; the pid lets a later run reap a root whose owner died
#: without cleaning up (SIGKILL).
_PRIVATE_ROOT_PREFIX = "repro-run-"
_PRIVATE_ROOT_RE = re.compile(re.escape(_PRIVATE_ROOT_PREFIX) + r"(\d+)-.")


def _pid_alive(pid: int) -> bool:
    """False only when no process ``pid`` exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass  # someone else's process, or a number no pid can take
    return True


def _reap_dead_private_roots(tmpdir: str) -> None:
    """Remove private roots whose owner process no longer exists.

    A live pid keeps its roots, even when the pid was recycled by an
    unrelated process: a leaked directory is cheaper than deleting a
    running batch's queue.
    """
    try:
        names = os.listdir(tmpdir)
    except OSError:
        return
    for name in names:
        match = _PRIVATE_ROOT_RE.match(name)
        if match is not None and not _pid_alive(int(match.group(1))):
            shutil.rmtree(os.path.join(tmpdir, name), ignore_errors=True)


class RunnerError(RuntimeError):
    """A run failed after exhausting its retry budget."""


@dataclass
class RunResult:
    """Outcome of one spec: statistics or an error, plus provenance."""

    spec: RunSpec
    stats: Optional[SimStats] = None
    cached: bool = False
    wall_time: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    stats_dict: Dict = field(default_factory=dict, repr=False)
    #: Metadata attached to the run: a resilient run's ``resilience``
    #: record (ladder rung, watchdog kills), a quarantined job's
    #: ``poisoned`` diagnostic, or whatever a custom ``task_fn`` put
    #: under the payload's ``metrics`` (kept in the cache entry).
    metrics: Dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.stats is not None


class Runner:
    """Executes run specs: cache lookups, then the queue engine."""

    def __init__(self, jobs: int = 1,
                 cache=_DEFAULT_CACHE,
                 retries: int = 1,
                 task_fn: Optional[Callable[[RunSpec], Dict]] = None,
                 resilience: Optional["ResilienceConfig"] = None,
                 service=_DEFAULT_SERVICE):
        """
        Args:
            jobs: local workers; 1 runs everything in-process (unless
                ``resilience`` asks for a killable worker).
            cache: a :class:`ResultCache`, None to disable caching, or the
                default — honours ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``.
            retries: extra attempts after a failed one (on a private
                root; a service root's queue sets its own).
            task_fn: the unit of work (overridable for tests): a
                callable ``spec -> payload``; None is
                :func:`~repro.runner.worker.execute_task`, which only a
                cache miss imports.
            resilience: budgets, checkpoints and the watchdog timeout.
                Workers are then always forked, and the parent kills a
                worker whose heartbeat goes silent; budget and OOM
                failures walk the degradation ladder.
            service: a :class:`~repro.service.client.ServiceConfig`, a
                service root path, None for a private per-call root, or
                the default — honours ``REPRO_SERVICE_ROOT``.  On a
                service root the local workers share the queue with any
                external ``repro service worker`` processes, and
                results another worker paid for count as dedupe hits.
        """
        self.jobs = max(1, int(jobs))
        self.service = self._resolve_service(service)
        if cache is _DEFAULT_CACHE and self.service is not None:
            # In service mode the shared backend IS the cache: lookups,
            # write-backs and dedupe all go through the same store.
            cache = self.service.make_backend()
        self.cache: Optional[ResultCache] = (
            ResultCache.from_environment() if cache is _DEFAULT_CACHE
            else cache)
        self.retries = max(0, int(retries))
        self.telemetry = RunnerTelemetry()
        self.task_fn = task_fn
        self.resilience = resilience
        self._service_client: Optional["ServiceClient"] = None

    @staticmethod
    def _resolve_service(service) -> Optional["ServiceConfig"]:
        if service is None:
            return None
        # Lazy: repro.service imports runner modules at load time; a
        # top-level import here would close the cycle.
        from ..service.client import ServiceConfig
        if service is _DEFAULT_SERVICE:
            return ServiceConfig.from_environment()
        if isinstance(service, ServiceConfig):
            return service
        return ServiceConfig.resolve(service)

    # -- public API ------------------------------------------------------------------

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def stats(self, spec: RunSpec) -> SimStats:
        """Statistics for one spec; raises :class:`RunnerError` on failure."""
        result = self.run_one(spec)
        if not result.ok:
            raise RunnerError(
                f"{spec.label()} failed after {result.attempts} "
                f"attempt(s): {result.error}")
        return result.stats

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute a batch; the result list parallels the input order."""
        specs = list(specs)
        by_hash: Dict[str, RunResult] = {}
        order: List[str] = []
        pending: List[RunSpec] = []
        for spec in specs:
            digest = spec.content_hash()
            order.append(digest)
            if digest in by_hash:
                continue
            cached = self._lookup(spec, digest)
            if cached is not None:
                by_hash[digest] = cached
            else:
                by_hash[digest] = RunResult(spec)
                pending.append(spec)
        if pending:
            for result in self._execute(pending):
                by_hash[result.spec.content_hash()] = result
        if self.cache is not None:
            self.telemetry.cache_backend = self.cache.counters_snapshot()
        return [by_hash[digest] for digest in order]

    # -- cache -----------------------------------------------------------------------

    def _lookup(self, spec: RunSpec, digest: str) -> Optional[RunResult]:
        if self.cache is None:
            return None
        entry = self.cache.get(spec)
        if entry is None:
            return None
        wall = entry.get("wall_time", 0.0)
        self.telemetry.counters["cache_hits"] += 1
        self.telemetry.records.append({"spec": digest, "label": spec.label(),
                                       "cached": True, "wall_time": wall,
                                       "attempts": 0})
        return RunResult(spec, stats=SimStats.from_dict(entry["stats"]),
                         cached=True, wall_time=wall,
                         stats_dict=entry["stats"],
                         metrics=entry.get("metrics") or {})

    # -- execution -------------------------------------------------------------------

    def _execute(self, specs: List[RunSpec]) -> List[RunResult]:
        """All misses in one ``run_batch`` call: on the service root, or
        on a private root that lives for this call only."""
        # Lazy: repro.service imports runner modules at load time; a
        # top-level import here would close the cycle.
        from ..service.client import ServiceClient, ServiceConfig

        with contextlib.ExitStack() as stack:
            client = self._service_client
            if self.service is None:
                tmpdir = tempfile.gettempdir()
                _reap_dead_private_roots(tmpdir)
                root = stack.enter_context(tempfile.TemporaryDirectory(
                    prefix=f"{_PRIVATE_ROOT_PREFIX}{os.getpid()}-",
                    dir=tmpdir))
                config = ServiceConfig(root=Path(root),
                                       max_attempts=self.retries + 1)
                client = ServiceClient(
                    backend=(self.cache if self.cache is not None
                             else config.make_backend()),
                    config=config)
                client.checkpoint_root = None
                # This runner just missed every spec it sends, and no
                # other client shares the queue: submit need not look
                # them up again (the worker still dedupes).
                client.submit_checks_backend = False
            elif client is None:
                client = self._service_client = ServiceClient(
                    backend=self.cache, config=self.service)
            return client.run_batch(specs, telemetry=self.telemetry,
                                    task_fn=self.task_fn, jobs=self.jobs,
                                    resilience=self.resilience)
