"""Run orchestration: cache lookup, parallel execution, retry, fallback.

The :class:`Runner` turns a batch of :class:`~repro.runner.spec.RunSpec`
into :class:`~repro.sim.stats.SimStats`, in this order of preference:

1. the content-addressed :class:`~repro.runner.cache.ResultCache`
   (near-instant, zero simulations);
2. a ``ProcessPoolExecutor`` across ``jobs`` worker processes, with
   bounded retry of transient failures;
3. in-process serial execution — both the one-job fast path and the
   graceful fallback when a process pool cannot be used (broken pool,
   unpicklable spec, sandboxed interpreter).

Every successful execution is written back to the cache, and every
outcome is recorded in the attached
:class:`~repro.runner.telemetry.RunnerTelemetry`.  Identical specs in one
batch are coalesced into a single execution.

Results are deterministic: a spec fully determines its statistics, so
serial, parallel and cached executions of the same spec yield identical
``SimStats`` snapshots (asserted by the test suite).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..sim.stats import SimStats
from .cache import ResultCache
from .spec import RunSpec
from .telemetry import RunnerTelemetry
from .worker import execute_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.supervisor import ResilienceConfig
    from ..service.client import ServiceConfig

#: Sentinel meaning "build the default cache from the environment".
_DEFAULT_CACHE = object()

#: Sentinel meaning "enable service mode iff REPRO_SERVICE_ROOT is set".
_DEFAULT_SERVICE = object()


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
    #: Metadata attached to the run, kept in the cache entry: the
    #: supervisor's ``resilience`` record, a quarantined job's
    #: ``poisoned`` diagnostic, or whatever a custom ``task_fn`` put
    #: under the payload's ``metrics``.
    metrics: Dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.stats is not None


class Runner:
    """Executes run specs with caching, parallelism and retries."""

    def __init__(self, jobs: int = 1,
                 cache=_DEFAULT_CACHE,
                 retries: int = 1,
                 telemetry: Optional[RunnerTelemetry] = None,
                 task_fn: Callable[[RunSpec], Dict] = execute_spec,
                 resilience: Optional["ResilienceConfig"] = None,
                 service=_DEFAULT_SERVICE):
        """
        Args:
            jobs: worker processes; 1 runs everything in-process.
            cache: a :class:`ResultCache`, None to disable caching, or the
                default — honours ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``.
            retries: extra attempts after a failed one.
            telemetry: shared counters; a fresh instance by default.
            task_fn: the unit of work (overridable for tests); must be a
                picklable module-level callable for parallel execution.
            resilience: when given, cache misses execute under the
                :class:`~repro.resilience.supervisor.Supervisor`
                (heartbeat watchdog, checkpoint/resume, circuit breaker,
                degradation ladder) instead of the plain pool.
            service: a :class:`~repro.service.client.ServiceConfig`, a
                service root path, None to force standalone mode, or the
                default — honours ``REPRO_SERVICE_ROOT``.  With a
                service configured the runner keeps its synchronous
                interface but becomes a submit+wait client of the
                shared queue/backend: cache misses are enqueued, an
                inline worker drains them (alongside any external
                ``repro service worker`` processes), and results
                another worker paid for count as dedupe hits.
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
        self.telemetry = telemetry or RunnerTelemetry()
        self.task_fn = task_fn
        self.resilience = resilience
        self._service_client = None

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
            if self.service is not None:
                executed = self._run_service(pending)
            elif self.resilience is not None:
                executed = self._run_supervised(pending)
            elif self.jobs > 1 and len(pending) > 1:
                executed = self._run_parallel(pending)
            else:
                executed = [self._run_serial(spec) for spec in pending]
            for result in executed:
                by_hash[result.spec.content_hash()] = result
        if self.cache is not None:
            self.telemetry.record_backend_stats(
                self.cache.counters_snapshot(),
                backend_id=f"{type(self.cache).__name__}:{id(self.cache)}")
        return [by_hash[digest] for digest in order]

    # -- cache -----------------------------------------------------------------------

    def _lookup(self, spec: RunSpec, digest: str) -> Optional[RunResult]:
        if self.cache is None:
            return None
        entry = self.cache.get(spec)
        if entry is None:
            return None
        wall = entry.get("wall_time", 0.0)
        self.telemetry.record_cache_hit(spec.label(), wall, digest)
        return RunResult(spec, stats=SimStats.from_dict(entry["stats"]),
                         cached=True, wall_time=wall,
                         stats_dict=entry["stats"],
                         metrics=entry.get("metrics") or {})

    def _complete(self, spec: RunSpec, payload: Dict,
                  attempts: int) -> RunResult:
        wall = payload.get("wall_time", 0.0)
        metrics = payload.get("metrics") or {}
        if self.cache is not None:
            self.cache.put(spec, payload["stats"], wall, metrics=metrics)
        self.telemetry.record_complete(spec.label(), wall, attempts,
                                       spec.content_hash())
        return RunResult(spec, stats=SimStats.from_dict(payload["stats"]),
                         wall_time=wall, attempts=attempts,
                         stats_dict=payload["stats"], metrics=metrics)

    def _fail(self, spec: RunSpec, error: BaseException,
              attempts: int) -> RunResult:
        message = f"{type(error).__name__}: {error}"
        self.telemetry.record_failure(spec.label(), message, attempts)
        return RunResult(spec, attempts=attempts, error=message)

    # -- serial execution ------------------------------------------------------------

    def _run_serial(self, spec: RunSpec, first_attempt: int = 1
                    ) -> RunResult:
        last_error: Optional[BaseException] = None
        attempt = first_attempt
        while attempt <= self.retries + 1:
            self.telemetry.record_launch(spec.label())
            try:
                payload = self.task_fn(spec)
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last_error = exc
                attempt += 1
                continue
            return self._complete(spec, payload, attempt)
        return self._fail(spec, last_error, attempt - 1)

    # -- parallel execution ----------------------------------------------------------

    def _run_parallel(self, specs: List[RunSpec]) -> List[RunResult]:
        """Fan out over a process pool; degrade to serial on pool trouble.

        Runs that raised or crashed are retried serially in-process (one
        pool attempt counts against the retry budget), so a flaky pool
        can slow a batch down but not fail it.
        """
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(specs)))
        except (OSError, ValueError):  # pragma: no cover - depends on host
            return [self._run_serial(spec) for spec in specs]
        results: List[RunResult] = []
        pool_broken = False
        futures = []
        for spec in specs:
            self.telemetry.record_launch(spec.label())
            try:
                futures.append(pool.submit(self.task_fn, spec))
            except Exception:  # pragma: no cover - submit-time break
                futures.append(None)
        for spec, future in zip(specs, futures):
            if future is None or pool_broken:
                results.append(self._run_serial(spec))
                continue
            try:
                payload = future.result()
            except concurrent.futures.process.BrokenProcessPool as exc:
                pool_broken = True
                results.append(self._retry_after_pool(spec, exc))
            except Exception as exc:  # noqa: BLE001 - worker raised
                results.append(self._retry_after_pool(spec, exc))
            else:
                results.append(self._complete(spec, payload, 1))
        pool.shutdown(wait=not pool_broken, cancel_futures=True)
        return results

    def _retry_after_pool(self, spec: RunSpec,
                          error: BaseException) -> RunResult:
        if self.retries < 1:
            return self._fail(spec, error, 1)
        result = self._run_serial(spec, first_attempt=2)
        return result

    # -- service execution -----------------------------------------------------------

    def _run_service(self, specs: List[RunSpec]) -> List[RunResult]:
        """Submit cache misses to the shared queue and drain them with
        an inline worker: the synchronous interface over the service."""
        from ..service.client import ServiceClient

        if self._service_client is None:
            self._service_client = ServiceClient(backend=self.cache,
                                                 config=self.service)
        return self._service_client.run_batch(
            specs, telemetry=self.telemetry, task_fn=self.task_fn)

    # -- supervised execution --------------------------------------------------------

    def _run_supervised(self, specs: List[RunSpec]) -> List[RunResult]:
        """Execute under the resilience supervisor (watchdog, checkpoints,
        circuit breaker, degradation ladder).

        A degraded run's payload is cached under the **degraded** spec's
        own content hash — never the original's — so a later request for
        the full-capability spec is an honest cache miss.
        """
        # Lazy: repro.resilience imports runner modules at load time; a
        # top-level import here would close the cycle.
        from ..resilience.supervisor import Supervisor
        from .worker import WorkerTask, execute_task

        cfg = self.resilience

        def make_task(spec, attempt, heartbeat_path, resume,
                      hang_seconds):
            return WorkerTask(spec=spec, attempt=attempt,
                              heartbeat_path=heartbeat_path,
                              checkpoint_every=cfg.checkpoint_every,
                              resume=resume, deadline=cfg.deadline,
                              rss_budget_mb=cfg.rss_budget_mb,
                              hang_seconds=hang_seconds,
                              sync_faults=True)

        supervisor = Supervisor(cfg, task_fn=execute_task,
                                make_task=make_task, jobs=self.jobs,
                                telemetry=self.telemetry)
        results = []
        for outcome in supervisor.run(specs):
            meta: Dict = {
                "ladder_step": outcome.ladder_step,
                "watchdog_kills": outcome.watchdog_kills,
                "serial": outcome.serial,
                "skipped": outcome.skipped,
            }
            if outcome.reasons:
                meta["reasons"] = list(outcome.reasons)
            if outcome.executed_spec is not outcome.spec:
                meta["executed_spec"] = outcome.executed_spec.key()
            if outcome.payload is None:
                error = outcome.error or "skipped by supervisor"
                self.telemetry.record_failure(outcome.spec.label(),
                                              error, outcome.attempts)
                results.append(RunResult(
                    outcome.spec, attempts=outcome.attempts, error=error,
                    metrics={"resilience": meta}))
                continue
            payload = outcome.payload
            meta.update(payload.get("resilience") or {})
            wall = payload.get("wall_time", 0.0)
            metrics = dict(payload.get("metrics") or {})
            metrics["resilience"] = meta
            if self.cache is not None:
                self.cache.put(outcome.executed_spec, payload["stats"],
                               wall, metrics=metrics)
            self.telemetry.record_complete(
                outcome.spec.label(), wall, outcome.attempts,
                outcome.spec.content_hash())
            results.append(RunResult(
                outcome.spec,
                stats=SimStats.from_dict(payload["stats"]),
                wall_time=wall, attempts=outcome.attempts,
                stats_dict=payload["stats"], metrics=metrics))
        return results
