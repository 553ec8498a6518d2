"""Progress and outcome accounting for runner executions.

One :class:`RunnerTelemetry` instance accumulates across every
``Runner.run`` call that shares it, so an experiment harness can report a
whole session: how many simulations were launched vs. served from cache,
the cache hit rate, retries, failures, and wall time both simulated and
saved.  ``progress`` hooks let a CLI print per-run lines as they land.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class RunnerTelemetry:
    """Counters + per-run records for a sequence of runner executions."""

    def __init__(self,
                 progress: Optional[Callable[[str], None]] = None):
        #: Optional callback receiving one human-readable line per event.
        self.progress = progress
        self.launched = 0          # simulations actually executed
        self.cache_hits = 0        # results served from the on-disk cache
        self.memo_hits = 0         # results served from in-memory memos
        self.dedupe_hits = 0       # results another service worker paid for
        self.failures = 0          # runs that exhausted their retries
        self.retries = 0           # extra attempts after a failed one
        self.sim_wall_time = 0.0   # seconds spent inside simulations
        self.saved_wall_time = 0.0  # recorded cost of runs served cached
        # Resilience accounting.
        self.watchdog_kills = 0    # hung workers killed by the watchdog
        self.degraded_runs = 0     # ladder descents (re-adapted down)
        self.skips = 0             # specs quarantined as poison
        self.resumes = 0           # runs resumed from a checkpoint
        self.checkpoints = 0       # checkpoint files written
        #: Latest counter snapshot per cache backend the session touched,
        #: keyed by backend identity (see :meth:`record_backend_stats`).
        self._backend_stats: Dict[str, Dict] = {}
        self.records: List[Dict] = []

    # -- event sinks -----------------------------------------------------------------

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def record_launch(self, label: str) -> None:
        self.launched += 1
        self._emit(f"run  {label}")

    def record_complete(self, label: str, wall_time: float,
                        attempts: int, spec_hash: str) -> None:
        self.sim_wall_time += wall_time
        if attempts > 1:
            self.retries += attempts - 1
        self.records.append({"spec": spec_hash, "label": label,
                             "cached": False, "wall_time": wall_time,
                             "attempts": attempts})
        self._emit(f"done {label} ({wall_time:.2f}s"
                   + (f", attempt {attempts}" if attempts > 1 else "")
                   + ")")

    def record_cache_hit(self, label: str, saved_wall_time: float,
                         spec_hash: str) -> None:
        self.cache_hits += 1
        self.saved_wall_time += saved_wall_time
        self.records.append({"spec": spec_hash, "label": label,
                             "cached": True,
                             "wall_time": saved_wall_time, "attempts": 0})
        self._emit(f"hit  {label} (saved {saved_wall_time:.2f}s)")

    def record_memo_hit(self, label: str) -> None:
        self.memo_hits += 1

    def record_dedupe(self, label: str, spec_hash: str) -> None:
        """A service batch result some *other* worker simulated: from
        this client's point of view it is a cache hit it never had to
        schedule — counted separately so the exactly-one-simulation
        property of the service is visible in reports."""
        self.dedupe_hits += 1
        self.records.append({"spec": spec_hash, "label": label,
                             "cached": True, "deduped": True,
                             "wall_time": 0.0, "attempts": 0})
        self._emit(f"dupe {label} (completed by another worker)")

    def record_backend_stats(self, stats: Optional[Dict],
                             backend_id: Optional[str] = None) -> None:
        """Attach a backend counter snapshot.

        A backend's own counters are cumulative, so repeated snapshots
        from the *same* backend replace each other — but a telemetry
        instance shared across several ``Runner``s (or a runner whose
        cache was swapped between batches) sees more than one backend.
        Snapshots are therefore keyed by ``backend_id`` and *summed*
        across backends in :attr:`backend_stats`, so a session summary
        never silently reports only the last batch's backend activity.
        """
        if stats is not None:
            self._backend_stats[backend_id or "default"] = dict(stats)

    @property
    def backend_stats(self) -> Optional[Dict]:
        """Counters merged across every backend seen this session."""
        snapshots = list(self._backend_stats.values())
        if not snapshots:
            return None
        if len(snapshots) == 1:
            return dict(snapshots[0])
        merged: Dict = {}
        for snap in snapshots:
            for key, value in snap.items():
                if isinstance(value, bool) or not isinstance(value,
                                                             (int, float)):
                    if key in merged and merged[key] != value:
                        merged[key] = "mixed"
                    else:
                        merged.setdefault(key, value)
                else:
                    merged[key] = merged.get(key, 0) + value
        merged["backends"] = len(snapshots)
        return merged

    def record_failure(self, label: str, error: str,
                       attempts: int) -> None:
        self.failures += 1
        if attempts > 1:
            self.retries += attempts - 1
        self._emit(f"FAIL {label} after {attempts} attempt(s): {error}")

    # -- resilience events -----------------------------------------------------------

    def record_watchdog_kill(self, label: str, reason: str) -> None:
        self.watchdog_kills += 1
        self._emit(f"kill {label} ({reason})")

    def record_degraded(self, label: str, step: str, kind: str) -> None:
        self.degraded_runs += 1
        self._emit(f"down {label} -> {step} (after {kind})")

    def record_skip(self, label: str, reason: str) -> None:
        self.skips += 1
        self._emit(f"skip {label}: {reason}")

    def record_resume(self, label: str, cycle: int) -> None:
        self.resumes += 1
        self._emit(f"res  {label} from checkpoint at cycle {cycle}")

    def record_checkpoints(self, count: int) -> None:
        self.checkpoints += count

    # -- reporting -------------------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return (self.launched + self.cache_hits + self.dedupe_hits
                + self.failures)

    @property
    def hit_rate(self) -> float:
        total = self.total_requests
        return (self.cache_hits + self.dedupe_hits) / total if total \
            else 0.0

    def snapshot(self) -> Dict:
        return {
            "launched": self.launched,
            "cache_hits": self.cache_hits,
            "memo_hits": self.memo_hits,
            "dedupe_hits": self.dedupe_hits,
            "failures": self.failures,
            "retries": self.retries,
            "hit_rate": self.hit_rate,
            "sim_wall_time": self.sim_wall_time,
            "saved_wall_time": self.saved_wall_time,
            "resilience": {
                "watchdog_kills": self.watchdog_kills,
                "degraded_runs": self.degraded_runs,
                "skips": self.skips,
                "resumes": self.resumes,
                "checkpoints": self.checkpoints,
            },
            "cache_backend": self.backend_stats,
        }

    def to_dict(self) -> Dict:
        """Machine-readable session summary (``--telemetry-json``)."""
        return {"summary": self.snapshot(), "records": list(self.records)}

    def summary(self) -> str:
        parts = [
            f"runs: {self.launched} simulated, {self.cache_hits} cached "
            f"({100 * self.hit_rate:.0f}% hit rate)",
            f"sim wall time: {self.sim_wall_time:.2f}s "
            f"(saved {self.saved_wall_time:.2f}s)",
        ]
        if self.dedupe_hits:
            parts.append(f"deduped: {self.dedupe_hits} completed by "
                         f"other workers")
        if self.retries:
            parts.append(f"retries: {self.retries}")
        if self.resumes or self.checkpoints:
            parts.append(f"checkpoints: {self.checkpoints} written, "
                         f"{self.resumes} resumed")
        if self.watchdog_kills or self.degraded_runs:
            parts.append(f"resilience: {self.watchdog_kills} watchdog "
                         f"kill(s), {self.degraded_runs} degraded")
        if self.skips:
            parts.append(f"poisoned: {self.skips}")
        if self.failures:
            parts.append(f"FAILURES: {self.failures}")
        return "; ".join(parts)
