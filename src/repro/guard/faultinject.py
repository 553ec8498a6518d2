"""Deterministic, seedable fault injection at named pipeline sites.

The guarded pipeline promises to fail *soft* — but degradation paths that
are never executed rot.  This module makes every failure mode directly
testable: a :class:`FaultInjector` is installed process-wide (inherited by
forked runner workers) and consulted at a handful of named **sites**; when
a site fires, the site's code raises :class:`InjectedFault` or applies the
site's characteristic corruption (negating a slack value, inserting a
store into a slice, truncating a cache file).

Determinism: each site draws from its own ``random.Random`` stream seeded
with ``(seed, site)``, so a given (plan, seed) always fires the same calls
regardless of site interleaving — chaos runs are reproducible.

The CLI exposes this as ``--inject SITE[:PROB[:TIMES]]`` (repeatable);
``--inject list`` prints the site registry.  When no injector is installed
every check is a single ``is None`` test, so production runs pay nothing.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Union

#: Registry of injectable sites and the failure each one forces.
SITES: Dict[str, str] = {
    "slice.exception":
        "the slicer raises mid-slice for a delinquent load",
    "schedule.negative_slack":
        "the scheduler reports a negative slack-per-iteration estimate",
    "codegen.invalid_program":
        "the emitter places a store inside a p-slice (invalid binary)",
    "verify.mismatch":
        "the differential verifier reports a semantic mismatch",
    "runner.worker_crash":
        "a runner worker crashes before simulating its spec",
    "runner.worker_timeout":
        "a runner worker stalls briefly, then fails with a TimeoutError",
    "cache.corrupt":
        "an on-disk cache entry is overwritten with garbage before a read",
    "cache.truncate":
        "an on-disk cache entry is truncated to half before a read",
    "checkpoint.corrupt":
        "an on-disk checkpoint has one byte flipped before a resume read",
    "worker.hang":
        "a worker stops heartbeating (watchdog kill/redeliver path)",
    "worker.oom":
        "a worker dies of memory exhaustion (MemoryError)",
    # -- service-plane sites (fleet chaos) -------------------------------
    "queue.lease.corrupt":
        "a freshly-acquired lease file is overwritten with garbage bytes",
    "queue.steal.race":
        "a worker loses the stale-lease steal election to a phantom rival",
    "worker.crash":
        "a service worker dies abruptly (SIGKILL-style) while holding a "
        "lease",
    "worker.summary.torn":
        "a worker summary JSON is half-written (no atomic rename)",
    "backend.put.partial":
        "a backend result write is torn mid-put (partial entry at the "
        "final path)",
    "backend.read.ioerror":
        "a backend read fails with a transient I/O error (served as a "
        "miss)",
}


class InjectedFault(RuntimeError):
    """The failure an armed site raises (or reports) when it fires."""

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or f"injected fault at site {site!r}")
        self.site = site


class FaultSpec:
    """One armed site: fire with ``prob``, at most ``times`` times."""

    def __init__(self, site: str, prob: float = 1.0,
                 times: Optional[int] = None):
        if site not in SITES:
            raise ValueError(f"unknown injection site {site!r}; known "
                             f"sites: {sorted(SITES)}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"injection probability must be in [0, 1], "
                             f"got {prob}")
        self.site = site
        self.prob = prob
        self.times = times

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``SITE[:PROB[:TIMES]]`` (e.g. ``cache.corrupt:0.5``)."""
        parts = text.split(":")
        site = parts[0]
        prob = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        times = int(parts[2]) if len(parts) > 2 and parts[2] else None
        return cls(site, prob, times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSpec({self.site!r}, prob={self.prob}, " \
               f"times={self.times})"


class FaultInjector:
    """Deterministic per-site firing decisions for a set of armed sites."""

    def __init__(self, specs: Iterable[Union[FaultSpec, str]],
                 seed: int = 0):
        self.seed = seed
        self.plan: Dict[str, FaultSpec] = {}
        for spec in specs:
            if isinstance(spec, str):
                spec = FaultSpec.parse(spec)
            self.plan[spec.site] = spec
        self._streams: Dict[str, random.Random] = {
            site: random.Random(f"{seed}:{site}") for site in self.plan}
        #: site -> number of times it has fired so far.
        self.fired: Dict[str, int] = {site: 0 for site in self.plan}
        #: site -> number of times the code under test *detected and
        #: recovered from* an injected failure (quarantined a torn
        #: entry, stole a dead worker's lease, skipped a torn summary).
        #: injected vs. recovered is the chaos scorecard: every armed
        #: site should converge toward recovered == fired.
        self.recovered: Dict[str, int] = {site: 0 for site in self.plan}

    def fires(self, site: str) -> bool:
        """Decide (and record) whether ``site`` fires on this consult."""
        spec = self.plan.get(site)
        if spec is None:
            return False
        if spec.times is not None and self.fired[site] >= spec.times:
            return False
        if spec.prob < 1.0 and self._streams[site].random() >= spec.prob:
            return False
        self.fired[site] += 1
        return True

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` if ``site`` fires."""
        if self.fires(site):
            raise InjectedFault(site)

    def record_recovery(self, site: str) -> None:
        """Count one detected-and-recovered failure at an armed site."""
        if site in self.plan:
            self.recovered[site] = self.recovered.get(site, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe injected/recovered scorecard for summaries/reports."""
        return {
            "seed": self.seed,
            "plan": {site: {"prob": spec.prob, "times": spec.times}
                     for site, spec in sorted(self.plan.items())},
            "injected": {site: count for site, count
                         in sorted(self.fired.items())},
            "recovered": {site: count for site, count
                          in sorted(self.recovered.items())},
        }


#: The process-wide injector (None = injection disabled).  Forked local
#: workers inherit it, so ``--inject runner.*`` reaches them.
_ACTIVE: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> FaultInjector:
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    return _ACTIVE


def fires(site: str) -> bool:
    """Hot-path consult: a single None test when injection is off."""
    return _ACTIVE is not None and _ACTIVE.fires(site)


def armed(site: str) -> bool:
    """True when the active injector's plan names ``site`` (whether or
    not a given consult will fire it); nothing is consulted or counted."""
    return _ACTIVE is not None and site in _ACTIVE.plan


def check(site: str) -> None:
    """Raise :class:`InjectedFault` if the active injector fires ``site``."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


def record_recovery(site: str) -> None:
    """Count a detected-and-recovered failure when ``site`` is armed.

    Recovery paths (quarantine, lease steal, skip-and-count) call this
    unconditionally; it is a no-op unless the site is in the active
    plan, so production runs pay a single None test.
    """
    if _ACTIVE is not None:
        _ACTIVE.record_recovery(site)


def snapshot() -> Optional[Dict[str, object]]:
    """The active injector's injected/recovered scorecard, or None."""
    return _ACTIVE.snapshot() if _ACTIVE is not None else None


def sync_fired(site: str, count: int) -> None:
    """Force ``site``'s fired-count to ``count`` (cross-process chaos).

    Forked local workers execute in freshly-forked processes, so a
    child's fired-count increments never reach the parent: a
    ``times``-bounded plan would otherwise fire in *every* retry forever.
    A forked worker aligns its count with the job's earlier executions
    before the site is consulted, restoring "fire at most N times"
    semantics across process boundaries.
    """
    if _ACTIVE is not None and site in _ACTIVE.fired:
        _ACTIVE.fired[site] = count


@contextmanager
def injecting(*specs: Union[FaultSpec, str], seed: int = 0):
    """Scoped installation for tests and chaos runs."""
    injector = install(FaultInjector(specs, seed=seed))
    try:
        yield injector
    finally:
        uninstall()


def describe_sites() -> List[str]:
    """Human-readable site registry lines (for ``--inject list``)."""
    width = max(len(site) for site in SITES)
    return [f"{site:<{width}}  {desc}" for site, desc in sorted(
        SITES.items())]
