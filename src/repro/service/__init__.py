"""A multi-host job queue and an async batch API over one shared store.

``repro.service`` puts the runner's content-addressed result cache — a
plain :class:`~repro.runner.cache.ResultCache` under ``<root>/cache`` —
behind a queue worked by many processes on many hosts sharing the root:

* :mod:`~repro.service.queue` — a file/dir work queue with ``O_EXCL``
  leases, heartbeat-refreshed visibility, and at-least-once delivery
  made harmless by content addressing;
* :mod:`~repro.service.worker` — the queue consumer (one per core per
  host) that dedupes through the backend and simulates misses;
* :mod:`~repro.service.local` — the workers a waiting client runs
  itself: one inline, or several forked under a watchdog;
* :mod:`~repro.service.client` — ``submit(specs) -> batch_id``,
  ``status(batch_id)``, ``fetch(batch_id)``, and the synchronous
  ``run_batch``, the one execution engine every
  :class:`~repro.runner.executor.Runner` cache miss goes through (on
  ``REPRO_SERVICE_ROOT`` when it is configured, else on a private
  per-call root).

The names below resolve on first use (PEP 562), and no module of this
package imports the execution layer (:mod:`repro.runner.worker`) at load
time: ``submit``, ``status``, ``fetch`` and ``top`` never load the
simulators.  Only executing a job does.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_SERVICE_ROOT": ".client", "ENV_SERVICE_ROOT": ".client",
    "ServiceClient": ".client", "ServiceConfig": ".client",
    "batch_id_for": ".client",
    "DEFAULT_MAX_ATTEMPTS": ".queue", "DEFAULT_POISON_THRESHOLD": ".queue",
    "DEFAULT_VISIBILITY_TIMEOUT": ".queue", "JobQueue": ".queue",
    "Lease": ".queue", "default_worker_id": ".queue",
    "ServiceWorker": ".worker",
}

__all__ = sorted(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
