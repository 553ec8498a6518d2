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
"""

from .client import (
    DEFAULT_SERVICE_ROOT,
    ENV_SERVICE_ROOT,
    ServiceClient,
    ServiceConfig,
    batch_id_for,
)
from .queue import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_POISON_THRESHOLD,
    DEFAULT_VISIBILITY_TIMEOUT,
    JobQueue,
    Lease,
    default_worker_id,
)
from .worker import ServiceWorker

__all__ = [
    "DEFAULT_SERVICE_ROOT", "ENV_SERVICE_ROOT",
    "JobQueue", "Lease", "default_worker_id",
    "DEFAULT_VISIBILITY_TIMEOUT", "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_POISON_THRESHOLD",
    "ServiceWorker",
    "ServiceClient", "ServiceConfig", "batch_id_for",
]
