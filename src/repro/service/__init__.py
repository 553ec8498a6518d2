"""A multi-host job queue and an async batch API over one shared store.

``repro.service`` puts the runner's content-addressed result cache — a
plain :class:`~repro.runner.cache.ResultCache` under ``<root>/cache`` —
behind a queue worked by many processes on many hosts sharing the root:

* :mod:`~repro.service.queue` — a file/dir work queue with ``O_EXCL``
  leases, heartbeat-refreshed visibility, and at-least-once delivery
  made harmless by content addressing;
* :mod:`~repro.service.worker` — the queue consumer (one per core per
  host) that dedupes through the backend and simulates misses;
* :mod:`~repro.service.client` — ``submit(specs) -> batch_id``,
  ``status(batch_id)``, ``fetch(batch_id)``, and the synchronous
  ``run_batch`` path the :class:`~repro.runner.executor.Runner`
  delegates to when ``REPRO_SERVICE_ROOT`` is configured.
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
