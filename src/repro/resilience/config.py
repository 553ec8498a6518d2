"""The knobs of resilient execution (the CLI flags map onto these)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ResilienceConfig:
    """What a resilient run asks of its workers and their watchdog.

    The queue owns retries and poison; these fields only shape one
    execution (budgets, checkpoints) and how long a silent worker lives.
    """

    #: Per-run wall-clock budget (seconds), enforced by the worker at
    #: checkpoint boundaries (ResourceBudgetError → ladder).
    deadline: Optional[float] = None
    #: Simulated cycles between checkpoint writes (None = no checkpoints).
    checkpoint_every: Optional[int] = None
    #: Resume first attempts from existing on-disk checkpoints.
    resume: bool = False
    #: Peak-RSS budget (MiB), enforced at checkpoint boundaries.
    rss_budget_mb: Optional[float] = None
    #: Seconds without a lease heartbeat before the watchdog kills a
    #: forked worker.
    heartbeat_timeout: float = 30.0
