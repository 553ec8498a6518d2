"""Resilient execution layer: checkpoint/resume, watchdog, degradation.

The paper's headline experiments are long cycle-accurate simulations; this
package keeps them alive through the failures long runs actually hit:

* :mod:`~repro.resilience.checkpoint` — versioned, checksummed,
  atomically-written checkpoint files for the simulators'
  ``snapshot()``/``restore()`` state, so a killed run resumes from its
  last good checkpoint instead of restarting (and lands on byte-identical
  statistics).
* :mod:`~repro.resilience.heartbeat` — file-based heartbeats (a queue
  lease is one) that tell "slow" from "hung".
* :mod:`~repro.resilience.ladder` — the graceful-degradation ladder a run
  descends when it blows its wall-clock/RSS budgets: chaining SP →
  basic SP → top-1 delinquent load → unadapted binary.
* :mod:`~repro.resilience.config` — :class:`ResilienceConfig`, the
  budgets, checkpoint cadence and watchdog timeout of a resilient run.

Retries, the watchdog and poison quarantine belong to the one execution
engine, the :mod:`repro.service` queue and its workers.
"""

from .checkpoint import CHECKPOINT_FORMAT, CheckpointStore
from .heartbeat import Heartbeat, heartbeat_age, read_heartbeat
from .ladder import (
    LADDER,
    STEP_BASIC,
    STEP_FULL,
    STEP_TOP1,
    STEP_UNADAPTED,
    degrade_spec,
    ladder_applies,
    ladder_steps,
    next_step,
)
from .config import ResilienceConfig

__all__ = [
    "CHECKPOINT_FORMAT", "CheckpointStore",
    "Heartbeat", "heartbeat_age", "read_heartbeat",
    "LADDER", "STEP_BASIC", "STEP_FULL", "STEP_TOP1", "STEP_UNADAPTED",
    "degrade_spec", "ladder_applies", "ladder_steps", "next_step",
    "ResilienceConfig",
]
