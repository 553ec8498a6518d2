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

The names below resolve on first use (PEP 562): a client that needs only
:class:`ResilienceConfig` or the ladder does not load the checkpoint
store.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "CHECKPOINT_FORMAT": ".checkpoint", "CheckpointStore": ".checkpoint",
    "Heartbeat": ".heartbeat", "heartbeat_age": ".heartbeat",
    "read_heartbeat": ".heartbeat",
    "LADDER": ".ladder", "STEP_BASIC": ".ladder", "STEP_FULL": ".ladder",
    "STEP_TOP1": ".ladder", "STEP_UNADAPTED": ".ladder",
    "degrade_spec": ".ladder", "ladder_applies": ".ladder",
    "ladder_steps": ".ladder", "next_step": ".ladder",
    "ResilienceConfig": ".config",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
