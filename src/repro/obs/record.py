"""The run record: one schema version and one counter vocabulary.

Every document the observability layer writes is a view over one
versioned run record, and carries :data:`SCHEMA`:

* the metrics document (``--metrics-json``,
  :func:`~repro.obs.metrics.collect_metrics`) — the whole record;
* the runner telemetry (``--telemetry-json``,
  :meth:`~repro.runner.telemetry.RunnerTelemetry.to_dict`) — its
  ``runner`` section plus the per-spec ``records``;
* the fleet document (``service top --json``,
  :func:`~repro.obs.fleet.collect_fleet`) — its ``fleet`` section, and
  the worker summaries that document folds;
* the ``meta`` line of a JSONL trace (:func:`~repro.obs.export.jsonl_records`).

:data:`COUNTERS` names every counter a runner, a service worker or a
fleet keeps.  Each view holds them as one flat map under exactly these
keys, so the views sum, compare and render alike.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

#: Schema version of every run-record view.
SCHEMA = 3

#: Every counter, in rendering order.
COUNTERS = (
    "launched",        # execution attempts started (one per attempt)
    "executed",        # successful executions
    "cache_hits",      # specs the runner's own cache answered
    "memo_hits",       # specs served from an in-process memo
    "deduped",         # results another worker or batch already paid for
    "failures",        # specs that ended failed
    "retries",         # failed attempts that went back to the queue
    "stolen_leases",   # leases taken over from a dead or silent owner
    "degraded",        # jobs completed below full capability
    "descents",        # degradation-ladder steps taken
    "poisoned",        # jobs quarantined as poison
    "watchdog_kills",  # hung workers killed by their watchdog
    "resumes",         # runs resumed from a checkpoint
    "checkpoints",     # checkpoint files written
)


def counters(source: Optional[Mapping[str, Any]] = None) -> Dict[str, int]:
    """A counter map: every name in :data:`COUNTERS`, read from
    ``source`` where it has one and 0 elsewhere."""
    source = source or {}
    return {name: int(source.get(name) or 0) for name in COUNTERS}


def total(rows: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    """The counter map summed over ``rows``."""
    out = counters()
    for row in rows:
        for name in COUNTERS:
            out[name] += int(row.get(name) or 0)
    return out


def requests(c: Mapping[str, Any]) -> int:
    """Specs asked for, each counted once however many attempts it took."""
    return sum(int(c.get(name) or 0)
               for name in ("executed", "cache_hits", "deduped", "failures"))


def hit_rate(c: Mapping[str, Any]) -> float:
    """Share of :func:`requests` answered without executing."""
    n = requests(c)
    hits = int(c.get("cache_hits") or 0) + int(c.get("deduped") or 0)
    return hits / n if n else 0.0


def render_counters(c: Mapping[str, Any], always: Iterable[str] = ()) -> str:
    """``"<value> <name>"`` for each counter that is non-zero or named in
    ``always``: the one rendering of counters in every report."""
    always = set(always)
    return ", ".join(f"{c.get(name) or 0} {name}" for name in COUNTERS
                     if c.get(name) or name in always)
