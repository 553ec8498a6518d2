"""Fleet-wide telemetry: one document for a whole service root.

A running batch service (``repro.service``) scatters its own telemetry
across the service root: per-worker summary JSONs under
``<root>/workers/``, lease heartbeats and pending jobs under
``<root>/queue/``, and the shared backend's occupancy.
:func:`collect_fleet` folds all of it into a single JSON-safe fleet
document — per-worker throughput, queue depth and oldest lease age,
dedupe and hit rates — and :func:`render_fleet` renders it as the
``repro service top`` screen (one-shot or ``--watch``).  The document is
the ``fleet`` section of the run record (:mod:`repro.obs.record`): each
worker row and the totals hold the record's counters under its names,
the totals summed over them.  The same document rides along in metrics
documents (``doc["fleet"]``) and the report renderer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..guard import faultinject
from .record import SCHEMA, counters, hit_rate, render_counters, total

#: The counters of the per-worker table in ``service top``, with their
#: column headings.
_COLUMNS = (("executed", "exec"), ("deduped", "dedup"), ("failures", "fail"),
            ("retries", "retry"), ("stolen_leases", "stolen"),
            ("degraded", "degr"), ("resumes", "resume"))


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _worker_rows(root: Path,
                 now: float) -> Tuple[List[Dict[str, Any]], int]:
    """(rows, torn) — torn counts summaries that exist but do not parse
    (a worker died mid-write before the summaries were crash-safe, or
    the ``worker.summary.torn`` chaos site fired).  Torn summaries are
    skipped-and-counted, never raised on: one sick worker must not
    blind the whole fleet view."""
    rows: List[Dict[str, Any]] = []
    torn = 0
    workers_dir = root / "workers"
    if not workers_dir.is_dir():
        return rows, torn
    for path in sorted(workers_dir.glob("*.json")):
        summary = _read_json(path)
        if summary is None:
            torn += 1
            faultinject.record_recovery("worker.summary.torn")
            continue
        started = float(summary.get("started") or 0.0)
        finished = float(summary.get("finished") or 0.0)
        wall = max(finished - started, 0.0)
        row: Dict[str, Any] = {
            "worker": summary.get("worker") or path.stem,
            "pid": summary.get("pid"),
            **counters(summary),
            "ladder": summary.get("ladder") or {},
            "wall_time": wall,
            "age": max(now - finished, 0.0) if finished else None,
            "backend": summary.get("backend") or {},
            "faults": summary.get("faults") or {},
        }
        row["throughput"] = _throughput(row, wall)
        rows.append(row)
    return rows, torn


def _throughput(c: Dict[str, Any], wall: float) -> float:
    """Jobs finished (executed or deduped) per second of ``wall``."""
    return (c["executed"] + c["deduped"]) / wall if wall > 0 else 0.0


def _fold_faults(workers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-site injected/recovered totals across the worker summaries."""
    sites: Dict[str, Dict[str, int]] = {}
    for w in workers:
        faults = w.get("faults") or {}
        for bucket in ("injected", "recovered"):
            for site, count in (faults.get(bucket) or {}).items():
                row = sites.setdefault(site,
                                       {"injected": 0, "recovered": 0})
                row[bucket] += int(count)
    return sites


def _queue_state(config, now: float) -> Dict[str, Any]:
    from ..resilience.heartbeat import heartbeat_age

    queue = config.make_queue()
    state: Dict[str, Any] = dict(queue.counts())
    lease_ages = [age for age in
                  (heartbeat_age(path, now=now)
                   for path in queue.lease_dir.glob("*.lease"))
                  if age is not None]
    state["oldest_lease_age"] = max(lease_ages) if lease_ages else None
    pending_ages = []
    for path in queue.pending_dir.glob("*.json"):
        job = _read_json(path)
        submitted = (job or {}).get("submitted")
        if submitted:
            pending_ages.append(max(now - float(submitted), 0.0))
    state["oldest_pending_age"] = (max(pending_ages)
                                   if pending_ages else None)
    return state


def collect_fleet(root=None, config=None,
                  now: Optional[float] = None) -> Dict[str, Any]:
    """Aggregate one service root into a fleet document.

    ``root`` resolves like everything in the service layer (explicit >
    ``REPRO_SERVICE_ROOT`` > ``.repro-service``); pass a ready
    :class:`~repro.service.client.ServiceConfig` as ``config`` instead
    to keep its queue settings.  Never raises on a missing or
    half-formed root — an empty fleet document is still a document.
    """
    # Imported lazily: repro.service imports the runner, which imports
    # repro.obs at module load.
    from ..service.client import ServiceConfig

    if config is None:
        config = ServiceConfig.resolve(root)
    now = time.time() if now is None else now
    workers, torn = _worker_rows(config.root, now)
    queue = _queue_state(config, now)

    sums = total(workers)
    totals: Dict[str, Any] = {
        "workers": len(workers),
        "torn_summaries": torn,
        **sums,
        "hit_rate": hit_rate(sums),
        # Fleet throughput over the longest worker session — the
        # sessions overlap, so summing per-worker rates would flatter.
        "throughput": _throughput(sums, max(
            (w["wall_time"] for w in workers), default=0.0)),
    }
    faults = _fold_faults(workers)

    backend = config.make_backend()
    store = backend.stats()
    backend_doc: Dict[str, Any] = {
        "kind": backend.kind,
        "entries": store.get("entries", 0),
        "bytes": store.get("bytes", 0),
    }

    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "root": str(config.root),
        "collected": now,
        "workers": workers,
        "totals": totals,
        "queue": queue,
        "backend": backend_doc,
    }
    if faults:
        doc["faults"] = faults
    return doc


# -- rendering ---------------------------------------------------------------------


def _age(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def fleet_summary_lines(doc: Dict[str, Any]) -> List[str]:
    """The condensed fleet section used inside ``repro report``."""
    totals = doc.get("totals") or {}
    queue = doc.get("queue") or {}
    backend = doc.get("backend") or {}
    head = (f"fleet @ {doc.get('root', '?')}: "
            f"{totals.get('workers', 0)} worker(s), "
            + render_counters(totals, always=("executed", "deduped",
                                              "failures"))
            + f" ({100 * (totals.get('hit_rate') or 0.0):.0f}% hit rate)")
    if totals.get("torn_summaries"):
        head += f" [{totals['torn_summaries']} torn summary(ies) skipped]"
    lines = [head]
    queue_line = (f"queue: {queue.get('pending', 0)} pending, "
                  f"{queue.get('leased', 0)} leased "
                  f"({queue.get('stale_leases', 0)} stale), "
                  f"{queue.get('done', 0)} done, "
                  f"{queue.get('failed', 0)} failed")
    if queue.get("poisoned"):
        queue_line += f", {queue['poisoned']} POISONED"
    queue_line += (f"; oldest lease "
                   f"{_age(queue.get('oldest_lease_age'))}, "
                   f"oldest pending "
                   f"{_age(queue.get('oldest_pending_age'))}")
    lines.append(queue_line)
    faults = doc.get("faults") or {}
    if faults:
        parts = [f"{site}={row.get('injected', 0)}/"
                 f"{row.get('recovered', 0)}"
                 for site, row in sorted(faults.items())]
        lines.append("faults (injected/recovered): " + "  ".join(parts))
    lines.append(f"backend: kind={backend.get('kind', '?')}  "
                 f"entries={backend.get('entries', 0)}  "
                 f"bytes={backend.get('bytes', 0)}")
    return lines


def render_fleet(doc: Dict[str, Any]) -> str:
    """The full ``repro service top`` screen for one fleet document."""
    lines = fleet_summary_lines(doc)
    workers = doc.get("workers") or []
    if workers:
        lines.append("")
        header = (f"{'worker':<28} "
                  + "".join(f"{label:>7}" for _, label in _COLUMNS)
                  + f" {'jobs/s':>7} {'wall':>7} {'seen':>5}")
        lines.append(header)
        lines.append("-" * len(header))
        ordered = sorted(workers, key=lambda w: w.get("throughput", 0.0),
                         reverse=True)
        for w in ordered:
            lines.append(
                f"{str(w.get('worker', '?'))[:28]:<28} "
                + "".join(f"{w.get(name, 0):>7}" for name, _ in _COLUMNS)
                + f" {w.get('throughput', 0.0):>7.2f} "
                f"{w.get('wall_time', 0.0):>6.1f}s "
                f"{_age(w.get('age')):>5}")
    else:
        lines.append("")
        lines.append("no worker summaries yet")
    return "\n".join(lines)
