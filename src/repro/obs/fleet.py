"""Fleet-wide telemetry: one document for a whole service root.

A running batch service (``repro.service``) scatters its own telemetry
across the service root: per-worker summary JSONs under
``<root>/workers/``, lease heartbeats and pending jobs under
``<root>/queue/``, and the shared backend's ``CacheCounters``.
:func:`collect_fleet` folds all of it into a single JSON-safe fleet
document — per-worker throughput, queue depth and oldest lease age,
dedupe and hit rates — and :func:`render_fleet` renders it as the
``repro service top`` screen (one-shot or ``--watch``).  The same
document rides along in metrics documents (``doc["fleet"]``) and the
report renderer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..guard import faultinject

#: Schema version of the fleet document.
FLEET_SCHEMA = 2


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
        executed = int(summary.get("executed") or 0)
        deduped = int(summary.get("deduped") or 0)
        jobs = executed + deduped
        rows.append({
            "worker": summary.get("worker") or path.stem,
            "pid": summary.get("pid"),
            "executed": executed,
            "deduped": deduped,
            "failures": int(summary.get("failures") or 0),
            "requeues": int(summary.get("requeues") or 0),
            "stolen_leases": int(summary.get("stolen_leases") or 0),
            "degraded": int(summary.get("degraded") or 0),
            "ladder": summary.get("ladder") or {},
            "resumes": int(summary.get("resumes") or 0),
            "checkpoints": int(summary.get("checkpoints") or 0),
            "wall_time": wall,
            "throughput": jobs / wall if wall > 0 else 0.0,
            "age": max(now - finished, 0.0) if finished else None,
            "backend": summary.get("backend") or {},
            "faults": summary.get("faults") or {},
        })
    return rows, torn


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

    executed = sum(w["executed"] for w in workers)
    deduped = sum(w["deduped"] for w in workers)
    jobs = executed + deduped
    wall = max((w["wall_time"] for w in workers), default=0.0)
    totals: Dict[str, Any] = {
        "workers": len(workers),
        "torn_summaries": torn,
        "executed": executed,
        "deduped": deduped,
        "failures": sum(w["failures"] for w in workers),
        "requeues": sum(w["requeues"] for w in workers),
        "stolen_leases": sum(w["stolen_leases"] for w in workers),
        "degraded": sum(w["degraded"] for w in workers),
        "resumes": sum(w["resumes"] for w in workers),
        "checkpoints": sum(w["checkpoints"] for w in workers),
        "dedupe_rate": deduped / jobs if jobs else 0.0,
        # Fleet throughput over the longest worker session — the
        # sessions overlap, so summing per-worker rates would flatter.
        "throughput": jobs / wall if wall > 0 else 0.0,
    }
    faults = _fold_faults(workers)

    backend = config.make_backend()
    counters = backend.counters_snapshot()
    hits = counters.get("hits", 0)
    misses = counters.get("misses", 0)
    store = backend.stats()
    backend_doc: Dict[str, Any] = {
        "kind": counters.get("kind"),
        "entries": store.get("entries", 0),
        "bytes": store.get("bytes", 0),
        # NOTE: counters are per-process; for a one-shot `service top`
        # they reflect this probe, while the per-worker rows carry each
        # worker's own lifetime counters.
        "hit_rate": hits / (hits + misses) if (hits + misses) else None,
    }

    doc: Dict[str, Any] = {
        "schema": FLEET_SCHEMA,
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
            f"{totals.get('executed', 0)} executed, "
            f"{totals.get('deduped', 0)} deduped "
            f"({100 * totals.get('dedupe_rate', 0.0):.0f}%), "
            f"{totals.get('failures', 0)} failed")
    if totals.get("degraded"):
        head += f", {totals['degraded']} degraded"
    if totals.get("resumes"):
        head += f", {totals['resumes']} resumed"
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
    parts = [f"kind={backend.get('kind', '?')}"]
    parts.append(f"entries={backend.get('entries', 0)}")
    parts.append(f"bytes={backend.get('bytes', 0)}")
    if backend.get("hit_rate") is not None:
        parts.append(f"hit rate={100 * backend['hit_rate']:.0f}%")
    lines.append("backend: " + "  ".join(parts))
    return lines


def render_fleet(doc: Dict[str, Any]) -> str:
    """The full ``repro service top`` screen for one fleet document."""
    lines = fleet_summary_lines(doc)
    workers = doc.get("workers") or []
    if workers:
        lines.append("")
        header = (f"{'worker':<28} {'exec':>5} {'dedup':>5} {'fail':>4} "
                  f"{'requeue':>7} {'stolen':>6} {'degr':>4} "
                  f"{'resume':>6} {'jobs/s':>7} {'wall':>7} {'seen':>5}")
        lines.append(header)
        lines.append("-" * len(header))
        ordered = sorted(workers, key=lambda w: w.get("throughput", 0.0),
                         reverse=True)
        for w in ordered:
            lines.append(
                f"{str(w.get('worker', '?'))[:28]:<28} "
                f"{w.get('executed', 0):>5} {w.get('deduped', 0):>5} "
                f"{w.get('failures', 0):>4} {w.get('requeues', 0):>7} "
                f"{w.get('stolen_leases', 0):>6} "
                f"{w.get('degraded', 0):>4} "
                f"{w.get('resumes', 0):>6} "
                f"{w.get('throughput', 0.0):>7.2f} "
                f"{w.get('wall_time', 0.0):>6.1f}s "
                f"{_age(w.get('age')):>5}")
    else:
        lines.append("")
        lines.append("no worker summaries yet")
    return "\n".join(lines)
