"""Output checks: every operation's result is fingerprinted and must
match the same operation in every other pass of the run."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Dict, List, Optional, Tuple

#: One operation's outcome: (key, result document or None, error text).
Op = Tuple[str, Optional[Dict], Optional[str]]


def canonical(doc: Dict) -> Dict:
    """A ``SimStats.to_dict()`` with instruction uids densely renumbered.

    Uids come from a process-wide counter, so they depend on what the
    process built before.  Their relative order is stable (loads before
    their slices), so ranking the uids restores comparability across
    build histories; every other field is left as it is.
    """
    doc = json.loads(json.dumps(doc))
    memory = doc.get("memory") or {}
    tables = ("load_stats", "prefetch_stats", "prefetch_sources")
    uids = {int(key) for name in tables for key in (memory.get(name) or {})}
    uids |= {int(v) for v in (memory.get("prefetch_sources") or {}).values()}
    rank = {uid: i for i, uid in enumerate(sorted(uids))}
    for name in tables:
        if memory.get(name):
            memory[name] = {str(rank[int(k)]): v
                            for k, v in memory[name].items()}
    if memory.get("prefetch_sources"):
        memory["prefetch_sources"] = {
            k: rank[int(v)] for k, v in memory["prefetch_sources"].items()}
    return doc


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Ledger:
    """Counts operations and failures; keeps the first result of each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, Dict] = {}
        self._digests: Dict[str, str] = {}

    def record(self, ops: List[Op]) -> None:
        for key, doc, error in ops:
            self.attempted += 1
            if doc is None:
                self._fail(key, error or "no result")
                continue
            doc = canonical(doc)
            digest = _digest(doc)
            first = self._digests.setdefault(key, digest)
            self.reference.setdefault(key, doc)
            if digest != first:
                self._fail(key, "result differs from an earlier pass")

    def _fail(self, key: str, error: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"perfbench: FAILED {key}: {error}", file=sys.stderr)

    def stats_digest(self) -> str:
        """One digest over every operation's (canonical) result."""
        return _digest(sorted(self._digests.items()))


def _sims(reference: Dict[str, Dict]) -> Dict[Tuple[str, str, str], Dict]:
    """Simulation results keyed (kernel, model, variant); the operation
    key of a simulation is its spec label ``kernel/scale/model/variant``."""
    out = {}
    for key, doc in reference.items():
        parts = key.split("/")
        if len(parts) == 4 and "cycles" in doc:
            out[(parts[0], parts[2], parts[3])] = doc
    return out


def ssp_speedup(reference: Dict[str, Dict], model: str) -> float:
    """Geometric mean over kernels of base cycles / ssp cycles."""
    sims = _sims(reference)
    kernels = sorted({k for k, m, _ in sims if m == model})
    logs = [math.log(sims[(k, model, "base")]["cycles"]
                     / sims[(k, model, "ssp")]["cycles"]) for k in kernels
            if (k, model, "base") in sims and (k, model, "ssp") in sims]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def sim_counts(reference: Dict[str, Dict]) -> Dict[str, float]:
    """Simulated totals over every simulation of the run."""
    sims = list(_sims(reference).values())
    fired = sum(d["chk_fired"] for d in sims)
    ignored = sum(d["chk_ignored"] for d in sims)
    issued = useful = 0
    for doc in sims:
        for row in doc["memory"]["prefetch_stats"].values():
            issued += row["issued"]
            useful += row["useful"]
    return {
        "sim.cycles": sum(d["cycles"] for d in sims),
        "sim.spawns": sum(d["spawns"] for d in sims),
        "sim.chk_fired_frac": fired / (fired + ignored) if fired else 0.0,
        "sim.prefetch_accuracy": useful / issued if issued else 0.0,
    }
