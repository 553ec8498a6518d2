"""Simulation statistics and the Figure 9 / Figure 10 taxonomies.

Figure 10 partitions the main thread's cycles into six categories:

* ``L3``, ``L2``, ``L1`` — stall cycles (no instruction issued) waiting on
  an access that missed in that cache: an access served by memory missed in
  L3 and accrues **L3** miss cycles; served by L3 → **L2**; served by L2 →
  **L1**.
* ``CacheExec`` — cycles in which the main thread issued instructions while
  a cache miss was outstanding ("cache hierarchy and instruction issue are
  both active").
* ``Exec`` — issue cycles with no outstanding miss.
* ``Other`` — everything else (branch misprediction bubbles, chk.c/spawn
  pipeline flushes, SMT fetch contention).

Figure 9 classifies each delinquent-load L1 miss by the level that supplied
it — L2/L3/memory hit, or the *partial* variants when the line was already
in transit to L1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .caches import L1, L2, L3, MEM, LoadStats, MemorySystem, PrefetchStats

CYCLE_CATEGORIES = ("L3", "L2", "L1", "CacheExec", "Exec", "Other")

#: Scalar counters serialised verbatim by :meth:`SimStats.to_dict`.
_SCALAR_FIELDS = (
    "cycles", "main_instructions", "main_stub_instructions",
    "spec_instructions",
    "chk_fired", "chk_ignored", "spawns", "spawn_failures", "spawn_waits",
    "threads_completed", "mispredicts", "budget_kills",
)

#: Memory-system counters carried through serialisation (cache/TLB *state*
#: is not — a deserialised run can report statistics but not be resumed).
_MEMORY_FIELDS = ("tlb_misses", "prefetches_issued", "prefetches_dropped")

#: Stall category charged when waiting on data supplied by a given level
#: (the level it *missed* in is one closer to the core).
STALL_CATEGORY = {MEM: "L3", L3: "L2", L2: "L1"}


class SimStats:
    """Aggregate results of one simulation run."""

    def __init__(self, memory: MemorySystem):
        self.memory = memory
        self.cycles = 0
        self.main_instructions = 0
        #: Main-thread instructions retired inside recovery stubs (between
        #: a fired ``chk.c`` and its ``rfi``) — adaptation overhead; the
        #: differential oracle compares ``main_instructions`` net of these.
        self.main_stub_instructions = 0
        self.spec_instructions = 0
        self.cycle_breakdown: Dict[str, int] = {
            cat: 0 for cat in CYCLE_CATEGORIES}
        self.chk_fired = 0
        self.chk_ignored = 0
        self.spawns = 0
        self.spawn_failures = 0
        #: Cycles-worth of deferred chaining spawns (waiting for a context).
        self.spawn_waits = 0
        self.threads_completed = 0
        self.mispredicts = 0
        #: Speculative threads killed by the runaway-slice containment
        #: budgets (spec_instruction_budget / spec_cycle_budget).
        self.budget_kills = 0

    # -- derived metrics ---------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.main_instructions / self.cycles if self.cycles else 0.0

    def charge(self, category: str, cycles: int = 1) -> None:
        self.cycle_breakdown[category] += cycles

    def breakdown_fractions(self) -> Dict[str, float]:
        total = sum(self.cycle_breakdown.values()) or 1
        return {cat: count / total
                for cat, count in self.cycle_breakdown.items()}

    # -- Figure 9 ------------------------------------------------------------------

    def delinquent_breakdown(self, uids: Iterable[int]) -> Dict[str, float]:
        """Where the given loads were satisfied when missing in L1.

        Returns fractions of *all accesses* per category (so the categories
        sum to the L1 miss rate, matching "height of a bar is those loads'
        miss rate" in Figure 9), with keys ``L2 Hit``, ``Partial L2 Hit``,
        ``L3 Hit``, ``Partial L3 Hit``, ``Mem Hit``, ``Partial Mem Hit``.
        """
        accesses = 0
        hit = {L2: 0, L3: 0, MEM: 0}
        partial = {L2: 0, L3: 0, MEM: 0}
        for uid in uids:
            stats = self.memory.load_stats.get(uid)
            if stats is None:
                continue
            accesses += stats.accesses
            for lvl in (L2, L3, MEM):
                hit[lvl] += stats.hits[lvl]
                partial[lvl] += stats.partials[lvl]
        if accesses == 0:
            return {}
        out: Dict[str, float] = {}
        for lvl, label in ((L2, "L2"), (L3, "L3"), (MEM, "Mem")):
            out[f"{label} Hit"] = hit[lvl] / accesses
            out[f"Partial {label} Hit"] = partial[lvl] / accesses
        out["miss rate"] = sum(hit.values()) / accesses + \
            sum(partial.values()) / accesses
        return out

    def load_miss_cycles(self, uid: int) -> int:
        stats = self.memory.load_stats.get(uid)
        return stats.miss_cycles if stats else 0

    def total_miss_cycles(self) -> int:
        return sum(s.miss_cycles for s in self.memory.load_stats.values())

    def top_loads_by_miss_cycles(self, limit: Optional[int] = None
                                 ) -> List[int]:
        """Static load uids ordered by decreasing miss cycles."""
        ranked = sorted(self.memory.load_stats.items(),
                        key=lambda kv: kv[1].miss_cycles, reverse=True)
        uids = [uid for uid, s in ranked if s.miss_cycles > 0]
        return uids[:limit] if limit is not None else uids

    # -- prefetch effectiveness ------------------------------------------------------

    def prefetch_metrics(self, uids: Optional[Iterable[int]] = None
                         ) -> Dict[int, Dict[str, float]]:
        """Per-target-load prefetch **coverage / accuracy / timeliness**.

        For each load uid (default: every load some prefetch targets, per
        the emitter's ``prefetch_sources`` mapping):

        * ``coverage`` — fraction of the load's would-be L1 misses served
          off a prefetched line (timely L1 hits count as would-be misses);
        * ``accuracy`` — fraction of the prefetches issued *for this load*
          whose line the main thread actually consumed;
        * ``timeliness`` — fraction of the covered accesses where the
          prefetch fully hid the miss (L1 hit rather than partial hit).
        """
        mem = self.memory
        issued: Dict[int, int] = {}
        useful: Dict[int, int] = {}
        for pf_uid, pstats in mem.prefetch_stats.items():
            target = mem.prefetch_sources.get(pf_uid)
            if target is None:
                continue
            issued[target] = issued.get(target, 0) + pstats.issued
            useful[target] = useful.get(target, 0) + pstats.useful
        if uids is None:
            uids = sorted(issued)
        out: Dict[int, Dict[str, float]] = {}
        for uid in uids:
            ls = mem.load_stats.get(uid)
            timely = ls.prefetch_timely if ls else 0
            late = ls.prefetch_late if ls else 0
            covered = timely + late
            l1_misses = ls.l1_misses if ls else 0
            # Timely-covered accesses *are* L1 hits; add them back so
            # coverage is measured against what would have missed.
            would_miss = l1_misses + timely
            n_issued = issued.get(uid, 0)
            n_useful = useful.get(uid, 0)
            out[uid] = {
                "accesses": ls.accesses if ls else 0,
                "l1_misses": l1_misses,
                "prefetches_issued": n_issued,
                "prefetches_useful": n_useful,
                "covered_timely": timely,
                "covered_late": late,
                "coverage": covered / would_miss if would_miss else 0.0,
                "accuracy": n_useful / n_issued if n_issued else 0.0,
                "timeliness": timely / covered if covered else 0.0,
            }
        return out

    def equal_to(self, other: "SimStats") -> bool:
        """Exact statistical equality (every serialised counter matches).

        This is the resume contract: a run killed mid-simulation and
        resumed from its last checkpoint must produce statistics
        ``equal_to`` those of an uninterrupted run.
        """
        return self.to_dict() == other.to_dict()

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe snapshot of every reported statistic.

        The snapshot carries the per-static-load counters, so the Figure 9
        (:meth:`delinquent_breakdown`) and Figure 10 (:attr:`cycle_breakdown`)
        queries all work on a :meth:`from_dict` reconstruction; live cache
        contents are deliberately dropped.
        """
        out: Dict = {"format": 1}
        for name in _SCALAR_FIELDS:
            out[name] = getattr(self, name)
        out["cycle_breakdown"] = dict(self.cycle_breakdown)
        mem = self.memory
        out["memory"] = {
            "load_stats": {
                str(uid): {
                    "accesses": ls.accesses,
                    "hits": dict(ls.hits),
                    "partials": dict(ls.partials),
                    "miss_cycles": ls.miss_cycles,
                    "prefetch_timely": ls.prefetch_timely,
                    "prefetch_late": ls.prefetch_late,
                } for uid, ls in sorted(mem.load_stats.items())},
            "level_counts": dict(mem.level_counts),
            "partial_counts": dict(mem.partial_counts),
            "prefetch_stats": {
                str(uid): {"issued": ps.issued, "useful": ps.useful}
                for uid, ps in sorted(mem.prefetch_stats.items())},
            "prefetch_sources": {
                str(uid): target
                for uid, target in sorted(mem.prefetch_sources.items())},
        }
        for name in _MEMORY_FIELDS:
            out["memory"][name] = getattr(mem, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        """Rebuild a statistics object produced by :meth:`to_dict`.

        The attached memory system is a fresh (default-configured) one
        holding only the recorded counters — enough for every reporting
        query, not for further simulation.
        """
        from .config import MachineConfig

        stats = cls(MemorySystem(MachineConfig()))
        for name in _SCALAR_FIELDS:
            # .get: snapshots from before a counter existed read as 0.
            setattr(stats, name, data.get(name, 0))
        stats.cycle_breakdown = {cat: data["cycle_breakdown"].get(cat, 0)
                                 for cat in CYCLE_CATEGORIES}
        mem_data = data["memory"]
        mem = stats.memory
        for uid_str, ls_data in mem_data["load_stats"].items():
            ls = LoadStats()
            ls.accesses = ls_data["accesses"]
            ls.hits.update(ls_data["hits"])
            ls.partials.update(ls_data["partials"])
            ls.miss_cycles = ls_data["miss_cycles"]
            ls.prefetch_timely = ls_data.get("prefetch_timely", 0)
            ls.prefetch_late = ls_data.get("prefetch_late", 0)
            mem.load_stats[int(uid_str)] = ls
        mem.level_counts.update(mem_data["level_counts"])
        mem.partial_counts.update(mem_data["partial_counts"])
        for uid_str, ps_data in mem_data.get("prefetch_stats", {}).items():
            ps = PrefetchStats()
            ps.issued = ps_data["issued"]
            ps.useful = ps_data["useful"]
            mem.prefetch_stats[int(uid_str)] = ps
        mem.prefetch_sources.update(
            {int(uid_str): target for uid_str, target in
             mem_data.get("prefetch_sources", {}).items()})
        for name in _MEMORY_FIELDS:
            setattr(mem, name, mem_data[name])
        return stats

    def summary(self) -> str:  # pragma: no cover - reporting convenience
        lines = [
            f"cycles:             {self.cycles}",
            f"main instructions:  {self.main_instructions} "
            f"(IPC {self.ipc:.3f})",
            f"spec instructions:  {self.spec_instructions}",
            f"chk.c fired/ignored:{self.chk_fired}/{self.chk_ignored}",
            f"spawns (failed):    {self.spawns} ({self.spawn_failures})",
            f"mispredicts:        {self.mispredicts}",
            "cycle breakdown:    " + ", ".join(
                f"{cat}={count}" for cat, count in
                self.cycle_breakdown.items() if count),
        ]
        return "\n".join(lines)
