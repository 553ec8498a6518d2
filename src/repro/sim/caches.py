"""Cache hierarchy, fill buffer and TLB timing model.

Implements the Table 1 memory subsystem: inclusive L1/L2/L3 with true-LRU
sets and 64-byte lines, a 16-entry fill buffer bounding outstanding L1
misses, a 128-entry TLB with a 30-cycle miss penalty, and 230-cycle memory.

Lines being filled are tracked in an *in-transit* table so that a second
access to a line already on its way to L1 completes when the fill does — a
**partial miss** in the paper's Figure 9 terminology ("accesses to cache
lines which were already in transit to L1 cache due to accesses by prior
loads from the main thread or from a prefetch").  This is the mechanism by
which a speculative thread's prefetch shortens (or fully hides) the main
thread's miss.

Per-static-load statistics are gathered for main-thread accesses; they are
both the cache profile the post-pass tool consumes (Section 3.1: "the tool
employs cache profile data from the simulator") and the Figure 9/10 data.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .config import CacheConfig, MachineConfig

#: Hierarchy level labels, outermost last.
L1, L2, L3, MEM = "L1", "L2", "L3", "MEM"
LEVELS = (L1, L2, L3, MEM)


class AccessResult:
    """Outcome of one memory access."""

    __slots__ = ("ready", "level", "partial")

    def __init__(self, ready: int, level: str, partial: bool = False):
        #: Cycle at which the value is available to dependent instructions.
        self.ready = ready
        #: Hierarchy level that supplied the data (fill origin for partials).
        self.level = level
        #: True if the line was already in transit to L1 (Figure 9 partial).
        self.partial = partial

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = " partial" if self.partial else ""
        return f"AccessResult(ready={self.ready}, {self.level}{p})"


class CacheLevel:
    """One set-associative cache level with true LRU replacement."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.ways = cfg.ways
        self.latency = cfg.latency
        # set index -> {line: None}, LRU first by dict insertion order.
        # Sets materialise on first touch, so constructing a simulator
        # does not allocate one container per set (the L2/L3 set counts
        # made that allocation cost more than a tiny-scale run), and the
        # hit path stays O(1) instead of an O(ways) list scan.
        self._sets: Dict[int, Dict[int, None]] = {}

    def lookup(self, line: int) -> bool:
        """True on hit; touches LRU state."""
        s = self._sets.get(line & (self.num_sets - 1))
        if s is not None and line in s:
            del s[line]
            s[line] = None
            return True
        return False

    def insert(self, line: int) -> Optional[int]:
        """Insert ``line``; returns the evicted line, if any."""
        idx = line & (self.num_sets - 1)
        s = self._sets.get(idx)
        if s is None:
            s = self._sets[idx] = {}
        elif line in s:
            del s[line]
            s[line] = None
            return None
        s[line] = None
        if len(s) > self.ways:
            victim = next(iter(s))
            del s[victim]
            return victim
        return None

    def contains(self, line: int) -> bool:
        """Non-touching presence check (for tests/introspection)."""
        s = self._sets.get(line & (self.num_sets - 1))
        return s is not None and line in s

    def flush(self) -> None:
        self._sets = {}


class LoadStats:
    """Counters for one static load (main-thread accesses only)."""

    __slots__ = ("accesses", "hits", "partials", "miss_cycles",
                 "prefetch_timely", "prefetch_late")

    def __init__(self):
        self.accesses = 0
        #: Hits per supplying level, e.g. hits["L2"] = demand L2 hits.
        self.hits = {lvl: 0 for lvl in LEVELS}
        #: Partial (in-transit) hits keyed by the fill's origin level.
        self.partials = {lvl: 0 for lvl in (L2, L3, MEM)}
        #: Total cycles of latency beyond an L1 hit.
        self.miss_cycles = 0
        #: Accesses that hit in L1 because a prefetch filled the line in
        #: time (the fully-hidden misses).
        self.prefetch_timely = 0
        #: Accesses served as partial hits off an in-flight prefetch (the
        #: prefetch helped but arrived late).
        self.prefetch_late = 0

    @property
    def l1_misses(self) -> int:
        return self.accesses - self.hits[L1]

    def miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0


class PrefetchStats:
    """Counters for one static prefetch instruction (``lfetch``)."""

    __slots__ = ("issued", "useful")

    def __init__(self):
        #: Prefetch accesses that reached the memory system.
        self.issued = 0
        #: Prefetches whose line was later consumed by a main-thread load
        #: (as an L1 hit or an in-transit partial hit).
        self.useful = 0


class MemorySystem:
    """The full memory hierarchy shared by all hardware thread contexts."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.l1 = CacheLevel(config.l1)
        self.l2 = CacheLevel(config.l2)
        self.l3 = CacheLevel(config.l3)
        self._line_shift = config.l1.line_bytes.bit_length() - 1
        self._page_shift = config.tlb_page_bytes.bit_length() - 1
        # TLB: page number -> None, MRU-ordered by dict insertion (oldest
        # first).  A dict keeps the hit path O(1); the list MRU it
        # replaces cost an O(n) scan + remove per access.
        self._tlb: Dict[int, None] = {}
        self._tlb_entries = config.tlb_entries
        # line -> (fill completion cycle, origin level)
        self._in_transit: Dict[int, Tuple[int, str]] = {}
        # Outstanding fill completion cycles (fill buffer occupancy).
        self._fills: List[int] = []
        # Statistics.
        self.load_stats: Dict[int, LoadStats] = {}
        self.level_counts = {lvl: 0 for lvl in LEVELS}
        self.partial_counts = {lvl: 0 for lvl in (L2, L3, MEM)}
        self.tlb_misses = 0
        self.prefetches_issued = 0
        self.prefetches_dropped = 0
        # Prefetch attribution: per-static-lfetch counters, the lfetch ->
        # delinquent-load mapping (installed by the simulator from
        # ``Program.prefetch_sources``), and the lines currently credited
        # to an outstanding prefetch (line -> lfetch uid).
        self.prefetch_stats: Dict[int, PrefetchStats] = {}
        self.prefetch_sources: Dict[int, int] = {}
        self._prefetched_lines: Dict[int, int] = {}

    # -- helpers ---------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def _tlb_access(self, addr: int) -> int:
        """Returns extra cycles for a TLB miss (0 on hit)."""
        page = addr >> self._page_shift
        tlb = self._tlb
        if page in tlb:
            del tlb[page]
            tlb[page] = None
            return 0
        tlb[page] = None
        if len(tlb) > self._tlb_entries:
            del tlb[next(iter(tlb))]
        self.tlb_misses += 1
        return self.config.tlb_miss_penalty

    def _fill_buffer_start(self, now: int) -> int:
        """Earliest cycle a new fill can start, honouring the 16 entries."""
        fills = self._fills
        while fills and fills[0] <= now:
            heapq.heappop(fills)
        if len(fills) >= self.config.fill_buffer_entries:
            return heapq.heappop(fills)
        return now

    # -- the access path --------------------------------------------------------

    def access(self, addr: int, now: int, uid: int, is_main: bool,
               is_prefetch: bool = False, is_store: bool = False) -> AccessResult:
        """Perform one data access at cycle ``now``.

        Returns when the value is ready and which level supplied it.  Main
        thread accesses are recorded in the per-static-load statistics;
        speculative-thread accesses (the prefetches) only mutate cache
        state.
        """
        cfg = self.config
        # An explicit lfetch — or a speculative thread's copy of a
        # delinquent load (mapped by the emitter) — acts as a prefetch for
        # its source load and is attributed as such.  Issue accounting
        # happens before the perfect-memory shortcut so the Figure 2
        # ablations report the same issue counts as the real hierarchy,
        # and the global counter agrees with the per-static totals.
        prefetching = is_prefetch or (not is_main and not is_store
                                      and uid in self.prefetch_sources)
        if prefetching:
            self.prefetches_issued += 1
            pstats = self.prefetch_stats.get(uid)
            if pstats is None:
                pstats = self.prefetch_stats[uid] = PrefetchStats()
            pstats.issued += 1

        if cfg.perfect_memory or uid in cfg.perfect_load_uids:
            if not cfg.perfect_memory:
                # "Delinquent loads always hit in the L1 cache" (Figure 2):
                # the line is materialised instantly, so sibling loads of
                # the same line hit too — otherwise their misses would
                # simply migrate to the next load of the line.
                line = self.line_of(addr)
                self.l1.insert(line)
                self.l2.insert(line)
                self.l3.insert(line)
                self._in_transit.pop(line, None)
            result = AccessResult(now + cfg.l1.latency, L1)
            if is_main and not is_prefetch and not is_store:
                self._record(uid, result, now, self.line_of(addr))
            return result

        line = addr >> self._line_shift
        # TLB probe, inlined from :meth:`_tlb_access`: the access path is
        # the simulator's hottest shared code and the call overhead alone
        # was measurable at tiny scale.
        page = addr >> self._page_shift
        tlb = self._tlb
        if page in tlb:
            del tlb[page]
            tlb[page] = None
            start = now
        else:
            tlb[page] = None
            if len(tlb) > self._tlb_entries:
                del tlb[next(iter(tlb))]
            self.tlb_misses += 1
            start = now + cfg.tlb_miss_penalty

        transit = self._in_transit.get(line)
        if transit is not None:
            done, origin = transit
            if done > start:
                # Partial miss: the line is already on its way to L1.
                result = AccessResult(done, origin, partial=True)
                if is_main and not is_prefetch and not is_store:
                    self._record(uid, result, now, line)
                return result
            del self._in_transit[line]

        # L1 probe, inlined from :meth:`CacheLevel.lookup` (same MRU touch).
        l1 = self.l1
        s = l1._sets.get(line & (l1.num_sets - 1))
        if s is not None and line in s:
            del s[line]
            s[line] = None
            result = AccessResult(start + l1.latency, L1)
            if is_main and not is_prefetch and not is_store:
                self._record(uid, result, now, line)
            return result

        # L1 miss: the fill occupies a fill-buffer entry.
        start = self._fill_buffer_start(start)
        if self.l2.lookup(line):
            ready, origin = start + cfg.l2.latency, L2
        elif self.l3.lookup(line):
            ready, origin = start + cfg.l3.latency, L3
            self.l2.insert(line)
        else:
            ready, origin = start + cfg.memory_latency, MEM
            self.l3.insert(line)
            self.l2.insert(line)
        self.l1.insert(line)
        self._in_transit[line] = (ready, origin)
        heapq.heappush(self._fills, ready)
        if prefetching:
            # Credit this line's next main-thread consumption to the
            # prefetch that started the fill.
            self._prefetched_lines[line] = uid
        # A non-prefetching demand fill does *not* consume or drop the
        # credit: the first main-thread **load** touch is the sole
        # consumer (in :meth:`_record`, which also handles the
        # evicted-before-use case).  Popping here made a main-thread
        # store's demand fill silently discard a pending timely-prefetch
        # credit, deflating coverage for store-then-load patterns.

        result = AccessResult(ready, origin)
        if is_main and not is_prefetch and not is_store:
            self._record(uid, result, now, line)
        return result

    def _record(self, uid: int, result: AccessResult, now: int,
                line: int) -> None:
        stats = self.load_stats.get(uid)
        if stats is None:
            stats = self.load_stats[uid] = LoadStats()
        stats.accesses += 1
        if result.partial:
            stats.partials[result.level] += 1
            self.partial_counts[result.level] += 1
        else:
            stats.hits[result.level] += 1
            self.level_counts[result.level] += 1
        beyond_l1 = (result.ready - now) - self.config.l1.latency
        if result.level != L1 and beyond_l1 > 0:
            stats.miss_cycles += beyond_l1
        pf_uid = self._prefetched_lines.pop(line, None)
        if pf_uid is not None:
            # First main-thread touch of a prefetched line: a full L1 hit
            # means the prefetch was timely, a partial hit means it was
            # late but still shortened the miss.  A full (non-partial)
            # miss means the prefetched copy was evicted first — the
            # credit is dropped without counting the prefetch as useful.
            if result.partial:
                stats.prefetch_late += 1
            elif result.level == L1:
                stats.prefetch_timely += 1
            else:
                return
            pstats = self.prefetch_stats.get(pf_uid)
            if pstats is not None:
                pstats.useful += 1

    # -- inspection --------------------------------------------------------------

    def total_accesses(self) -> int:
        return (sum(self.level_counts.values())
                + sum(self.partial_counts.values()))

    def flush(self) -> None:
        """Cold caches/TLB, clear transit state (not statistics)."""
        self.l1.flush()
        self.l2.flush()
        self.l3.flush()
        self._tlb = {}
        self._in_transit = {}
        self._fills = []
        self._prefetched_lines = {}
