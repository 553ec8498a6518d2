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

    # -- the access path --------------------------------------------------------

    def access(self, addr: int, now: int, uid: int, is_main: bool,
               is_prefetch: bool = False,
               is_store: bool = False) -> Tuple[int, str]:
        """Perform one data access at cycle ``now``.

        Returns ``(ready, level)``: the cycle at which the value is
        available to dependent instructions and the hierarchy level that
        supplied it (the fill's origin for a partial miss).  Main-thread
        loads are recorded in the per-static-load statistics, partial
        misses included; speculative-thread accesses (the prefetches)
        only mutate cache state.

        This is the simulators' hottest shared code, so the TLB, cache
        probes, inserts, fill-buffer drain and statistics are one
        straight-line body instead of helper calls.
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

        line = addr >> self._line_shift
        partial = False
        if cfg.perfect_memory or uid in cfg.perfect_load_uids:
            if not cfg.perfect_memory:
                # "Delinquent loads always hit in the L1 cache" (Figure 2):
                # the line is materialised instantly, so sibling loads of
                # the same line hit too — otherwise their misses would
                # simply migrate to the next load of the line.
                self.l1.insert(line)
                self.l2.insert(line)
                self.l3.insert(line)
                self._in_transit.pop(line, None)
            ready, level = now + cfg.l1.latency, L1
        else:
            # TLB probe (same MRU touch as the caches).
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
            if transit is not None and transit[0] > start:
                # Partial miss: the line is already on its way to L1.
                ready, level = transit
                partial = True
            else:
                if transit is not None:
                    del self._in_transit[line]
                # L1 probe; every insert below goes into a set the probe
                # just showed does not hold the line.
                l1 = self.l1
                idx1 = line & (l1.num_sets - 1)
                s1 = l1._sets.get(idx1)
                if s1 is not None and line in s1:
                    del s1[line]
                    s1[line] = None
                    ready, level = start + l1.latency, L1
                else:
                    # L1 miss: the fill occupies one of the fill-buffer
                    # entries; drain the finished fills, and wait for
                    # the earliest one when all are busy.
                    fills = self._fills
                    while fills and fills[0] <= start:
                        heapq.heappop(fills)
                    if len(fills) >= cfg.fill_buffer_entries:
                        start = heapq.heappop(fills)
                    l2 = self.l2
                    idx2 = line & (l2.num_sets - 1)
                    s2 = l2._sets.get(idx2)
                    if s2 is not None and line in s2:
                        del s2[line]
                        s2[line] = None
                        ready, level = start + l2.latency, L2
                    else:
                        l3 = self.l3
                        idx3 = line & (l3.num_sets - 1)
                        s3 = l3._sets.get(idx3)
                        if s3 is not None and line in s3:
                            del s3[line]
                            s3[line] = None
                            ready, level = start + l3.latency, L3
                        else:
                            ready, level = start + cfg.memory_latency, MEM
                            if s3 is None:
                                s3 = l3._sets[idx3] = {}
                            s3[line] = None
                            if len(s3) > l3.ways:
                                del s3[next(iter(s3))]
                        if s2 is None:
                            s2 = l2._sets[idx2] = {}
                        s2[line] = None
                        if len(s2) > l2.ways:
                            del s2[next(iter(s2))]
                    if s1 is None:
                        s1 = l1._sets[idx1] = {}
                    s1[line] = None
                    if len(s1) > l1.ways:
                        del s1[next(iter(s1))]
                    self._in_transit[line] = (ready, level)
                    heapq.heappush(fills, ready)
                    if prefetching:
                        # Credit this line's next main-thread consumption
                        # to the prefetch that started the fill.
                        self._prefetched_lines[line] = uid
                    # A non-prefetching demand fill does *not* consume or
                    # drop the credit: the first main-thread **load**
                    # touch is the sole consumer (below, which also
                    # handles the evicted-before-use case).  Popping here
                    # made a main-thread store's demand fill silently
                    # discard a pending timely-prefetch credit, deflating
                    # coverage for store-then-load patterns.

        if not is_main or is_prefetch or is_store:
            return ready, level
        stats = self.load_stats.get(uid)
        if stats is None:
            stats = self.load_stats[uid] = LoadStats()
        stats.accesses += 1
        if partial:
            stats.partials[level] += 1
            self.partial_counts[level] += 1
        else:
            stats.hits[level] += 1
            self.level_counts[level] += 1
        if level != L1:
            beyond_l1 = (ready - now) - cfg.l1.latency
            if beyond_l1 > 0:
                stats.miss_cycles += beyond_l1
        if self._prefetched_lines:
            pf_uid = self._prefetched_lines.pop(line, None)
            if pf_uid is not None:
                # First main-thread touch of a prefetched line: a full L1
                # hit means the prefetch was timely, a partial hit means
                # it was late but still shortened the miss.  A full
                # (non-partial) miss means the prefetched copy was evicted
                # first — the credit is dropped without counting the
                # prefetch as useful.
                if partial:
                    stats.prefetch_late += 1
                elif level == L1:
                    stats.prefetch_timely += 1
                else:
                    return ready, level
                pstats = self.prefetch_stats.get(pf_uid)
                if pstats is not None:
                    pstats.useful += 1
        return ready, level

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
