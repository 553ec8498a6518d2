"""Simulated flat memory with a bump allocator.

Workloads lay out their pointer data structures here before simulation (the
role the OS loader and ``malloc`` play for the paper's benchmarks), and the
simulator's loads/stores read and write it.  Addresses are byte addresses;
storage is word (8-byte) granular, which is the only access size the ISA
defines (Itanium ``ld8``/``st8``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned access."""


WORD = 8

#: Heap base: leave the zero page unmapped so null-pointer bugs in workloads
#: fault loudly instead of silently reading 0.
HEAP_BASE = 0x1000


class Heap:
    """Word-granular flat memory with bump allocation.

    ``alloc`` hands out 8-byte-aligned chunks; ``load``/``store`` access
    64-bit words.  There is no ``free`` — the paper's kernels only allocate
    during setup.
    """

    def __init__(self, size_bytes: int = 1 << 24):
        if size_bytes % WORD:
            raise ValueError("heap size must be a multiple of 8")
        self.size = size_bytes
        # Sparse storage: word index -> value, zero when absent.  A dense
        # ``[0] * (size // 8)`` list cost more to allocate than a tiny
        # workload takes to simulate, and snapshots pickled megabytes of
        # zeros; workloads only ever touch what they allocate.
        self._words: Dict[int, int] = {}
        self._brk = HEAP_BASE

    def alloc(self, nbytes: int, align: int = WORD) -> int:
        """Allocate ``nbytes`` (rounded up to a word), return the address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align < WORD or align & (align - 1):
            raise ValueError("alignment must be a power of two >= 8")
        self._brk = (self._brk + align - 1) & ~(align - 1)
        addr = self._brk
        self._brk += (nbytes + WORD - 1) & ~(WORD - 1)
        if self._brk > self.size:
            raise MemoryError_(
                f"heap exhausted: brk {self._brk:#x} > size {self.size:#x}")
        return addr

    def alloc_array(self, count: int, elem_bytes: int,
                    align: int = 64) -> int:
        """Allocate an array; defaults to cache-line alignment."""
        return self.alloc(count * elem_bytes, align)

    @property
    def brk(self) -> int:
        """Current top of the allocated heap."""
        return self._brk

    def _index(self, addr: int) -> int:
        if addr % WORD:
            raise MemoryError_(f"misaligned access at {addr:#x}")
        if not HEAP_BASE <= addr < self.size:
            raise MemoryError_(f"access out of range at {addr:#x}")
        return addr >> 3

    def load(self, addr: int) -> int:
        """Read the 64-bit word at ``addr``."""
        return self._words.get(self._index(addr), 0)

    def store(self, addr: int, value: int) -> None:
        """Write the 64-bit word at ``addr``."""
        self._words[self._index(addr)] = value

    def diff(self, other: "Heap", limit: int = 8
             ) -> List[Tuple[int, int, int]]:
        """First ``limit`` word mismatches vs ``other``: (addr, self, other).

        The differential verifier uses this to prove an adapted binary's
        memory effects match the original's.  A size mismatch is reported
        as one final entry carrying the two word counts.
        """
        out: List[Tuple[int, int, int]] = []
        words_a, words_b = self._words, other._words
        n = min(self.size, other.size) // WORD
        touched = set(words_a)
        touched.update(words_b)
        for idx in sorted(touched):
            if idx >= n:
                continue
            a = words_a.get(idx, 0)
            b = words_b.get(idx, 0)
            if a != b:
                out.append((idx * WORD, a, b))
                if len(out) >= limit:
                    return out
        if self.size != other.size:
            out.append((n * WORD, self.size // WORD, other.size // WORD))
        return out

    def digest(self) -> str:
        """SHA-256 of the heap's architectural contents.

        Covers ``size`` and every non-zero word, so an explicitly stored
        zero digests like an absent word — two heaps digest equal exactly
        when :meth:`diff` finds nothing between them.
        """
        words = self._words
        keys = sorted([k for k, v in words.items() if v])
        values = [words[k] for k in keys]
        return hashlib.sha256(
            repr((self.size, keys, values)).encode()).hexdigest()

    def valid(self, addr: int) -> bool:
        """True if ``addr`` is a mapped, aligned word address.

        Speculative threads may compute garbage addresses (the paper:
        "prefetching wrong addresses may hurt performance" but must not
        fault); the simulator uses this check to drop such prefetches the
        way Itanium's non-faulting ``lfetch`` does.
        """
        return addr % WORD == 0 and HEAP_BASE <= addr < self.size
