"""Unit and property tests for the simulated heap."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import HEAP_BASE, Heap
from repro.isa.memory import HeapImage, MemoryError_


class TestAlloc:
    def test_allocations_are_disjoint(self):
        heap = Heap(1 << 16)
        a = heap.alloc(24)
        b = heap.alloc(24)
        assert b >= a + 24

    def test_alignment(self):
        heap = Heap(1 << 16)
        addr = heap.alloc(8, align=64)
        assert addr % 64 == 0

    def test_first_allocation_above_null_page(self):
        assert Heap(1 << 16).alloc(8) >= HEAP_BASE

    def test_exhaustion(self):
        heap = Heap(1 << 13)
        with pytest.raises(MemoryError_):
            heap.alloc(1 << 14)

    def test_bad_sizes_rejected(self):
        heap = Heap(1 << 13)
        with pytest.raises(ValueError):
            heap.alloc(0)
        with pytest.raises(ValueError):
            heap.alloc(8, align=12)

    def test_heap_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            Heap(1001)

    def test_alloc_array_line_aligned(self):
        heap = Heap(1 << 16)
        assert heap.alloc_array(10, 8) % 64 == 0


class TestAccess:
    def test_store_load_roundtrip(self):
        heap = Heap(1 << 16)
        addr = heap.alloc(8)
        heap.store(addr, 0xDEADBEEF)
        assert heap.load(addr) == 0xDEADBEEF

    def test_misaligned_access_rejected(self):
        heap = Heap(1 << 16)
        with pytest.raises(MemoryError_):
            heap.load(heap.alloc(8) + 1)

    def test_out_of_range_rejected(self):
        heap = Heap(1 << 16)
        with pytest.raises(MemoryError_):
            heap.load(1 << 20)
        with pytest.raises(MemoryError_):
            heap.store(0, 1)

    def test_valid_predicate(self):
        heap = Heap(1 << 16)
        addr = heap.alloc(8)
        assert heap.valid(addr)
        assert not heap.valid(addr + 1)
        assert not heap.valid(0)
        assert not heap.valid(1 << 20)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 499),
                              st.integers(-2**63, 2**63 - 1)),
                    min_size=1, max_size=60))
    def test_last_write_wins(self, writes):
        heap = Heap(1 << 16)
        base = heap.alloc(500 * 8)
        expected = {}
        for slot, value in writes:
            heap.store(base + slot * 8, value)
            expected[slot] = value
        for slot, value in expected.items():
            assert heap.load(base + slot * 8) == value

    @given(st.lists(st.integers(8, 256), min_size=1, max_size=40))
    def test_allocations_never_overlap(self, sizes):
        heap = Heap(1 << 20)
        regions = []
        for size in sizes:
            addr = heap.alloc(size)
            for start, length in regions:
                assert addr >= start + length or addr + size <= start
            regions.append((addr, size))

    @given(st.lists(st.tuples(st.integers(0, 499),
                              st.integers(-2**63, 2**63 - 1)),
                    max_size=60),
           st.integers(1, 256))
    def test_image_thaws_an_equal_independent_heap(self, writes, extra):
        """An image keeps every stored word (zeros and 64-bit values
        too) in the heap's order, and each thaw is a fresh copy."""
        heap = Heap(1 << 16)
        base = heap.alloc(500 * 8)
        for slot, value in writes:
            heap.store(base + slot * 8, value)
        heap.alloc(extra)
        image = HeapImage(heap)
        copy = image.thaw()
        assert list(copy._words.items()) == list(heap._words.items())
        assert (copy.size, copy.brk) == (heap.size, heap.brk)
        copy.store(base, 1)
        copy.alloc(8)
        again = image.thaw()
        assert list(again._words.items()) == list(heap._words.items())
        assert again.brk == heap.brk
