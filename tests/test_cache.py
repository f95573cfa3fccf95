"""Tests for the set-associative cache models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import (
    Cache,
    EXCLUSIVE,
    L1Cache,
    MODIFIED,
    SHARED,
)
from repro.params import CacheConfig


def small_cache(size=1024, assoc=4, line=32) -> Cache:
    return Cache(CacheConfig(size, assoc, line))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(5) is None
        cache.insert(5, SHARED, 0xAB)
        line = cache.lookup(5)
        assert line is not None
        assert line.value == 0xAB
        assert cache.n_hits == 1
        assert cache.n_misses == 1

    def test_insert_returns_lru_victim(self):
        cache = Cache(CacheConfig(4 * 32, 4, 32))  # one set, 4 ways
        for addr in range(0, 16, 4):  # same set (n_sets == 1)
            cache.insert(addr, SHARED, addr)
        # Touch the oldest so the second-oldest becomes the victim.
        cache.lookup(0)
        _, victim = cache.insert(100, SHARED, 0)
        assert victim is not None
        assert victim.addr == 4

    def test_insert_resident_line_raises(self):
        # A refill over a live line would leave its dirty bit stale (a
        # SHARED line refilled as MODIFIED would never be written back).
        cache = small_cache()
        line, _ = cache.insert(7, SHARED, 1)
        with pytest.raises(ValueError, match="already resident"):
            cache.insert(7, MODIFIED, 2)
        assert cache.peek(7) is line
        assert (line.state, line.value, line.dirty) == (SHARED, 1, False)
        assert len(cache) == 1

    def test_invalidate_removes_line(self):
        cache = small_cache()
        cache.insert(3, EXCLUSIVE, 9)
        removed = cache.invalidate(3)
        assert removed is not None and removed.addr == 3
        assert cache.peek(3) is None
        assert cache.invalidate(3) is None

    def test_invalidate_all_counts(self):
        cache = small_cache()
        for addr in range(10):
            cache.insert(addr, SHARED, 0)
        assert cache.invalidate_all() == 10
        assert len(cache) == 0

    def test_dirty_lines_filtered(self):
        cache = small_cache()
        cache.insert(1, MODIFIED, 0)
        cache.insert(2, SHARED, 0)
        cache.insert(3, MODIFIED, 0)
        assert sorted(ln.addr for ln in cache.dirty_lines()) == [1, 3]

    def test_delayed_lines_filtered(self):
        cache = small_cache()
        a, _ = cache.insert(1, MODIFIED, 0)
        cache.insert(2, MODIFIED, 0)
        a.delayed = True
        assert [ln.addr for ln in cache.delayed_lines()] == [1]

    def test_modified_line_starts_dirty(self):
        cache = small_cache()
        line, _ = cache.insert(4, MODIFIED, 0)
        assert line.dirty
        clean, _ = cache.insert(5, SHARED, 0)
        assert not clean.dirty

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, addrs):
        cache = Cache(CacheConfig(8 * 32, 2, 32))  # 8 lines, 2-way
        for addr in addrs:
            # The engine's discipline: install only after a miss.
            if cache.lookup(addr) is None:
                cache.insert(addr, SHARED, 0)
            assert len(cache) <= 8
            for cset in cache._sets:
                assert len(cset) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_resident_iff_inserted_not_evicted(self, addrs):
        cache = Cache(CacheConfig(16 * 32, 4, 32))
        alive = set()
        for addr in addrs:
            if cache.lookup(addr) is None:
                _, victim = cache.insert(addr, SHARED, 0)
                alive.add(addr)
                if victim is not None:
                    alive.discard(victim.addr)
            assert cache.resident(addr)
        assert {ln.addr for ln in cache.lines()} == alive


class TestL1:
    def test_fill_then_contains(self):
        l1 = L1Cache(CacheConfig(256, 2, 32))
        assert not l1.contains(9)
        l1.fill(9)
        assert l1.contains(9)

    def test_lru_eviction(self):
        l1 = L1Cache(CacheConfig(2 * 32, 2, 32))  # one set, 2 ways
        l1.fill(0)
        l1.fill(1)
        l1.contains(0)      # touch 0; 1 becomes LRU
        l1.fill(2)          # evicts 1
        assert l1.contains(0)
        assert not l1.contains(1)

    def test_invalidate(self):
        l1 = L1Cache(CacheConfig(256, 2, 32))
        l1.fill(4)
        l1.invalidate(4)
        assert not l1.contains(4)

    def test_invalidate_all(self):
        l1 = L1Cache(CacheConfig(256, 2, 32))
        for addr in range(5):
            l1.fill(addr)
        assert l1.invalidate_all() == 5
        assert len(l1) == 0
