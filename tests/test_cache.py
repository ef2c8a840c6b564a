"""Tests for the set-associative cache, the hierarchy, and the PWC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import AccessOutcome, CacheHierarchy
from repro.cache.pwc import PageWalkCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheConfig, MachineConfig
from repro.units import KB


def small_cache(size_kb=4, assoc=2, latency=4):
    return SetAssociativeCache(CacheConfig("T", size_kb * KB, assoc, latency))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(10)
        cache.fill(10)
        assert cache.access(10)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = small_cache(size_kb=4, assoc=2)  # 32 sets
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets  # all map to set 0
        cache.fill(a)
        cache.fill(b)
        cache.access(a)  # a becomes MRU
        cache.fill(c)  # evicts b (LRU)
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)
        assert cache.evictions == 1

    def test_fill_refreshes_existing(self):
        cache = small_cache(assoc=2)
        sets = cache.num_sets
        cache.fill(0)
        cache.fill(sets)
        cache.fill(0)  # refresh, not duplicate
        cache.fill(2 * sets)  # should evict `sets`, not 0
        assert cache.contains(0)
        assert not cache.contains(sets)

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.invalidate(5)
        assert not cache.contains(5)
        assert not cache.invalidate(5)

    def test_flush(self):
        cache = small_cache()
        for block in range(20):
            cache.fill(block)
        cache.flush()
        assert cache.occupancy() == 0

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(size_kb=4, assoc=2)
        for block in range(1000):
            cache.fill(block)
        assert cache.occupancy() <= (4 * KB) // 64

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheConfig("bad", 64 * 3, 2, 1))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fill", "access_fill", "invalidate", "flush"]),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_counter_survives_churn(self, ops):
        # occupancy() is a maintained O(1) counter, not a recount; every
        # mutation path (fill with/without eviction, combined
        # access_fill, invalidate hit/miss, flush) must keep it equal to
        # the ground truth sum over the sets.
        cache = small_cache(size_kb=4, assoc=2)
        for op, block in ops:
            if op == "fill":
                cache.fill(block)
            elif op == "access_fill":
                cache.access_fill(block)
            elif op == "invalidate":
                cache.invalidate(block)
            else:
                cache.flush()
            assert cache.occupancy() == sum(
                len(ways) for ways in cache._sets
            )

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_contains_after_fill_sequence(self, blocks):
        cache = small_cache(size_kb=4, assoc=4)
        for block in blocks:
            cache.fill(block)
        if blocks:
            # The most recently filled block is always resident.
            assert cache.contains(blocks[-1])


class TestCacheHierarchy:
    def test_first_access_goes_to_memory(self):
        h = CacheHierarchy(MachineConfig())
        latency = h.access(0x1000)
        assert latency == h.config.memory_latency_cycles
        assert h.counters("data").served_by[AccessOutcome.MEMORY] == 1

    def test_second_access_hits_l1(self):
        h = CacheHierarchy(MachineConfig())
        h.access(0x1000)
        assert h.access(0x1000) == h.config.l1.latency_cycles

    def test_same_block_different_bytes_hit(self):
        h = CacheHierarchy(MachineConfig())
        h.access(0x1000)
        assert h.access(0x1004) == h.config.l1.latency_cycles

    def test_stream_attribution(self):
        h = CacheHierarchy(MachineConfig())
        h.access(0x1000, "gpt")
        h.access(0x2000, "hpt")
        h.access(0x2000, "hpt")
        assert h.counters("gpt").accesses == 1
        assert h.counters("hpt").accesses == 2
        assert h.counters("hpt").memory_accesses == 1
        assert h.total_accesses() == 3

    def test_l1_eviction_falls_back_to_l2(self):
        config = MachineConfig()
        h = CacheHierarchy(config)
        blocks_in_l1 = config.l1.size_bytes // 64
        for block in range(blocks_in_l1 + h.l1.config.associativity):
            h.access_block(block)
        # Block 0 must have been evicted from L1 but should hit L2/LLC.
        latency = h.access_block(0)
        assert latency in (config.l2.latency_cycles, config.llc.latency_cycles)

    def test_shared_llc_between_hierarchies(self):
        config = MachineConfig()
        from repro.cache.set_assoc import SetAssociativeCache

        llc = SetAssociativeCache(config.llc)
        a = CacheHierarchy(config, shared_llc=llc)
        b = CacheHierarchy(config, shared_llc=llc)
        a.access(0x5000)
        # Core B misses its private L1/L2 but hits the shared LLC.
        assert b.access(0x5000) == config.llc.latency_cycles

    def test_reset_counters_keeps_contents(self):
        h = CacheHierarchy(MachineConfig())
        h.access(0x1000)
        h.reset_counters()
        assert h.total_accesses() == 0
        assert h.access(0x1000) == h.config.l1.latency_cycles

    def test_memory_fraction(self):
        h = CacheHierarchy(MachineConfig())
        h.access(0x1000)
        h.access(0x1000)
        assert h.counters("data").memory_fraction == pytest.approx(0.5)


class TestPageWalkCache:
    def test_miss_on_empty(self):
        pwc = PageWalkCache(8)
        assert pwc.lookup(0x123) is None
        assert pwc.misses == 1

    def test_fill_and_hit_deepest_level(self):
        pwc = PageWalkCache(8)
        pwc.fill(0x123, 3)
        pwc.fill(0x123, 1)
        assert pwc.lookup(0x123) == 1
        assert pwc.hits == 1

    def test_prefix_sharing(self):
        pwc = PageWalkCache(8)
        pwc.fill(0, 1)
        # Pages 0..511 share the same leaf node.
        assert pwc.lookup(511) == 1
        assert pwc.lookup(512) is None

    def test_capacity_eviction(self):
        pwc = PageWalkCache(2)
        pwc.fill(0 << 9, 1)
        pwc.fill(1 << 9, 1)
        assert pwc.lookup(0) == 1  # prefix 0 is now the newest
        pwc.fill(2 << 9, 1)  # evicts the oldest (prefix 1)
        assert pwc.lookup(1 << 9) is None
        assert pwc.lookup(0) == 1

    def test_zero_entries_disables(self):
        pwc = PageWalkCache(0)
        pwc.fill(0, 1)
        assert pwc.lookup(0) is None

    def test_invalidate_vpn(self):
        pwc = PageWalkCache(8)
        pwc.fill(0x123, 1)
        pwc.fill(0x123, 2)
        pwc.invalidate_vpn(0x123)
        assert pwc.lookup(0x123) is None

    def test_flush(self):
        pwc = PageWalkCache(8)
        pwc.fill(0x123, 1)
        pwc.flush()
        assert pwc.occupancy() == [0, 0, 0, 0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageWalkCache(-1)
