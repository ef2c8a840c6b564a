"""Tests for the buddy allocator, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError, ReproError
from repro.mem.buddy import MAX_ORDER, BuddyAllocator
from repro.mem.physical import FrameState, PhysicalMemory
from repro.mem.stats import free_list_histogram, unusable_free_index


def make_allocator(frames=1024, reserved=0):
    return BuddyAllocator(PhysicalMemory(frames, "test"), reserved)


class TestBasicAllocation:
    def test_initial_free_count(self):
        buddy = make_allocator(1024)
        assert buddy.free_frames == 1024

    def test_reserved_base_frames(self):
        buddy = make_allocator(1024, reserved=64)
        assert buddy.free_frames == 1024 - 64
        assert buddy.memory.state_of(0) is FrameState.KERNEL

    def test_alloc_single_frame(self):
        buddy = make_allocator()
        frame = buddy.alloc_frame(owner=7)
        assert buddy.memory.state_of(frame) is FrameState.USER
        assert buddy.free_frames == 1023

    def test_alloc_order3_is_aligned(self):
        buddy = make_allocator()
        base = buddy.alloc(3)
        assert base % 8 == 0
        assert buddy.free_frames == 1024 - 8

    def test_alloc_until_oom(self):
        buddy = make_allocator(16)
        for _ in range(16):
            buddy.alloc_frame()
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_frame()
        assert buddy.stats.failed_allocations == 1

    def test_free_returns_capacity(self):
        buddy = make_allocator(64)
        frames = [buddy.alloc_frame() for _ in range(64)]
        for frame in frames:
            buddy.free(frame)
        assert buddy.free_frames == 64

    def test_free_unknown_base_raises(self):
        buddy = make_allocator()
        with pytest.raises(ReproError):
            buddy.free(3)

    def test_double_free_raises(self):
        buddy = make_allocator()
        frame = buddy.alloc_frame()
        buddy.free(frame)
        with pytest.raises(ReproError):
            buddy.free(frame)

    def test_invalid_order_rejected(self):
        buddy = make_allocator()
        with pytest.raises(ValueError):
            buddy.alloc(MAX_ORDER + 1)
        with pytest.raises(ValueError):
            buddy.alloc(-1)


class TestCoalescing:
    def test_full_coalesce_after_free_all(self):
        buddy = make_allocator(1024)
        frames = [buddy.alloc_frame() for _ in range(1024)]
        for frame in frames:
            buddy.free(frame)
        # Everything should coalesce back into order-10 blocks.
        assert buddy.free_blocks(MAX_ORDER) == 1
        buddy.check_invariants()

    def test_buddies_merge(self):
        buddy = make_allocator(16)
        a = buddy.alloc(0)
        b = buddy.alloc(0)
        assert b == a ^ 1  # split hands out the buddy next
        buddy.free(a)
        buddy.free(b)
        assert buddy.stats.coalesces >= 1

    def test_non_buddies_do_not_merge(self):
        buddy = make_allocator(16)
        frames = [buddy.alloc_frame() for _ in range(4)]
        buddy.free(frames[0])
        buddy.free(frames[2])  # frames 0 and 2 are not buddies
        assert buddy.free_blocks(1) == 0
        buddy.check_invariants()


class TestSplitAllocation:
    def test_split_allows_individual_frees(self):
        buddy = make_allocator(64)
        base = buddy.alloc(3)
        buddy.split_allocation(base)
        for frame in range(base, base + 8):
            buddy.free(frame)
        assert buddy.free_frames == 64

    def test_split_unknown_base_raises(self):
        buddy = make_allocator()
        with pytest.raises(ReproError):
            buddy.split_allocation(123)

    def test_split_preserves_frame_count(self):
        buddy = make_allocator(64)
        base = buddy.alloc(3)
        before = buddy.free_frames
        buddy.split_allocation(base)
        assert buddy.free_frames == before
        buddy.check_invariants()


class TestLifoRecycling:
    def test_most_recently_freed_is_reused_first(self):
        buddy = make_allocator(64)
        frames = [buddy.alloc_frame() for _ in range(8)]
        buddy.free(frames[3])
        assert buddy.alloc_frame() == frames[3]


class TestStatsHelpers:
    def test_histogram_sums_to_free_frames(self):
        buddy = make_allocator(1024)
        for _ in range(100):
            buddy.alloc_frame()
        histogram = free_list_histogram(buddy)
        assert sum(histogram.values()) == buddy.free_frames

    def test_unusable_index_fresh_allocator(self):
        buddy = make_allocator(1024)
        assert unusable_free_index(buddy, 3) == 0.0

    def test_unusable_index_rises_with_fragmentation(self):
        buddy = make_allocator(64)
        frames = [buddy.alloc_frame() for _ in range(64)]
        # Free every other frame: nothing can coalesce.
        for frame in frames[::2]:
            buddy.free(frame)
        assert unusable_free_index(buddy, 3) == 1.0

    def test_unusable_index_when_empty(self):
        buddy = make_allocator(16)
        for _ in range(16):
            buddy.alloc_frame()
        assert unusable_free_index(buddy, 0) == 1.0


@st.composite
def alloc_free_script(draw):
    """A random sequence of allocation orders and free positions."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free", "split"]),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=60,
        )
    )


class TestPropertyBased:
    @given(alloc_free_script())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_any_script(self, script):
        buddy = make_allocator(512)
        live = []
        for action, arg in script:
            if action == "alloc":
                try:
                    base = buddy.alloc(arg)
                except OutOfMemoryError:
                    continue
                live.append(base)
            elif action == "free" and live:
                buddy.free(live.pop(arg % len(live)))
            elif action == "split" and live:
                base = live.pop(arg % len(live))
                order = buddy.order_allocated_at(base)
                buddy.split_allocation(base)
                live.extend(range(base, base + (1 << order)))
        buddy.check_invariants()

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, orders):
        buddy = make_allocator(512)
        allocated = 0
        bases = []
        for order in orders:
            try:
                bases.append((buddy.alloc(order), order))
                allocated += 1 << order
            except OutOfMemoryError:
                continue
        assert buddy.free_frames == 512 - allocated
        for base, order in bases:
            buddy.free(base)
        assert buddy.free_frames == 512
        buddy.check_invariants()

    @given(st.integers(min_value=1, max_value=MAX_ORDER))
    @settings(max_examples=20, deadline=None)
    def test_alignment_of_any_order(self, order):
        buddy = make_allocator(2048)
        base = buddy.alloc(order)
        assert base % (1 << order) == 0
