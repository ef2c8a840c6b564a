"""Tests for the physical-memory frame bookkeeping."""

import pytest

from repro.errors import InvalidAddressError
from repro.mem.physical import FrameState, PhysicalMemory


class TestConstruction:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_size_bytes(self):
        mem = PhysicalMemory(100)
        assert mem.size_bytes == 100 * 4096

    def test_all_frames_start_free(self):
        mem = PhysicalMemory(16)
        assert all(mem.is_free(frame) for frame in range(16))


class TestStateTransitions:
    def test_set_and_query_state(self):
        mem = PhysicalMemory(16)
        mem.set_state(3, FrameState.USER)
        assert mem.state_of(3) is FrameState.USER

    def test_free_clears_state(self):
        mem = PhysicalMemory(16)
        mem.set_state(3, FrameState.USER)
        mem.set_state(3, FrameState.FREE)
        assert mem.is_free(3)
        assert mem.count_in_state(FrameState.USER) == 0

    def test_set_range_state(self):
        mem = PhysicalMemory(16)
        mem.set_range_state(4, 4, FrameState.RESERVED)
        assert all(
            mem.state_of(frame) is FrameState.RESERVED for frame in range(4, 8)
        )

    def test_set_range_state_out_of_range_changes_nothing(self):
        # The range is checked before any frame moves; the error names
        # the first frame outside, as a frame-by-frame check would.
        mem = PhysicalMemory(16)
        mem.set_state(14, FrameState.USER)
        with pytest.raises(InvalidAddressError, match=r"frame 16 outside \[0, 16\)"):
            mem.set_range_state(12, 8, FrameState.KERNEL)
        with pytest.raises(InvalidAddressError, match="frame -2 outside"):
            mem.set_range_state(-2, 4, FrameState.FREE)
        with pytest.raises(InvalidAddressError, match="frame 20 outside"):
            mem.set_range_state(20, 1, FrameState.RESERVED)
        assert [mem.state_of(frame) for frame in range(16)] == (
            [FrameState.FREE] * 14 + [FrameState.USER, FrameState.FREE]
        )

    def test_state_change_replaces_state(self):
        mem = PhysicalMemory(16)
        mem.set_state(5, FrameState.USER)
        mem.set_state(5, FrameState.RESERVED)
        assert mem.state_of(5) is FrameState.RESERVED
        assert mem.count_in_state(FrameState.USER) == 0

    def test_out_of_range_raises(self):
        mem = PhysicalMemory(16)
        with pytest.raises(InvalidAddressError):
            mem.state_of(16)
        with pytest.raises(InvalidAddressError):
            mem.set_state(-1, FrameState.USER)
        # A negative frame must not wrap around to the end of the array.
        with pytest.raises(InvalidAddressError):
            mem.state_of(-1)


class TestCountsAndScans:
    def test_count_in_state(self):
        mem = PhysicalMemory(16)
        mem.set_range_state(0, 3, FrameState.PAGE_TABLE)
        assert mem.count_in_state(FrameState.PAGE_TABLE) == 3
        assert mem.count_in_state(FrameState.FREE) == 13

    def test_frames_in_state(self):
        mem = PhysicalMemory(8)
        mem.set_state(2, FrameState.KERNEL)
        mem.set_state(5, FrameState.KERNEL)
        assert list(mem.frames_in_state(FrameState.KERNEL)) == [2, 5]

    def test_frames_in_free_state(self):
        mem = PhysicalMemory(4)
        mem.set_state(1, FrameState.USER)
        assert list(mem.frames_in_state(FrameState.FREE)) == [0, 2, 3]
