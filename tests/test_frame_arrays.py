"""Frame bookkeeping arrays against the dict-backed model they replaced.

:class:`PhysicalMemory` keeps one state byte per frame and
:class:`BuddyAllocator` one allocation-order byte per frame. The
reference below keeps the same facts in dicts keyed by frame number,
where an absent key means FREE / no allocation base. Hypothesis drives
both with random operation sequences, including out-of-range and
negative frames, and every query and every error must agree.
"""

import tracemalloc
from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, OutOfMemoryError, ReproError
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import FrameState, PhysicalMemory

FRAMES = 64
STATES = list(FrameState)
NON_FREE = [state for state in STATES if state is not FrameState.FREE]


class DictFrames:
    """Reference bookkeeping: frame -> state and base -> order dicts."""

    def __init__(self, num_frames: int, name: str) -> None:
        self.num_frames = num_frames
        self.name = name
        self.state: Dict[int, FrameState] = {}
        self.order: Dict[int, int] = {}

    def check_range(self, base: int, count: int) -> None:
        for frame in range(base, base + count):
            if not 0 <= frame < self.num_frames:
                raise InvalidAddressError(
                    f"{self.name}: frame {frame} outside [0, {self.num_frames})"
                )

    def set_range(self, base: int, count: int, state: FrameState) -> None:
        self.check_range(base, count)
        for frame in range(base, base + count):
            if state is FrameState.FREE:
                self.state.pop(frame, None)
            else:
                self.state[frame] = state

    def state_of(self, frame: int) -> FrameState:
        self.check_range(frame, 1)
        return self.state.get(frame, FrameState.FREE)

    def take(self, base: int) -> int:
        if base not in self.order:
            raise ReproError(
                f"{self.name}: frame {base} is not an allocation base"
            )
        return self.order.pop(base)

    def free_block_exists(self, order: int) -> bool:
        """A fully free aligned block of ``2**order`` frames exists (the
        buddy's free lists are maximal, so it then has one on a list)."""
        size = 1 << order
        return any(
            all(frame not in self.state for frame in range(base, base + size))
            for base in range(0, self.num_frames - size + 1, size)
        )


def outcome(call, *args):
    """``("ok", result)`` or the raised error's type and message."""
    try:
        return "ok", call(*args)
    except ReproError as exc:
        return type(exc), str(exc)


def assert_same_frames(memory: PhysicalMemory, ref: DictFrames,
                       buddy: Optional[BuddyAllocator] = None) -> None:
    for frame in (-1, memory.num_frames):
        assert outcome(memory.state_of, frame) == outcome(ref.state_of, frame)
    for frame in range(memory.num_frames):
        assert memory.state_of(frame) is ref.state_of(frame)
    for state in STATES:
        expected = sorted(
            frame for frame in range(ref.num_frames)
            if ref.state_of(frame) is state
        )
        assert list(memory.frames_in_state(state)) == expected
        assert memory.count_in_state(state) == len(expected)
    if buddy is not None:
        for base in range(-2, memory.num_frames + 2):
            assert buddy.order_allocated_at(base) == ref.order.get(base)


frame_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "range"]),
        st.integers(min_value=-4, max_value=FRAMES + 4),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(STATES),
    ),
    max_size=40,
)


@given(frame_ops)
@settings(max_examples=80, deadline=None)
def test_state_array_matches_dicts(ops):
    memory = PhysicalMemory(FRAMES, "test")
    ref = DictFrames(FRAMES, "test")
    for action, frame, count, state in ops:
        if action == "set":
            got = outcome(memory.set_state, frame, state)
            want = outcome(ref.set_range, frame, 1, state)
        else:
            got = outcome(memory.set_range_state, frame, count, state)
            want = outcome(ref.set_range, frame, count, state)
        assert got == want
        assert_same_frames(memory, ref)


buddy_ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "split", "alloc_at"]),
        st.integers(min_value=-3, max_value=FRAMES + 3),
        st.sampled_from(NON_FREE),
    ),
    max_size=50,
)


@given(st.integers(min_value=0, max_value=8), buddy_ops)
@settings(max_examples=80, deadline=None)
def test_buddy_order_array_matches_dict(reserved, ops):
    memory = PhysicalMemory(FRAMES, "test")
    buddy = BuddyAllocator(memory, reserved_base_frames=reserved)
    ref = DictFrames(FRAMES, "test")
    ref.set_range(0, reserved, FrameState.KERNEL)
    for action, arg, state in ops:
        if action == "alloc":
            order = arg % 4
            got = outcome(buddy.alloc, order, None, state)
            if not ref.free_block_exists(order):
                assert got[0] is OutOfMemoryError
                continue
            base = got[1]
            assert base % (1 << order) == 0
            assert all(
                ref.state_of(frame) is FrameState.FREE
                for frame in range(base, base + (1 << order))
            )
            ref.order[base] = order
            ref.set_range(base, 1 << order, state)
        elif action == "free":
            got = outcome(buddy.free, arg)
            want = outcome(ref.take, arg)
            assert got[0] == want[0] and (got[0] == "ok" or got == want)
            if want[0] == "ok":
                ref.set_range(arg, 1 << want[1], FrameState.FREE)
        elif action == "split":
            got = outcome(buddy.split_allocation, arg)
            want = outcome(ref.take, arg)
            assert got[0] == want[0] and (got[0] == "ok" or got == want)
            if want[0] == "ok":
                ref.order.update(
                    dict.fromkeys(range(arg, arg + (1 << want[1])), 0)
                )
        else:
            got = outcome(buddy.alloc_frame_at, arg, None, state)
            want = outcome(ref.state_of, arg)
            if want[0] != "ok":
                assert got == want
                continue
            assert got == ("ok", want[1] is FrameState.FREE)
            if got[1]:
                ref.order[arg] = 0
                ref.set_range(arg, 1, state)
        assert_same_frames(memory, ref, buddy)
    buddy.check_invariants()


def test_negative_frame_does_not_wrap_to_the_last():
    # A negative index reads the end of a bytearray; the dict missed.
    memory = PhysicalMemory(FRAMES, "test")
    buddy = BuddyAllocator(memory)
    assert buddy.alloc_frame_at(FRAMES - 1)
    assert buddy.order_allocated_at(-1) is None
    for call in (buddy.free, buddy.split_allocation):
        assert outcome(call, -1) == (
            ReproError, "test: frame -1 is not an allocation base"
        )
    assert outcome(memory.state_of, -1) == (
        InvalidAddressError, "test: frame -1 outside [0, 64)"
    )
    buddy.check_invariants()


def test_bookkeeping_does_not_grow_with_allocations():
    frames = 1 << 16
    memory = PhysicalMemory(frames, "guard")
    buddy = BuddyAllocator(memory)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(frames):
            buddy.alloc(0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert buddy.free_frames == 0
    assert memory.count_in_state(FrameState.USER) == frames
    assert grown < 64 * 1024, f"bookkeeping grew {grown} bytes"
