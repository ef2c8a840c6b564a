"""Flat physical-memory model: one state byte per page frame.

A :class:`PhysicalMemory` instance represents the RAM of one machine (host
or guest). It does not store data -- the simulator only cares about *which*
frames back *which* pages -- but it does track, per frame, whether the frame
is free and what it is used for, in a fixed array indexed by frame number
(Linux's ``mem_map``): one byte per frame, however many are allocated. The
owner of a frame is not recorded here; the sanitizer carries it. The
meminfo counts and the invariant checks read this array.
"""

from __future__ import annotations

import enum
from typing import Iterator

from ..errors import InvalidAddressError
from ..units import PAGE_SIZE


class FrameState(enum.Enum):
    """What a physical frame is currently used for."""

    FREE = "free"
    #: Mapped into some process' address space (anonymous/user data).
    USER = "user"
    #: Holds a page-table node.
    PAGE_TABLE = "page_table"
    #: Taken from the buddy allocator by PTEMagnet but not yet mapped.
    RESERVED = "reserved"
    #: Kernel-internal use other than page tables.
    KERNEL = "kernel"


#: A frame's state byte is the state's index here; FREE is code 0, so a
#: zeroed array is all-free memory.
_STATES = tuple(FrameState)
_CODE = {state: code for code, state in enumerate(_STATES)}


class PhysicalMemory:
    """Bookkeeping for the physical frames of one machine.

    Parameters
    ----------
    num_frames:
        Total number of 4KB frames.
    name:
        Human-readable tag used in error messages (``"host"`` / ``"guest"``).
    """

    def __init__(self, num_frames: int, name: str = "ram") -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.name = name
        self.num_frames = num_frames
        self._state = bytearray(num_frames)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.num_frames * PAGE_SIZE

    def check_frame(self, frame: int) -> None:
        """Raise :class:`InvalidAddressError` unless ``frame`` is in range."""
        if not 0 <= frame < self.num_frames:
            raise InvalidAddressError(
                f"{self.name}: frame {frame} outside [0, {self.num_frames})"
            )

    def state_of(self, frame: int) -> FrameState:
        """Return the current :class:`FrameState` of ``frame``."""
        self.check_frame(frame)
        return _STATES[self._state[frame]]

    def is_free(self, frame: int) -> bool:
        """True if ``frame`` is not in use."""
        return self.state_of(frame) is FrameState.FREE

    def frames_in_state(self, state: FrameState) -> Iterator[int]:
        """Yield every frame currently in ``state``, in frame order."""
        code = _CODE[state]
        states = self._state
        frame = states.find(code)
        while frame >= 0:
            yield frame
            frame = states.find(code, frame + 1)

    def count_in_state(self, state: FrameState) -> int:
        """Number of frames currently in ``state``."""
        return self._state.count(_CODE[state])

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #

    def set_state(self, frame: int, state: FrameState) -> None:
        """Set the state of one frame."""
        if not 0 <= frame < self.num_frames:
            self.check_frame(frame)
        self._state[frame] = _CODE[state]

    def set_range_state(self, base: int, count: int, state: FrameState) -> None:
        """Set the state of ``count`` contiguous frames starting at ``base``.

        The range is checked once, before any frame changes: a range that
        leaves ``[0, num_frames)`` raises :class:`InvalidAddressError`
        naming its first frame outside, and no frame's state moves.
        """
        if count <= 0:
            return
        end = base + count
        if base < 0 or end > self.num_frames:
            self.check_frame(base if base < 0 else max(base, self.num_frames))
        self._state[base:end] = bytes((_CODE[state],)) * count
