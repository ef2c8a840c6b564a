"""Flat physical-memory model: an array of page frames with ownership tags.

A :class:`PhysicalMemory` instance represents the RAM of one machine (host
or guest). It does not store data -- the simulator only cares about *which*
frames back *which* pages -- but it does track, per frame, whether the frame
is free, who owns it, and what it is used for. That bookkeeping is what
lets the fragmentation metrics and the PTEMagnet reclamation daemon reason
about the state of memory.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional

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
        self._state: Dict[int, FrameState] = {}
        self._owner: Dict[int, int] = {}

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
        return self._state.get(frame, FrameState.FREE)

    def owner_of(self, frame: int) -> Optional[int]:
        """Return the owner id of ``frame``, or ``None`` if unowned."""
        self.check_frame(frame)
        return self._owner.get(frame)

    def is_free(self, frame: int) -> bool:
        """True if ``frame`` is not in use."""
        return self.state_of(frame) is FrameState.FREE

    def frames_in_state(self, state: FrameState) -> Iterator[int]:
        """Yield every frame currently in ``state`` (sparse scan)."""
        if state is FrameState.FREE:
            for frame in range(self.num_frames):
                if self._state.get(frame, FrameState.FREE) is FrameState.FREE:
                    yield frame
            return
        for frame, current in self._state.items():
            if current is state:
                yield frame

    def count_in_state(self, state: FrameState) -> int:
        """Number of frames currently in ``state``."""
        if state is FrameState.FREE:
            non_free = sum(
                1 for s in self._state.values() if s is not FrameState.FREE
            )
            return self.num_frames - non_free
        return sum(1 for s in self._state.values() if s is state)

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #

    def set_state(
        self, frame: int, state: FrameState, owner: Optional[int] = None
    ) -> None:
        """Set the state (and optionally the owner) of one frame."""
        if not 0 <= frame < self.num_frames:
            self.check_frame(frame)
        if state is FrameState.FREE:
            self._state.pop(frame, None)
            self._owner.pop(frame, None)
            return
        self._state[frame] = state
        if owner is None:
            self._owner.pop(frame, None)
        else:
            self._owner[frame] = owner

    def set_range_state(
        self,
        base: int,
        count: int,
        state: FrameState,
        owner: Optional[int] = None,
    ) -> None:
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
        states = self._state
        owners = self._owner
        if state is FrameState.FREE:
            for frame in range(base, end):
                states.pop(frame, None)
                owners.pop(frame, None)
            return
        for frame in range(base, end):
            states[frame] = state
            if owner is None:
                owners.pop(frame, None)
            else:
                owners[frame] = owner
