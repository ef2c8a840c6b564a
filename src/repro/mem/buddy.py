"""Binary buddy allocator over physical page frames.

This is a faithful model of the Linux physical-page allocator as the paper
describes it (§2.4): optimised for *fast* allocation, not for handing out
contiguous frames to one client. Free blocks of each order ``k`` (a block
is ``2**k`` naturally-aligned frames) live on per-order free lists. Blocks
are split on demand and buddies are coalesced on free.

Two behaviours matter for reproducing the paper:

* **LIFO free lists.** Linux pushes freed pages on the head of the list and
  allocates from the head (hot pages stay cache-warm). Under colocation,
  co-runners continuously allocate and free, so the order-0 list becomes a
  scrambled stack of recycled frames; interleaved page faults from another
  application then receive effectively random frames. That is precisely the
  fragmentation mechanism of §3.
* **Order-3 allocation.** PTEMagnet requests aligned 8-frame blocks
  (order 3) for its reservations; the same splitting machinery serves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import InvariantViolation, OutOfMemoryError, ReproError
from .physical import FrameState, PhysicalMemory

#: Largest supported order, as in Linux (2**10 frames = 4MB blocks).
MAX_ORDER = 10


@dataclass
class BuddyStats:
    """Counters describing allocator activity."""

    allocations: int = 0
    frees: int = 0
    splits: int = 0
    coalesces: int = 0
    failed_allocations: int = 0
    allocations_by_order: Dict[int, int] = field(default_factory=dict)

    def record_alloc(self, order: int) -> None:
        self.allocations += 1
        self.allocations_by_order[order] = (
            self.allocations_by_order.get(order, 0) + 1
        )


class BuddyAllocator:
    """Buddy allocator managing the frames of a :class:`PhysicalMemory`.

    Parameters
    ----------
    memory:
        The physical memory whose frames this allocator manages.
    reserved_base_frames:
        Number of low frames to mark as kernel-reserved at construction
        (models the kernel image / early boot allocations).
    """

    def __init__(
        self, memory: PhysicalMemory, reserved_base_frames: int = 0
    ) -> None:
        if reserved_base_frames < 0 or reserved_base_frames > memory.num_frames:
            raise ValueError("reserved_base_frames out of range")
        self.memory = memory
        self.stats = BuddyStats()
        #: Optional :class:`repro.sanitizer.FrameSanitizer` attached by the
        #: kernel in debug mode; ``None`` keeps every hook to one attr read.
        self.sanitizer = None
        # One insertion-ordered dict per order; keys are block base frames.
        # Items are pushed/popped at the *end*, giving LIFO (hot-page) reuse.
        self._free: List[Dict[int, None]] = [
            {} for _ in range(MAX_ORDER + 1)
        ]
        #: One byte per frame, like the state array: 1 + the order of the
        #: live allocation based at that frame, 0 for any other frame.
        self._allocated_order = bytearray(memory.num_frames)
        self._free_frames = 0
        self._seed_free_lists(reserved_base_frames)
        if reserved_base_frames:
            memory.set_range_state(0, reserved_base_frames, FrameState.KERNEL)

    def _seed_free_lists(self, start_frame: int) -> None:
        """Carve the initial frame range into maximal aligned free blocks."""
        frame = start_frame
        end = self.memory.num_frames
        while frame < end:
            order = MAX_ORDER
            while order > 0 and (
                frame % (1 << order) != 0 or frame + (1 << order) > end
            ):
                order -= 1
            self._free[order][frame] = None
            self._free_frames += 1 << order
            frame += 1 << order

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def free_frames(self) -> int:
        """Total number of free frames across all orders."""
        return self._free_frames

    @property
    def free_fraction(self) -> float:
        """Free frames as a fraction of total frames."""
        return self._free_frames / self.memory.num_frames

    def free_blocks(self, order: int) -> int:
        """Number of free blocks currently on the ``order`` free list."""
        self._check_order(order)
        return len(self._free[order])

    def free_list_snapshot(self) -> Dict[int, int]:
        """Mapping order -> number of free blocks (for fragmentation stats)."""
        return {order: len(blocks) for order, blocks in enumerate(self._free)}

    def order_allocated_at(self, base: int) -> Optional[int]:
        """Order of the live allocation whose base frame is ``base``, or
        ``None`` when ``base`` is no allocation base."""
        # Range-checked: a negative index would wrap around the array.
        allocated = self._allocated_order
        code = allocated[base] if 0 <= base < len(allocated) else 0
        return code - 1 if code else None

    # ------------------------------------------------------------------ #
    # Allocation / free
    # ------------------------------------------------------------------ #

    def alloc(
        self,
        order: int = 0,
        owner: Optional[int] = None,
        state: FrameState = FrameState.USER,
    ) -> int:
        """Allocate a naturally-aligned block of ``2**order`` frames.

        Returns the base frame number. Raises :class:`OutOfMemoryError`
        when no block of the requested order or larger is free.
        """
        if not 0 <= order <= MAX_ORDER:
            self._check_order(order)
        free_lists = self._free
        source = order
        while not free_lists[source]:
            source += 1
            if source > MAX_ORDER:
                self.stats.failed_allocations += 1
                raise OutOfMemoryError(
                    f"{self.memory.name}: no free block of order >= {order}"
                )
        # LIFO: popitem() takes the most recently freed block.
        base = free_lists[source].popitem()[0]
        while source > order:
            source -= 1
            buddy = base + (1 << source)
            free_lists[source][buddy] = None
            self.stats.splits += 1
        self._allocated_order[base] = order + 1
        self._free_frames -= 1 << order
        self.stats.record_alloc(order)
        self.memory.set_range_state(base, 1 << order, state)
        san = self.sanitizer
        if san is not None:
            san.on_alloc(base, 1 << order, owner)
        return base

    def free(self, base: int) -> None:
        """Free the block previously allocated at base frame ``base``.

        Coalesces with free buddies up to :data:`MAX_ORDER`, exactly like
        ``__free_pages`` in Linux.
        """
        san = self.sanitizer
        if san is not None:
            # Before mutating: the shadow state names the bug precisely
            # (double-free vs free-of-reserved vs free-of-mapped).
            san.on_free(base, self.order_allocated_at(base))
        order = self._take_allocation(base)
        self.memory.set_range_state(base, 1 << order, FrameState.FREE)
        self._free_frames += 1 << order
        free_lists = self._free
        blocks = free_lists[order]
        while order < MAX_ORDER:
            buddy = base ^ (1 << order)
            if buddy not in blocks:
                break
            del blocks[buddy]
            if buddy < base:
                base = buddy
            order += 1
            blocks = free_lists[order]
            self.stats.coalesces += 1
        blocks[base] = None
        self.stats.frees += 1

    def alloc_frame(
        self, owner: Optional[int] = None, state: FrameState = FrameState.USER
    ) -> int:
        """Allocate a single frame (order-0 convenience wrapper)."""
        return self.alloc(0, owner=owner, state=state)

    def alloc_frame_at(self, frame: int, owner: Optional[int] = None,
                       state: FrameState = FrameState.USER) -> bool:
        """Try to allocate the specific frame ``frame`` (targeted allocation).

        Used by the CA-paging-style baseline (§7): best-effort contiguity
        by requesting the frame adjacent to the previous allocation. If
        the frame sits in a free block, the block is split so that exactly
        this frame is handed out; otherwise returns ``False``. The paper's
        criticism of this approach -- another tenant may already hold the
        target frame -- falls out naturally.
        """
        self.memory.check_frame(frame)
        for order in range(MAX_ORDER + 1):
            base = frame & ~((1 << order) - 1)
            if base not in self._free[order]:
                continue
            del self._free[order][base]
            # Split down, keeping the halves that do not contain `frame`.
            current = order
            while current > 0:
                current -= 1
                half = base + (1 << current)
                self._free[current][base if frame >= half else half] = None
                self.stats.splits += 1
                if frame >= half:
                    base = half
            self._allocated_order[frame] = 1
            self._free_frames -= 1
            self.stats.record_alloc(0)
            self.memory.set_state(frame, state)
            san = self.sanitizer
            if san is not None:
                san.on_alloc(frame, 1, owner, site="buddy.alloc_frame_at")
            return True
        return False

    def split_allocation(self, base: int) -> None:
        """Convert a live high-order allocation into order-0 allocations.

        Equivalent to Linux's ``split_page()``: after splitting, each frame
        of the block is an independent order-0 allocation that can be freed
        individually. PTEMagnet uses this on its order-3 reservation chunks
        so single reserved pages can later be returned to the free lists by
        the reclamation daemon or by the application's ``free()``.
        """
        count = 1 << self._take_allocation(base)
        self._allocated_order[base:base + count] = b"\x01" * count

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _take_allocation(self, base: int) -> int:
        """Forget the live allocation based at ``base``; return its order."""
        order = self.order_allocated_at(base)
        if order is None:
            raise ReproError(
                f"{self.memory.name}: frame {base} is not an allocation base"
            )
        self._allocated_order[base] = 0
        return order

    @staticmethod
    def _check_order(order: int) -> None:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")

    # ------------------------------------------------------------------ #
    # Integrity checking (used by property-based tests)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify free-list alignment, disjointness and frame conservation.

        Raises :class:`~repro.errors.InvariantViolation` (a
        :class:`ReproError`) on any violation. Used by property-based
        tests and by the :mod:`repro.invariants` debug contracts; cost is
        linear in the number of free blocks and live allocations.
        """
        seen: Dict[int, str] = {}
        total_free = 0
        for order, blocks in enumerate(self._free):
            for base in blocks:
                if base % (1 << order) != 0:
                    raise InvariantViolation(
                        f"free block {base} misaligned for order {order}"
                    )
                total_free += 1 << order
                for frame in range(base, base + (1 << order)):
                    if frame in seen:
                        raise InvariantViolation(
                            f"frame {frame} on two lists"
                        )
                    seen[frame] = f"free[{order}]"
        if total_free != self._free_frames:
            raise InvariantViolation(
                f"free-frame count {self._free_frames} != lists {total_free}"
            )
        allocated = enumerate(self._allocated_order)
        for base, order in ((b, code - 1) for b, code in allocated if code):
            if base % (1 << order) != 0:
                raise InvariantViolation(
                    f"allocation {base} misaligned for order {order}"
                )
            for frame in range(base, base + (1 << order)):
                if frame in seen:
                    raise InvariantViolation(
                        f"frame {frame} both allocated and {seen[frame]}"
                    )
                seen[frame] = "allocated"
