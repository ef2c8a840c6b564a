"""The PTEMagnet fault-path allocator (§4.2).

On every page fault of a PTEMagnet-enabled process the kernel calls
:meth:`PTEMagnetAllocator.fault`:

* The faulting address is rounded to its 32KB group and PaRT is queried.
* **Hit**: the already-reserved frame for the faulting slot is returned
  immediately -- no buddy-allocator call. When the reservation becomes
  full, its PaRT entry is deleted.
* **Miss**: an aligned 8-frame chunk is taken from the buddy allocator
  (order 3), split into individually-freeable frames, the faulting slot is
  mapped, and the remaining seven frames stay reserved. If no order-3
  block exists (fragmented free memory -- the §4.4 limitation), the
  allocator falls back to a plain single-page allocation with no
  reservation.

Fork rule (§4.4): a child process may *consume* unallocated pages from its
parent's reservations but may not create reservations in the parent's map;
its own new memory gets reservations in its own PaRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..errors import OutOfMemoryError
from ..mem.buddy import BuddyAllocator
from ..mem.physical import FrameState
from ..obs.profile import PROFILER
from ..units import MAX_RESERVATION_ORDER, RESERVATION_ORDER
from .part import PageReservationTable
from .reservation import Reservation


@dataclass
class AllocatorStats:
    """Activity counters for the PTEMagnet fault path."""

    faults: int = 0
    reservation_hits: int = 0
    reservations_created: int = 0
    reservations_completed: int = 0
    fallback_single_pages: int = 0
    #: Reservation hits served by the parent's PaRT (§4.4).
    parent_reservation_hits: int = 0


class FaultPathResult(NamedTuple):
    """What the fault path produced for one page fault."""

    #: The guest physical frame now backing the faulting page.
    frame: int
    #: True if the frame came from an existing reservation (fast path).
    from_reservation: bool
    #: True if a new reservation was created on this fault.
    created_reservation: bool
    #: True if the allocator fell back to a plain single-page allocation.
    fallback: bool
    #: True if the frame came from the parent's reservation (§4.4).
    from_parent: bool = False


def release_reservation(
    buddy: BuddyAllocator,
    part: PageReservationTable,
    reservation: Reservation,
    site: str,
) -> int:
    """Delete ``reservation`` from ``part`` and return its unmapped frames
    to ``buddy`` (§4.3); its mapped pages stay mapped as ordinary pages.
    ``site`` labels the release for the sanitizer. Returns the number of
    frames freed."""
    unmapped = reservation.unmapped_frames()
    if buddy.sanitizer is not None:
        buddy.sanitizer.on_unreserve(unmapped, site=site)
    for frame in unmapped:
        buddy.free(frame)
    part.remove(reservation.group)
    return len(unmapped)


class PTEMagnetAllocator:
    """Reservation-based physical allocator for one guest kernel.

    Parameters
    ----------
    buddy:
        The guest kernel's buddy allocator.
    reservation_order:
        log2 of the reservation size in pages. The paper's design point is
        :data:`~repro.units.RESERVATION_ORDER` (3, i.e. 8 pages = exactly
        one cache block of leaf PTEs); other values exist for the
        reservation-granularity ablation.
    """

    def __init__(
        self,
        buddy: BuddyAllocator,
        reservation_order: int = RESERVATION_ORDER,
    ) -> None:
        if not 0 < reservation_order <= MAX_RESERVATION_ORDER:
            raise ValueError(
                f"reservation_order must be in (0, {MAX_RESERVATION_ORDER}]"
            )
        self.buddy = buddy
        self.reservation_order = reservation_order
        self.reservation_pages = 1 << reservation_order
        self.stats = AllocatorStats()

    def _group(self, vpn: int) -> int:
        return vpn >> self.reservation_order

    def fault(
        self,
        part: PageReservationTable,
        vpn: int,
        owner: int,
        parent_part: Optional[PageReservationTable] = None,
    ) -> FaultPathResult:
        """Serve a page fault at virtual page ``vpn``.

        ``part`` is the faulting process' own PaRT; ``parent_part`` (if the
        process was forked from a PTEMagnet-enabled parent) is checked
        first per the §4.4 fork rule. Raises
        :class:`~repro.errors.OutOfMemoryError` only when not even a single
        page can be allocated, and then counts nothing.
        """
        self.stats.faults += 1
        group = vpn >> self.reservation_order
        slot = vpn & (self.reservation_pages - 1)

        entry = part.lookup(group)
        used_part = part
        if entry is None and parent_part is not None:
            entry = parent_part.lookup(group)
            used_part = parent_part

        # ``slot`` comes from ``vpn``, so it is in range: test its mask bit
        # and the full mask directly rather than through the checked
        # Reservation accessors.
        if entry is not None and not entry.mask & (1 << slot):
            frame = entry.map_slot(slot)
            self.buddy.memory.set_state(frame, FrameState.USER)
            if entry.mask == (1 << entry.pages) - 1:
                # Completed reservation: every slot is mapped, so no
                # unreserved frames remain for the sanitizer to retire
                # (on_unreserve covers *unmapped* leftovers only).
                used_part.remove(group)
                self.stats.reservations_completed += 1
            self.stats.reservation_hits += 1
            from_parent = used_part is not part
            if from_parent:
                self.stats.parent_reservation_hits += 1
            if PROFILER.enabled:
                PROFILER.add(("alloc", "part", "hit"), 0)
            return FaultPathResult(
                frame=frame,
                from_reservation=True,
                created_reservation=False,
                fallback=False,
                from_parent=from_parent,
            )

        # No usable reservation: try to create one. A child never creates
        # reservations in the parent's map -- `part` is always its own.
        try:
            base = self.buddy.alloc(
                self.reservation_order, owner=owner, state=FrameState.RESERVED
            )
        except OutOfMemoryError:
            try:
                frame = self.buddy.alloc_frame(
                    owner=owner, state=FrameState.USER
                )
            except OutOfMemoryError:
                self._uncount(part, group, parent_part, None)
                raise
            self.stats.fallback_single_pages += 1
            if PROFILER.enabled:
                PROFILER.add(("alloc", "part", "fallback"), 0)
            return FaultPathResult(
                frame=frame,
                from_reservation=False,
                created_reservation=False,
                fallback=True,
            )
        self.buddy.split_allocation(base)
        reservation = Reservation(
            group=group, base_frame=base, pages=self.reservation_pages
        )
        frame = reservation.map_slot(slot)
        self.buddy.memory.set_state(frame, FrameState.USER)
        part.insert(reservation)
        san = self.buddy.sanitizer
        if san is not None:
            # All pages of the chunk (including the slot just mapped) are
            # shadow-RESERVED; the kernel's page-table map of the faulting
            # slot transitions it RESERVED -> MAPPED.
            san.on_reserve(base, self.reservation_pages, owner)
        self.stats.reservations_created += 1
        if PROFILER.enabled:
            PROFILER.add(("alloc", "part", "new"), 0)
        return FaultPathResult(
            frame=frame,
            from_reservation=False,
            created_reservation=True,
            fallback=False,
        )

    def free_page(
        self,
        part: PageReservationTable,
        vpn: int,
        frame: int,
        owner: Optional[int] = None,
    ) -> bool:
        """Handle the free of one mapped page of a PTEMagnet process.

        If the page's group still has a live PaRT entry, the slot is
        unmapped there; when the application has freed everything it had in
        the group, the reservation is deleted and all eight frames return
        to the buddy allocator (§4.3). Returns ``True`` if this call freed
        the frame (caller must not free it again), ``False`` if the page
        was outside any live reservation (caller frees it normally).
        """
        group = vpn >> self.reservation_order
        entry = part.lookup(group)
        if entry is None:
            return False
        slot = vpn & (self.reservation_pages - 1)
        if not entry.mask & (1 << slot) or entry.base_frame + slot != frame:
            # The group has a reservation, but this mapping predates it or
            # was served by fallback; treat as a normal free.
            return False
        entry.unmap_slot(slot)
        self.buddy.memory.set_state(frame, FrameState.RESERVED)
        san = self.buddy.sanitizer
        if san is not None:
            # The kernel already unmapped the page (shadow HELD); the slot
            # rejoins its reservation.
            san.on_reserve(frame, 1, owner, site="part.free_page")
        emptied = not entry.mask
        if emptied:
            release_reservation(
                self.buddy, part, entry, "part.free_page.emptied"
            )
        return True

    def cancel_fault(
        self,
        part: PageReservationTable,
        vpn: int,
        result: FaultPathResult,
        parent_part: Optional[PageReservationTable] = None,
    ) -> None:
        """Undo :meth:`fault`'s ``result`` for ``vpn``: the kernel could not
        map its frame.

        A frame from a reservation rejoins its slot, and an emptied
        reservation returns its frames to the buddy allocator, as in
        :meth:`free_page`. If the fault completed its reservation, the
        PaRT entry is gone and the frame is freed like any page of a
        completed reservation. A fallback page is freed as it came. The
        frame was never mapped, so its sanitizer shadow state is still
        what the fault left. Then every count the fault made is taken
        back, so a failed fault leaves these stats and the PaRT counters
        as it found them.
        """
        group = vpn >> self.reservation_order
        frame = result.frame
        if result.fallback:
            self.buddy.free(frame)
        else:
            table = parent_part if result.from_parent else part
            entry = table.probe(group)
            if entry is None:
                self.stats.reservations_completed -= 1
                san = self.buddy.sanitizer
                if san is not None:
                    san.on_unreserve((frame,), site="part.cancel_fault")
                self.buddy.free(frame)
            else:
                # Take back map_slot: the slot was never used.
                entry.mask &= ~(1 << (vpn & (self.reservation_pages - 1)))
                entry.lock.acquisitions -= 1
                entry.ever_mapped -= 1
                self.buddy.memory.set_state(frame, FrameState.RESERVED)
                if not entry.mask:
                    release_reservation(
                        self.buddy, table, entry, "part.cancel_fault"
                    )
        self._uncount(part, group, parent_part, result)

    def _uncount(
        self,
        part: PageReservationTable,
        group: int,
        parent_part: Optional[PageReservationTable],
        result: Optional[FaultPathResult],
    ) -> None:
        """Take back what :meth:`fault` counted for ``group`` before it
        failed. ``result`` is what it handed out, already given back, or
        ``None`` if it handed out nothing. A PaRT lookup hit if its table
        holds an entry for the group now, or if the fault's hit took it."""
        stats = self.stats
        stats.faults -= 1
        hit = result is not None and result.from_reservation
        from_parent = hit and result.from_parent
        created = result is not None and result.created_reservation
        own_hit = (hit and not from_parent) or part.probe(group) is not None
        part.uncount(group, own_hit, inserted=created)
        if parent_part is not None and not own_hit:
            parent_hit = from_parent or parent_part.probe(group) is not None
            parent_part.uncount(group, parent_hit)
        if hit:
            stats.reservation_hits -= 1
            if from_parent:
                stats.parent_reservation_hits -= 1
        elif created:
            stats.reservations_created -= 1
        elif result is not None:
            stats.fallback_single_pages -= 1
