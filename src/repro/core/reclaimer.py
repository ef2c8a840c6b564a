"""Reservation reclamation daemon (§4.3).

When guest free memory drops below a configurable threshold (analogous to
the ``swappiness`` knob), a daemon walks the PaRT of a randomly selected
process and returns the *unallocated* pages of its reservations to the
buddy allocator, deleting the walked reservations. It keeps releasing
until free memory is back above the threshold.

Reclamation never touches mapped pages, never changes page-table content,
and never flushes TLBs -- the paper contrasts this with THP demotion.
Pages previously mapped through a reclaimed reservation keep their
contiguity and keep benefiting from fast walks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from ..mem.buddy import BuddyAllocator
from ..obs.profile import PROFILER
from .allocator import release_reservation
from .part import PageReservationTable


@dataclass
class ReclaimReport:
    """What one reclamation pass did."""

    invoked: bool = False
    processes_walked: List[int] = field(default_factory=list)
    reservations_released: int = 0
    pages_released: int = 0


class ReservationReclaimer:
    """Releases unallocated reserved pages under memory pressure.

    Parameters
    ----------
    buddy:
        The guest buddy allocator (pages are returned to its free lists).
    threshold:
        Free-memory fraction below which reclamation triggers.
    rng:
        Random source for victim selection; injectable for determinism.
    """

    def __init__(
        self,
        buddy: BuddyAllocator,
        threshold: float,
        rng: random.Random,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be a fraction in [0, 1]")
        self.buddy = buddy
        self.threshold = threshold
        self.rng = rng
        self.total_pages_released = 0
        self.invocations = 0

    @property
    def under_pressure(self) -> bool:
        """True if free memory is currently below the threshold."""
        return self.buddy.free_fraction < self.threshold

    def maybe_reclaim(
        self, parts_by_pid: Dict[int, PageReservationTable]
    ) -> ReclaimReport:
        """Run one reclamation pass if memory pressure demands it.

        ``parts_by_pid`` maps pid -> PaRT for every live PTEMagnet-enabled
        process. Victims are drawn randomly without replacement until
        pressure subsides or no reservations remain.
        """
        report = ReclaimReport()
        if not self.under_pressure or not parts_by_pid:
            return report
        report.invoked = True
        self.invocations += 1
        candidates = list(parts_by_pid)
        self.rng.shuffle(candidates)
        for pid in candidates:
            if not self.under_pressure:
                break
            released = self._reclaim_process(parts_by_pid[pid], report)
            if released:
                report.processes_walked.append(pid)
        if PROFILER.enabled:
            PROFILER.add(("reclaim", "pass"), 0)
            if report.pages_released:
                PROFILER.add(
                    ("reclaim", "pages"), 0, count=report.pages_released
                )
        return report

    def _reclaim_process(
        self, part: PageReservationTable, report: ReclaimReport
    ) -> int:
        """Release every unallocated reserved page of one process' PaRT."""
        released = 0
        for reservation in list(part.iter_reservations()):
            # New faults in the released group take the default path (or
            # a fresh reservation elsewhere).
            released += release_reservation(
                self.buddy, part, reservation, "reclaim.steal"
            )
            report.reservations_released += 1
            if not self.under_pressure:
                break
        report.pages_released += released
        self.total_pages_released += released
        return released
