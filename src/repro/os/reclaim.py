"""Host-of-last-resort memory reclaim: a kswapd-like eviction daemon.

PTEMagnet's own reclamation (in :mod:`repro.core.reclaimer`) only releases
*unallocated* reserved pages. If pressure persists beyond that, a real
kernel starts evicting mapped pages to swap. This daemon models that
fallback: it unmaps resident pages from a victim process so the workload
re-faults them later. Used by pressure-focused tests and the adversarial
§6.2 scenario; the paper's main experiments never reach this point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.allocator import release_reservation
from .kernel import GuestKernel
from .process import Process


@dataclass
class EvictionReport:
    """Outcome of one eviction pass."""

    pages_evicted: int = 0
    victim_pid: int = -1


class SwapDaemon:
    """Evicts mapped pages when free memory stays below a floor."""

    def __init__(
        self, kernel: GuestKernel, floor: float, rng: random.Random
    ) -> None:
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be a fraction in [0, 1]")
        self.kernel = kernel
        self.floor = floor
        self.rng = rng
        self.total_evicted = 0

    def maybe_evict(self, batch_pages: int = 256) -> EvictionReport:
        """Evict up to ``batch_pages`` pages from one victim if needed."""
        report = EvictionReport()
        if self.kernel.free_fraction >= self.floor:
            return report
        victims = [
            process
            for process in self.kernel.processes.values()
            if process.rss_pages > 0
        ]
        if not victims:
            return report
        victim = self.rng.choice(victims)
        report.victim_pid = victim.pid
        report.pages_evicted = self._evict_from(victim, batch_pages)
        self.total_evicted += report.pages_evicted
        return report

    def _evict_from(self, victim: Process, batch_pages: int) -> int:
        evicted = 0
        for vpn, _pte in list(victim.page_table.iter_mappings()):
            if evicted >= batch_pages or self.kernel.free_fraction >= self.floor:
                break
            self._release_reservation_for(victim, vpn)
            self.kernel._free_page(victim, vpn)
            evicted += 1
        return evicted

    def _release_reservation_for(self, victim: Process, vpn: int) -> None:
        """§4.4 "Swap and THP": choosing a reserved page for swapping
        triggers reclamation of its whole reservation first."""
        if victim.part is None or self.kernel.ptemagnet is None:
            return
        group = self.kernel.ptemagnet._group(vpn)
        entry = victim.part.lookup(group)
        if entry is not None:
            release_reservation(
                self.kernel.buddy, victim.part, entry, "swap.evict"
            )
