"""Set-associative TLBs and the two-level TLB hierarchy.

TLB entries map a virtual page number directly to the final physical frame
(for a virtualized process: guest VPN -> *host* frame, since hardware TLBs
cache the complete nested translation). A TLB hit therefore bypasses the
entire 2D page walk; only misses reach the walker, as in §2.5.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import TlbConfig


class Tlb:
    """One set-associative TLB level with true-LRU replacement."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.num_sets = config.entries // config.associativity
        self._sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        return self.config.name

    def _set_for(self, vpn: int) -> Dict[int, int]:
        return self._sets[vpn % self.num_sets]

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached frame for ``vpn`` or ``None`` on miss."""
        entries = self._sets[vpn % self.num_sets]
        frame = entries.get(vpn)
        if frame is None:
            self.misses += 1
            return None
        del entries[vpn]
        entries[vpn] = frame  # refresh LRU position
        self.hits += 1
        return frame

    def insert(self, vpn: int, frame: int) -> Optional[int]:
        """Install ``vpn -> frame``; returns the evicted VPN if any.

        Only the victim's VPN is reported (not a ``(vpn, frame)`` pair):
        this method sits on the TLB hit path (L2-to-L1 promotion), which
        must not allocate.
        """
        entries = self._sets[vpn % self.num_sets]
        victim = None
        if vpn in entries:
            del entries[vpn]
        elif len(entries) >= self.config.associativity:
            victim = next(iter(entries))
            del entries[victim]
        entries[vpn] = frame
        return victim

    def invalidate(self, vpn: int) -> bool:
        """Drop the entry for ``vpn`` if present."""
        return self._sets[vpn % self.num_sets].pop(vpn, None) is not None

    def flush(self) -> None:
        """Drop all entries (context switch / full shootdown)."""
        for entries in self._sets:
            entries.clear()

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class TlbHierarchy:
    """L1 D-TLB backed by a unified L2 S-TLB.

    ``lookup`` probes L1 then L2 (promoting L2 hits into L1); ``insert``
    installs into both, matching the usual inclusive-ish x86 arrangement.

    Parameters
    ----------
    dtlb / stlb:
        Geometry of the two levels.
    """

    def __init__(self, dtlb: TlbConfig, stlb: TlbConfig) -> None:
        self.l1 = Tlb(dtlb)
        self.l2 = Tlb(stlb)

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the frame for ``vpn`` or ``None`` if both levels miss."""
        frame = self.l1.lookup(vpn)
        if frame is not None:
            return frame
        frame = self.l2.lookup(vpn)
        if frame is not None:
            self.l1.insert(vpn, frame)
        return frame

    def insert(self, vpn: int, frame: int) -> None:
        """Install a completed translation into both levels."""
        self.l1.insert(vpn, frame)
        self.l2.insert(vpn, frame)

    def invalidate(self, vpn: int) -> None:
        """Shoot down one page's translation from both levels."""
        self.l1.invalidate(vpn)
        self.l2.invalidate(vpn)

    def flush(self) -> None:
        """Drop everything from both levels."""
        self.l1.flush()
        self.l2.flush()

    @property
    def misses(self) -> int:
        """Complete TLB misses (missed in both levels)."""
        return self.l2.misses

    @property
    def lookups(self) -> int:
        """Total translation lookups issued."""
        return self.l1.hits + self.l1.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed both levels."""
        lookups = self.lookups
        return self.misses / lookups if lookups else 0.0
