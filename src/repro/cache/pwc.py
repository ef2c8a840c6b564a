"""Page-walk caches (Intel-style paging-structure caches).

One small LRU cache per page-table level records the virtual-address
prefixes of recently used nodes. On a walk, the deepest hit lets the walker
start directly at that node, skipping every level above it (§2.5); a hit
decides only that level, so an entry holds no node frame. Because PWCs
absorb most upper-level accesses, the *leaf* level dominates PT cache
traffic -- the premise of the paper's leaf-PTE locality argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..units import BITS_PER_LEVEL, PT_LEVELS


class PageWalkCache:
    """Per-level node caches with LRU replacement.

    Parameters
    ----------
    entries_per_level:
        Capacity of each level's cache; ``0`` disables the PWC entirely
        (every walk then issues all four accesses -- used by the ablation
        benchmark).
    """

    def __init__(self, entries_per_level: int = 32) -> None:
        if entries_per_level < 0:
            raise ValueError("entries_per_level must be non-negative")
        self.entries_per_level = entries_per_level
        # _levels[level] holds vpn prefixes in LRU order (oldest first),
        # where the prefix of the level-L node covering a vpn is
        # ``vpn >> (9 * L)`` (a leaf node covers 512 pages). Levels 1-6,
        # leaf first, so the same PWC serves 4- and 5-level walks.
        self._levels: Dict[int, Dict[int, None]] = {
            level: {} for level in range(1, 7)
        }
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> Optional[int]:
        """Level of the deepest cached node covering ``vpn``.

        Returns the lowest level with a hit, or ``None`` on a complete
        miss. Updates LRU order of the hit entry.
        """
        if self.entries_per_level == 0:
            return None
        for level, entries in self._levels.items():
            prefix = vpn >> (BITS_PER_LEVEL * level)
            if prefix in entries:
                del entries[prefix]
                entries[prefix] = None  # refresh LRU position
                self.hits += 1
                return level
        self.misses += 1
        return None

    def fill(self, vpn: int, level: int) -> None:
        """Record that the walk of ``vpn`` used its level-``level`` node."""
        if self.entries_per_level == 0:
            return
        entries = self._levels[level]
        prefix = vpn >> (BITS_PER_LEVEL * level)
        if prefix in entries:
            del entries[prefix]
        elif len(entries) >= self.entries_per_level:
            del entries[next(iter(entries))]
        entries[prefix] = None

    def invalidate_vpn(self, vpn: int) -> None:
        """Drop every cached node covering ``vpn`` (after unmap/update)."""
        for level, entries in self._levels.items():
            entries.pop(vpn >> (BITS_PER_LEVEL * level), None)

    def flush(self) -> None:
        """Drop all entries (full TLB-shootdown equivalent)."""
        for entries in self._levels.values():
            entries.clear()

    def occupancy(self) -> List[int]:
        """Number of live entries per level (leaf first, 4 levels shown)."""
        return [len(self._levels[level]) for level in range(1, PT_LEVELS + 1)]
