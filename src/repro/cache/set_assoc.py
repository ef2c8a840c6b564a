"""Set-associative cache with true-LRU replacement.

Operates at cache-block granularity: callers pass *block numbers*
(byte address >> 6), not byte addresses. Each set is an insertion-ordered
dict used as an LRU list -- the first key is the least recently used way.

Two hot-path affordances keep the model cheap without changing its
behaviour: :meth:`SetAssociativeCache.access_fill` folds the lookup and
the fill-on-miss into a single set probe (the hierarchy previously
indexed the same set twice per missing level), and occupancy is tracked
incrementally so the periodic sampler's :meth:`occupancy` probe is O(1)
instead of O(num_sets).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CacheConfig
from ..units import CACHE_BLOCK_SIZE


class SetAssociativeCache:
    """One cache level.

    Parameters
    ----------
    config:
        Geometry and latency of this level.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_blocks = config.size_bytes // CACHE_BLOCK_SIZE
        if num_blocks % config.associativity:
            raise ValueError(
                f"{config.name}: blocks ({num_blocks}) not divisible by "
                f"associativity ({config.associativity})"
            )
        self.num_sets = num_blocks // config.associativity
        self._sets: List[Dict[int, None]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Resident-block count, maintained at every insert/remove so
        #: :meth:`occupancy` never walks the sets.
        self._occupancy = 0

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def latency(self) -> int:
        return self.config.latency_cycles

    def _set_for(self, block: int) -> Dict[int, None]:
        return self._sets[block % self.num_sets]

    def access(self, block: int) -> bool:
        """Look up ``block``; returns hit/miss and updates LRU on hit.

        Does *not* allocate on miss -- the hierarchy decides fill policy via
        :meth:`fill`.
        """
        ways = self._sets[block % self.num_sets]
        if block in ways:
            del ways[block]
            ways[block] = None  # move to MRU position
            self.hits += 1
            return True
        self.misses += 1
        return False

    def access_fill(self, block: int) -> bool:
        """:meth:`access` plus fill-on-miss, with a single set lookup.

        The end state and every counter match ``access(block)`` followed
        (on a miss) by ``fill(block)`` -- the inclusive hierarchy fills
        every level that missed, so folding the two traversals saves one
        set index + probe per missing level on the hot path.
        """
        ways = self._sets[block % self.num_sets]
        if block in ways:
            del ways[block]
            ways[block] = None  # move to MRU position
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.config.associativity:
            victim = next(iter(ways))
            del ways[victim]
            self.evictions += 1
        else:
            self._occupancy += 1
        ways[block] = None
        return False

    def fill(self, block: int) -> Optional[int]:
        """Insert ``block``, evicting LRU if the set is full.

        Returns the evicted block number, or ``None`` if nothing was
        evicted.
        """
        ways = self._sets[block % self.num_sets]
        victim = None
        if block in ways:
            del ways[block]
        elif len(ways) >= self.config.associativity:
            victim = next(iter(ways))
            del ways[victim]
            self.evictions += 1
        else:
            self._occupancy += 1
        ways[block] = None
        return victim

    def contains(self, block: int) -> bool:
        """Non-destructive presence probe (no LRU update, no counters)."""
        return block in self._set_for(block)

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns whether it was present."""
        ways = self._set_for(block)
        if block in ways:
            del ways[block]
            self._occupancy -= 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (counters preserved)."""
        for ways in self._sets:
            ways.clear()
        self._occupancy = 0

    def occupancy(self) -> int:
        """Number of resident blocks (O(1): incrementally maintained)."""
        return self._occupancy
