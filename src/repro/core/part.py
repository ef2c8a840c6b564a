"""The Page Reservation Table (PaRT).

Per §4.2: a per-process 4-level radix tree indexed by the faulting virtual
address (here: by the reservation-group index, ``vpn >> 3``). A leaf slot
holds one :class:`~repro.core.reservation.Reservation`. Every node carries
its own lock; the paper uses fine-grained per-node locking so concurrent
faults from many threads of one process rarely contend. The simulator is
single-threaded but counts lock acquisitions per node so the locking
behaviour can be inspected and tested.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReservationError
from ..units import BITS_PER_LEVEL
from .reservation import LockStats, Reservation


#: Number of radix levels in the PaRT.
PART_LEVELS = 4
#: Slot fan-out per node.
PART_FANOUT = 1 << BITS_PER_LEVEL
#: Mask selecting one level's slot index from a shifted group index.
_SLOT_MASK = PART_FANOUT - 1
#: Shift bringing the root level's slot index to the low bits. Lookups
#: shift and mask per level, as ``PageTable.lookup`` does: no index tuple.
_ROOT_SHIFT = (PART_LEVELS - 1) * BITS_PER_LEVEL


class PartNode:
    """One PaRT radix node: children (interior) or reservations (leaf)."""

    __slots__ = ("level", "lock", "children", "entries")

    def __init__(self, level: int) -> None:
        self.level = level
        self.lock = LockStats()
        self.children: Dict[int, "PartNode"] = {}
        self.entries: Dict[int, Reservation] = {}

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    @property
    def live_slots(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


def _indices(group: int) -> Tuple[int, ...]:
    """Split a group index into PaRT node indices, root level first.

    The radix path the invariant checks hold each stored reservation to.
    """
    return tuple(
        (group >> shift) & _SLOT_MASK
        for shift in range(_ROOT_SHIFT, -1, -BITS_PER_LEVEL)
    )


class PageReservationTable:
    """Per-process radix tree of live reservations."""

    def __init__(self) -> None:
        self.root = PartNode(PART_LEVELS)
        self.entry_count = 0
        self.node_count = 1
        #: Total lookups (the fast-path PaRT query on every fault, §4.2).
        self.lookups = 0
        self.lookup_hits = 0

    # ------------------------------------------------------------------ #
    # Lookup / insert / remove
    # ------------------------------------------------------------------ #

    def lookup(self, group: int) -> Optional[Reservation]:
        """Return the live reservation for ``group``, if any.

        Models the PaRT query performed on every page fault: walks the
        radix path, taking each node's lock.
        """
        self.lookups += 1
        node = self.root
        node.lock.acquisitions += 1
        shift = _ROOT_SHIFT
        while shift:
            node = node.children.get((group >> shift) & _SLOT_MASK)
            if node is None:
                return None
            node.lock.acquisitions += 1
            shift -= BITS_PER_LEVEL
        entry = node.entries.get(group & _SLOT_MASK)
        if entry is not None:
            self.lookup_hits += 1
        return entry

    def probe(self, group: int) -> Optional[Reservation]:
        """Return the live reservation for ``group``, if any, counting
        nothing: for checks and undo paths, which must not perturb the
        lookup and lock counts the experiments report."""
        node = self.root
        shift = _ROOT_SHIFT
        while shift:
            node = node.children.get((group >> shift) & _SLOT_MASK)
            if node is None:
                return None
            shift -= BITS_PER_LEVEL
        return node.entries.get(group & _SLOT_MASK)

    def uncount(self, group: int, hit: bool, inserted: bool = False) -> None:
        """Take back one lookup of ``group``, a hit if ``hit``, and the
        insert after it if ``inserted``: the counts of a fault that failed.

        Each took one lock on every node of the group's radix path that
        was there. A node the failed fault created has gone again, and
        its counts with it, so this walks the path as it stands now.
        """
        self.lookups -= 1
        if hit:
            self.lookup_hits -= 1
        passes = 2 if inserted else 1
        node = self.root
        node.lock.acquisitions -= passes
        shift = _ROOT_SHIFT
        while shift:
            node = node.children.get((group >> shift) & _SLOT_MASK)
            if node is None:
                return
            node.lock.acquisitions -= passes
            shift -= BITS_PER_LEVEL

    def insert(self, reservation: Reservation) -> None:
        """Install a new reservation; interior nodes are created on demand."""
        group = reservation.group
        node = self.root
        node.lock.acquisitions += 1
        shift = _ROOT_SHIFT
        while shift:
            index = (group >> shift) & _SLOT_MASK
            child = node.children.get(index)
            if child is None:
                child = PartNode(node.level - 1)
                node.children[index] = child
                self.node_count += 1
            node = child
            node.lock.acquisitions += 1
            shift -= BITS_PER_LEVEL
        leaf_index = group & _SLOT_MASK
        if leaf_index in node.entries:
            raise ReservationError(
                f"group {reservation.group} already has a reservation"
            )
        node.entries[leaf_index] = reservation
        self.entry_count += 1

    def remove(self, group: int) -> Reservation:
        """Delete the reservation for ``group``; prunes empty nodes."""
        path: List[Tuple[PartNode, int]] = []
        node = self.root
        shift = _ROOT_SHIFT
        while shift:
            index = (group >> shift) & _SLOT_MASK
            child = node.children.get(index)
            if child is None:
                raise ReservationError(f"group {group} has no reservation")
            path.append((node, index))
            node = child
            shift -= BITS_PER_LEVEL
        entry = node.entries.pop(group & _SLOT_MASK, None)
        if entry is None:
            raise ReservationError(f"group {group} has no reservation")
        self.entry_count -= 1
        for parent, index in reversed(path):
            child = parent.children[index]
            if child.live_slots:
                break
            del parent.children[index]
            self.node_count -= 1
        return entry

    # ------------------------------------------------------------------ #
    # Whole-table queries (reclamation daemon, §6.2 accounting)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.entry_count

    def iter_reservations(self) -> Iterator[Reservation]:
        """Yield every live reservation (what the reclaim daemon walks)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries.values()
            else:
                stack.extend(node.children.values())

    def unmapped_reserved_pages(self) -> int:
        """Total reserved-but-unmapped pages across all live reservations.

        This is the §6.2 metric sampled over time: the paper finds it never
        exceeds 0.2% of the benchmark's footprint.
        """
        return sum(r.unmapped_count for r in self.iter_reservations())

    def total_lock_acquisitions(self) -> int:
        """Sum of lock acquisitions over all nodes and entries."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += node.lock.acquisitions
            if node.is_leaf:
                total += sum(r.lock.acquisitions for r in node.entries.values())
            else:
                stack.extend(node.children.values())
        return total
