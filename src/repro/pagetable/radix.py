"""Radix page tables backed by allocator-provided frames.

Every node of the tree occupies one physical frame obtained from the
owning kernel's buddy allocator, so the *physical address of each PTE* is
well defined: ``node_frame * 4096 + index * 8``. The page walker uses
those addresses to drive the cache hierarchy -- which is the entire point
of the paper: whether consecutive walks touch the same PTE cache blocks.

A node stores its slots as that frame does: a fixed 512-slot array of
encoded PTEs (0 is an empty slot) and, on interior nodes, a 512-slot list
of child nodes (``None`` is an empty slot). Its memory is bounded by the
node count, however many PTEs it holds.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import PageTableError
from ..units import (
    BITS_PER_LEVEL,
    PAGE_SHIFT,
    PT_INDEX_MASK,
    PT_LEVELS,
    PT_LEVELS_RANGE,
    PTE_SIZE,
    PTES_PER_NODE,
    pt_indices,
    pt_indices_for,
)
from .pte import HUGE, PRESENT, PteFlags, make_pte, pte_frame

#: One node's PTE slots as bytes, all empty: the image a new node's
#: ``entries`` array is built from.
_EMPTY_SLOTS = bytes(PTES_PER_NODE * PTE_SIZE)


class PageTableNode:
    """One radix-tree node: 512 slots in a single physical frame.

    ``level`` runs from :data:`~repro.units.PT_LEVELS` (root, PGD) down to 1
    (leaf, holding actual translations). ``entries`` holds encoded PTEs on
    leaf and level-2 (huge) nodes, 0 in an empty slot, and is ``None``
    above; ``children`` holds child nodes on interior nodes, ``None`` in
    an empty slot, and is ``None`` on a leaf.
    """

    __slots__ = ("frame", "level", "children", "entries", "live_slots")

    def __init__(self, frame: int, level: int) -> None:
        self.frame = frame
        self.level = level
        self.children: Optional[List[Optional["PageTableNode"]]] = (
            None if level == 1 else [None] * PTES_PER_NODE
        )
        self.entries: Optional[array] = (
            array("Q", _EMPTY_SLOTS) if level <= 2 else None
        )
        #: Populated slots, child and PTE alike. A level-2 node can hold
        #: huge entries beside its child nodes; both keep it alive.
        self.live_slots = 0

    @property
    def is_leaf(self) -> bool:
        return self.level == 1


class PageTable:
    """A per-process radix page table (4-level by default, la57-capable).

    Parameters
    ----------
    frame_allocator:
        Zero-argument callable returning a fresh physical frame for a page-
        table node (typically the owning kernel's buddy allocator wrapped to
        tag frames as :class:`~repro.mem.physical.FrameState.PAGE_TABLE`).
    frame_releaser:
        Callable accepting a frame number, invoked when a node is freed.
    levels:
        Radix depth; 4 on today's x86-64, 5 for the la57 extension the
        paper mentions Linux migrating toward (§2.5).
    """

    def __init__(
        self,
        frame_allocator: Callable[[], int],
        frame_releaser: Optional[Callable[[int], None]] = None,
        levels: int = PT_LEVELS,
    ) -> None:
        if levels not in PT_LEVELS_RANGE:
            raise PageTableError(f"unsupported page-table depth {levels}")
        self.levels = levels
        self._alloc_frame = frame_allocator
        self._release_frame = frame_releaser or (lambda frame: None)
        self.root = PageTableNode(self._alloc_frame(), levels)
        self.mapped_pages = 0
        self.node_count = 1
        #: Optional :class:`repro.sanitizer.FrameSanitizer` plus the owning
        #: pid, attached by the kernel in debug mode so every PTE install /
        #: removal advances the frame's shadow lifecycle. Host page tables
        #: keep these ``None``.
        self.sanitizer = None
        self.owner_pid: Optional[int] = None

    def _indices(self, vpn: int):
        if self.levels == PT_LEVELS:
            return pt_indices(vpn)
        return pt_indices_for(vpn, self.levels)

    #: Pages covered by one level-2 (2MB) huge mapping.
    HUGE_PAGES = PTES_PER_NODE

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map(self, vpn: int, pfn: int, flags: PteFlags = PteFlags.PRESENT) -> None:
        """Install a translation ``vpn -> pfn``; creates interior nodes.

        Raises :class:`PageTableError` if ``vpn`` is already mapped (a real
        kernel would BUG on double-mapping without an unmap in between).
        """
        node = self.root
        level = self.levels
        while level > 1:
            index = (vpn >> ((level - 1) * BITS_PER_LEVEL)) & PT_INDEX_MASK
            child = node.children[index]
            if child is None:
                child = PageTableNode(self._alloc_frame(), level - 1)
                node.children[index] = child
                node.live_slots += 1
                self.node_count += 1
            node = child
            level -= 1
        entries = node.entries
        slot = vpn & PT_INDEX_MASK
        if entries[slot] & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} already mapped")
        if pfn < 0:
            raise ValueError("frame must be non-negative")
        entries[slot] = (pfn << PAGE_SHIFT) | int(flags) | PRESENT
        node.live_slots += 1
        self.mapped_pages += 1
        san = self.sanitizer
        if san is not None:
            san.on_map(self.owner_pid, vpn, pfn)

    def map_huge(self, vpn: int, pfn: int) -> None:
        """Install a 2MB huge mapping at level 2 (THP baseline support).

        ``vpn`` and ``pfn`` must be aligned to :attr:`HUGE_PAGES` (512).
        The entry lives in the level-2 node with the HUGE bit set, exactly
        as x86's PS bit works; no level-1 node is created.
        """
        if vpn % self.HUGE_PAGES or pfn % self.HUGE_PAGES:
            raise PageTableError("huge mappings must be 512-page aligned")
        indices = self._indices(vpn)
        node = self.root
        for index in indices[:-2]:
            child = node.children[index]
            if child is None:
                child = PageTableNode(self._alloc_frame(), node.level - 1)
                node.children[index] = child
                node.live_slots += 1
                self.node_count += 1
            node = child
        huge_index = indices[-2]
        if (
            node.children[huge_index] is not None
            or node.entries[huge_index] & PRESENT
        ):
            raise PageTableError(f"vpn {vpn:#x} already mapped at level 2")
        node.entries[huge_index] = make_pte(pfn, PRESENT | HUGE)
        node.live_slots += 1
        self.mapped_pages += self.HUGE_PAGES
        san = self.sanitizer
        if san is not None:
            for offset in range(self.HUGE_PAGES):
                san.on_map(self.owner_pid, vpn + offset, pfn + offset)

    def unmap_huge(self, vpn: int) -> int:
        """Remove the huge mapping covering ``vpn``; returns its base frame."""
        indices = self._indices(vpn)
        path: List[Tuple[PageTableNode, int]] = []
        node = self.root
        for index in indices[:-2]:
            child = node.children[index]
            if child is None:
                raise PageTableError(f"vpn {vpn:#x} has no huge mapping")
            path.append((node, index))
            node = child
        huge_index = indices[-2]
        pte = node.entries[huge_index]
        if not pte & PRESENT or not pte & HUGE:
            raise PageTableError(f"vpn {vpn:#x} has no huge mapping")
        node.entries[huge_index] = 0
        node.live_slots -= 1
        self.mapped_pages -= self.HUGE_PAGES
        san = self.sanitizer
        if san is not None:
            base_frame = pte_frame(pte)
            for offset in range(self.HUGE_PAGES):
                san.on_unmap(self.owner_pid, vpn + offset, base_frame + offset)
        self._prune(path)
        return pte_frame(pte)

    def unmap(self, vpn: int) -> int:
        """Remove the translation for ``vpn``; returns the old frame.

        Empty leaf/interior nodes are freed and their frames released,
        mirroring Linux's page-table reclaim on ``munmap``.
        """
        indices = self._indices(vpn)
        path: List[Tuple[PageTableNode, int]] = []
        node = self.root
        for index in indices[:-1]:
            child = node.children[index]
            if child is None:
                raise PageTableError(f"vpn {vpn:#x} not mapped")
            path.append((node, index))
            node = child
        leaf_index = indices[-1]
        pte = node.entries[leaf_index]
        if not pte & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} not mapped")
        node.entries[leaf_index] = 0
        node.live_slots -= 1
        self.mapped_pages -= 1
        san = self.sanitizer
        if san is not None:
            san.on_unmap(self.owner_pid, vpn, pte_frame(pte))
        self._prune(path)
        return pte_frame(pte)

    def unmap_range(
        self, start_vpn: int, end_vpn: int
    ) -> Iterator[Tuple[int, int]]:
        """Remove every present translation in ``[start_vpn, end_vpn)``.

        Linux's ``zap_pte_range``: one descent per leaf node, then only
        that leaf's slots in the range; an absent subtree is skipped
        whole. Yields ``(vpn, pte)`` in vpn order, each right after its
        entry is removed and any node it emptied is released bottom-up --
        the state :meth:`unmap` leaves -- so a caller that frees each page
        before resuming frees frames in :meth:`unmap`'s per-page order.

        A huge mapping met in the range is yielded still mapped, as the
        synthesized PTE :meth:`lookup` returns (HUGE set). The caller must
        split it into 4KB mappings before resuming; the walk then goes on
        from that page.
        """
        vpn = start_vpn
        split_vpn = None
        while vpn < end_vpn:
            path: List[Tuple[PageTableNode, int]] = []
            node = self.root
            level = self.levels
            while level > 1:
                shift = (level - 1) * BITS_PER_LEVEL
                index = (vpn >> shift) & PT_INDEX_MASK
                if level == 2:
                    huge = node.entries[index]
                    if huge & PRESENT:
                        if vpn == split_vpn:
                            raise PageTableError(
                                f"huge mapping at vpn {vpn:#x} was not split"
                            )
                        split_vpn = vpn
                        yield vpn, make_pte(
                            pte_frame(huge) + (vpn & PT_INDEX_MASK),
                            PRESENT | HUGE,
                        )
                        break
                child = node.children[index]
                if child is None:
                    vpn = ((vpn >> shift) + 1) << shift
                    break
                path.append((node, index))
                node = child
                level -= 1
            else:
                stop = min(end_vpn, (vpn | PT_INDEX_MASK) + 1)
                entries = node.entries
                san = self.sanitizer
                for page in range(vpn, stop):
                    slot = page & PT_INDEX_MASK
                    pte = entries[slot]
                    if not pte & PRESENT:
                        continue
                    entries[slot] = 0
                    node.live_slots -= 1
                    self.mapped_pages -= 1
                    if san is not None:
                        san.on_unmap(self.owner_pid, page, pte_frame(pte))
                    if not node.live_slots:
                        self._prune(path)
                    yield page, pte
                    if not node.live_slots:
                        break
                vpn = stop

    def _prune(self, path: List[Tuple[PageTableNode, int]]) -> None:
        """Free the nodes along ``path`` that are now empty, bottom-up."""
        for parent, index in reversed(path):
            child = parent.children[index]
            if child.live_slots:
                break
            parent.children[index] = None
            parent.live_slots -= 1
            self._release_frame(child.frame)
            self.node_count -= 1

    def update(self, vpn: int, pfn: int, flags: PteFlags) -> None:
        """Replace the translation for an already-mapped ``vpn``."""
        node, leaf_index = self._leaf_for(vpn)
        if node is None or not node.entries[leaf_index] & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} not mapped")
        old_pte = node.entries[leaf_index]
        node.entries[leaf_index] = make_pte(pfn, int(flags) | PRESENT)
        san = self.sanitizer
        if san is not None:
            old_frame = pte_frame(old_pte)
            if old_frame != pfn:  # e.g. COW break: drop old ref, take new
                san.on_unmap(self.owner_pid, vpn, old_frame)
                san.on_map(self.owner_pid, vpn, pfn)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the PTE integer for ``vpn`` or ``None`` if unmapped.

        For a page inside a huge mapping, returns a synthesized 4KB-style
        PTE pointing at the page's frame within the huge frame range, with
        the HUGE bit still set so callers can recognise it. One descent:
        the level-2 huge entry is checked on the way down, as a hardware
        walk does.
        """
        node = self.root
        level = self.levels
        while level > 1:
            index = (vpn >> ((level - 1) * BITS_PER_LEVEL)) & PT_INDEX_MASK
            if level == 2:
                huge = node.entries[index]
                if huge & PRESENT:
                    return make_pte(
                        pte_frame(huge) + (vpn & PT_INDEX_MASK), PRESENT | HUGE
                    )
            node = node.children[index]
            if node is None:
                return None
            level -= 1
        pte = node.entries[vpn & PT_INDEX_MASK]
        if not pte & PRESENT:
            return None
        return pte

    def translate(self, vpn: int) -> Optional[int]:
        """Return the physical frame for ``vpn`` or ``None`` if unmapped."""
        pte = self.lookup(vpn)
        return None if pte is None else pte_frame(pte)

    def is_mapped(self, vpn: int) -> bool:
        """True if ``vpn`` has a present translation."""
        return self.lookup(vpn) is not None

    def walk_path(self, vpn: int) -> List[Tuple[int, int, int]]:
        """Return the node path a hardware walk of ``vpn`` would take.

        Each element is ``(level, node_frame, slot_index)`` from the root
        down to the deepest node that exists. A complete path has
        :data:`~repro.units.PT_LEVELS` elements; a shorter path means the
        walk faults at the last returned level.
        """
        return self.walk_path_and_pte(vpn)[0]

    def walk_path_and_pte(
        self, vpn: int
    ) -> Tuple[List[Tuple[int, int, int]], Optional[int]]:
        """Walk path plus the leaf PTE in one traversal.

        Returns ``(path, pte)`` where ``pte`` is the present leaf entry or
        ``None`` (hole at some level). Single-traversal variant used by the
        hardware walkers, which need both the accessed slots and the
        translation.
        """
        indices = self._indices(vpn)
        node = self.root
        path = [(node.level, node.frame, indices[0])]
        for depth in range(self.levels - 1):
            if node.level == 2:
                huge = node.entries[indices[depth]]
                if huge & PRESENT:
                    # Level-2 huge entry: the walk terminates here; the
                    # translated frame is the page's slot within the 2MB
                    # frame range.
                    offset = vpn % self.HUGE_PAGES
                    return path, make_pte(
                        pte_frame(huge) + offset, PRESENT | HUGE
                    )
            child = node.children[indices[depth]]
            if child is None:
                return path, None
            node = child
            path.append((node.level, node.frame, indices[depth + 1]))
        pte = node.entries[indices[-1]]
        if not pte & PRESENT:
            return path, None
        return path, pte

    def _leaf_for(self, vpn: int) -> Tuple[Optional[PageTableNode], int]:
        indices = self._indices(vpn)
        node = self.root
        for index in indices[:-1]:
            child = node.children[index]
            if child is None:
                return None, indices[-1]
            node = child
        return node, indices[-1]

    # ------------------------------------------------------------------ #
    # Iteration / teardown
    # ------------------------------------------------------------------ #

    def iter_mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield every present ``(vpn, pte)`` pair, in vpn order per node."""
        yield from self._iter_node(self.root, 0)

    def _iter_node(
        self, node: PageTableNode, vpn_prefix: int
    ) -> Iterator[Tuple[int, int]]:
        if node.is_leaf:
            for index, pte in enumerate(node.entries):
                if pte & PRESENT:
                    yield (vpn_prefix << BITS_PER_LEVEL) | index, pte
            return
        if node.level == 2:
            # Expand huge entries to per-4KB pairs so metrics and teardown
            # code see a uniform view.
            for index, pte in enumerate(node.entries):
                if not pte & PRESENT:
                    continue
                base_vpn = ((vpn_prefix << BITS_PER_LEVEL) | index) << BITS_PER_LEVEL
                base_frame = pte_frame(pte)
                for offset in range(self.HUGE_PAGES):
                    yield base_vpn + offset, make_pte(
                        base_frame + offset, PRESENT | HUGE
                    )
        for index, child in enumerate(node.children):
            if child is not None:
                yield from self._iter_node(
                    child, (vpn_prefix << BITS_PER_LEVEL) | index
                )

    def _nodes(self) -> Iterator[Tuple[PageTableNode, int]]:
        """Yield every node with its vpn prefix, parents before children
        and siblings in slot (address) order."""
        stack = [(self.root, 0)]
        while stack:
            node, prefix = stack.pop()
            yield node, prefix
            children = node.children
            if children is not None:
                for index in range(PT_INDEX_MASK, -1, -1):
                    child = children[index]
                    if child is not None:
                        stack.append(
                            (child, (prefix << BITS_PER_LEVEL) | index)
                        )

    def destroy(self) -> None:
        """Release every node frame (process teardown): each node after
        its children, siblings in slot order, as Linux's
        ``free_pgd_range`` does."""
        self._destroy_node(self.root)
        self.root = PageTableNode(self._alloc_frame(), self.levels)
        self.mapped_pages = 0
        self.node_count = 1

    def _destroy_node(self, node: PageTableNode) -> None:
        if node.children is not None:
            for child in node.children:
                if child is not None:
                    self._destroy_node(child)
        self._release_frame(node.frame)

    def huge_mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield every live huge mapping as ``(base_vpn, base_frame)``, in
        address order."""
        for node, prefix in self._nodes():
            if node.level == 2:
                for index, pte in enumerate(node.entries):
                    if pte & PRESENT:
                        base_vpn = (
                            (prefix << BITS_PER_LEVEL) | index
                        ) << BITS_PER_LEVEL
                        yield base_vpn, pte_frame(pte)

    def leaf_nodes(self) -> Iterator[PageTableNode]:
        """Yield every leaf (level-1) node currently in the tree, in
        address order."""
        for node, _prefix in self._nodes():
            if node.is_leaf:
                yield node
