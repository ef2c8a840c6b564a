"""Page-table slot arrays against the dict-backed tables they replaced.

:class:`PageTable` keeps each node's slots as the frame it models holds
them: 512 encoded PTEs (0 is empty) and, on interior nodes, 512 child
slots (``None`` is empty). :class:`RefPageTable` below is the former
table, one dict entry per populated slot. Hypothesis drives both with
random operation sequences over vpns spanning several leaves and level-2
slots, and every query, every node frame taken and released, every
sanitizer hook and every error must agree.
"""

import itertools
import tracemalloc
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageTableError
from repro.invariants import check_page_table
from repro.pagetable.pte import HUGE, PRESENT, PteFlags, make_pte, pte_frame
from repro.pagetable.radix import PageTable
from repro.units import (
    BITS_PER_LEVEL,
    PAGE_SHIFT,
    PT_INDEX_MASK,
    PTES_PER_NODE,
    pt_indices,
)


class RefNode:
    """Reference node: populated slots only, in insertion order."""

    __slots__ = ("frame", "level", "children", "entries")

    def __init__(self, frame: int, level: int) -> None:
        self.frame = frame
        self.level = level
        self.children: Dict[int, "RefNode"] = {}
        self.entries: Dict[int, int] = {}

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    @property
    def live_slots(self) -> int:
        return len(self.entries) + len(self.children)


class RefPageTable:
    """The dict-backed 4-level :class:`PageTable`, as it was."""

    HUGE_PAGES = PTES_PER_NODE

    def __init__(self, frame_allocator, frame_releaser) -> None:
        self.levels = 4
        self._alloc_frame = frame_allocator
        self._release_frame = frame_releaser
        self.root = RefNode(self._alloc_frame(), self.levels)
        self.mapped_pages = 0
        self.node_count = 1
        self.sanitizer = None
        self.owner_pid: Optional[int] = None

    def map(self, vpn: int, pfn: int, flags: PteFlags = PteFlags.PRESENT) -> None:
        node = self.root
        level = self.levels
        while level > 1:
            index = (vpn >> ((level - 1) * BITS_PER_LEVEL)) & PT_INDEX_MASK
            child = node.children.get(index)
            if child is None:
                child = RefNode(self._alloc_frame(), level - 1)
                node.children[index] = child
                self.node_count += 1
            node = child
            level -= 1
        entries = node.entries
        slot = vpn & PT_INDEX_MASK
        pte = entries.get(slot)
        if pte is not None and pte & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} already mapped")
        if pfn < 0:
            raise ValueError("frame must be non-negative")
        entries[slot] = (pfn << PAGE_SHIFT) | int(flags) | PRESENT
        self.mapped_pages += 1
        if self.sanitizer is not None:
            self.sanitizer.on_map(self.owner_pid, vpn, pfn)

    def map_huge(self, vpn: int, pfn: int) -> None:
        if vpn % self.HUGE_PAGES or pfn % self.HUGE_PAGES:
            raise PageTableError("huge mappings must be 512-page aligned")
        indices = pt_indices(vpn)
        node = self.root
        for index in indices[:-2]:
            child = node.children.get(index)
            if child is None:
                child = RefNode(self._alloc_frame(), node.level - 1)
                node.children[index] = child
                self.node_count += 1
            node = child
        huge_index = indices[-2]
        if huge_index in node.children or node.entries.get(huge_index, 0) & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} already mapped at level 2")
        node.entries[huge_index] = make_pte(pfn, PRESENT | HUGE)
        self.mapped_pages += self.HUGE_PAGES
        if self.sanitizer is not None:
            for offset in range(self.HUGE_PAGES):
                self.sanitizer.on_map(self.owner_pid, vpn + offset, pfn + offset)

    def unmap_huge(self, vpn: int) -> int:
        indices = pt_indices(vpn)
        path: List[Tuple[RefNode, int]] = []
        node = self.root
        for index in indices[:-2]:
            child = node.children.get(index)
            if child is None:
                raise PageTableError(f"vpn {vpn:#x} has no huge mapping")
            path.append((node, index))
            node = child
        pte = node.entries.pop(indices[-2], 0)
        if not pte & PRESENT or not pte & HUGE:
            raise PageTableError(f"vpn {vpn:#x} has no huge mapping")
        self.mapped_pages -= self.HUGE_PAGES
        if self.sanitizer is not None:
            for offset in range(self.HUGE_PAGES):
                self.sanitizer.on_unmap(
                    self.owner_pid, vpn + offset, pte_frame(pte) + offset
                )
        self._prune(path)
        return pte_frame(pte)

    def unmap(self, vpn: int) -> int:
        indices = pt_indices(vpn)
        path: List[Tuple[RefNode, int]] = []
        node = self.root
        for index in indices[:-1]:
            child = node.children.get(index)
            if child is None:
                raise PageTableError(f"vpn {vpn:#x} not mapped")
            path.append((node, index))
            node = child
        pte = node.entries.pop(indices[-1], 0)
        if not pte & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} not mapped")
        self.mapped_pages -= 1
        if self.sanitizer is not None:
            self.sanitizer.on_unmap(self.owner_pid, vpn, pte_frame(pte))
        self._prune(path)
        return pte_frame(pte)

    def unmap_range(self, start_vpn: int, end_vpn: int) -> Iterator[Tuple[int, int]]:
        vpn = start_vpn
        split_vpn = None
        while vpn < end_vpn:
            path: List[Tuple[RefNode, int]] = []
            node = self.root
            level = self.levels
            while level > 1:
                shift = (level - 1) * BITS_PER_LEVEL
                index = (vpn >> shift) & PT_INDEX_MASK
                if level == 2:
                    huge = node.entries.get(index)
                    if huge is not None and huge & PRESENT:
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
                child = node.children.get(index)
                if child is None:
                    vpn = ((vpn >> shift) + 1) << shift
                    break
                path.append((node, index))
                node = child
                level -= 1
            else:
                stop = min(end_vpn, (vpn | PT_INDEX_MASK) + 1)
                entries = node.entries
                for page in range(vpn, stop):
                    slot = page & PT_INDEX_MASK
                    pte = entries.get(slot)
                    if pte is None or not pte & PRESENT:
                        continue
                    del entries[slot]
                    self.mapped_pages -= 1
                    if self.sanitizer is not None:
                        self.sanitizer.on_unmap(self.owner_pid, page, pte_frame(pte))
                    if not entries:
                        self._prune(path)
                    yield page, pte
                    if not entries:
                        break
                vpn = stop

    def _prune(self, path: List[Tuple[RefNode, int]]) -> None:
        for parent, index in reversed(path):
            child = parent.children[index]
            if child.live_slots:
                break
            del parent.children[index]
            self._release_frame(child.frame)
            self.node_count -= 1

    def update(self, vpn: int, pfn: int, flags: PteFlags) -> None:
        node, leaf_index = self._leaf_for(vpn)
        if node is None or not node.entries.get(leaf_index, 0) & PRESENT:
            raise PageTableError(f"vpn {vpn:#x} not mapped")
        old_pte = node.entries[leaf_index]
        node.entries[leaf_index] = make_pte(pfn, int(flags) | PRESENT)
        if self.sanitizer is not None and pte_frame(old_pte) != pfn:
            self.sanitizer.on_unmap(self.owner_pid, vpn, pte_frame(old_pte))
            self.sanitizer.on_map(self.owner_pid, vpn, pfn)

    def lookup(self, vpn: int) -> Optional[int]:
        node = self.root
        level = self.levels
        while level > 1:
            index = (vpn >> ((level - 1) * BITS_PER_LEVEL)) & PT_INDEX_MASK
            if level == 2:
                huge = node.entries.get(index)
                if huge is not None and huge & PRESENT:
                    return make_pte(
                        pte_frame(huge) + (vpn & PT_INDEX_MASK), PRESENT | HUGE
                    )
            node = node.children.get(index)
            if node is None:
                return None
            level -= 1
        pte = node.entries.get(vpn & PT_INDEX_MASK)
        if pte is None or not pte & PRESENT:
            return None
        return pte

    def translate(self, vpn: int) -> Optional[int]:
        pte = self.lookup(vpn)
        return None if pte is None else pte_frame(pte)

    def walk_path_and_pte(self, vpn: int):
        indices = pt_indices(vpn)
        node = self.root
        path = [(node.level, node.frame, indices[0])]
        for depth in range(self.levels - 1):
            if node.level == 2:
                huge = node.entries.get(indices[depth])
                if huge is not None and huge & 1:
                    offset = vpn % self.HUGE_PAGES
                    return path, make_pte(pte_frame(huge) + offset, PRESENT | HUGE)
            child = node.children.get(indices[depth])
            if child is None:
                return path, None
            node = child
            path.append((node.level, node.frame, indices[depth + 1]))
        pte = node.entries.get(indices[-1])
        if pte is None or not pte & 1:
            return path, None
        return path, pte

    def _leaf_for(self, vpn: int) -> Tuple[Optional[RefNode], int]:
        indices = pt_indices(vpn)
        node = self.root
        for index in indices[:-1]:
            child = node.children.get(index)
            if child is None:
                return None, indices[-1]
            node = child
        return node, indices[-1]

    def iter_mappings(self) -> Iterator[Tuple[int, int]]:
        yield from self._iter_node(self.root, 0)

    def _iter_node(self, node: RefNode, prefix: int) -> Iterator[Tuple[int, int]]:
        if node.is_leaf:
            for index in sorted(node.entries):
                pte = node.entries[index]
                if pte & PRESENT:
                    yield (prefix << BITS_PER_LEVEL) | index, pte
            return
        if node.level == 2:
            for index in sorted(node.entries):
                pte = node.entries[index]
                if not pte & PRESENT:
                    continue
                base_vpn = ((prefix << BITS_PER_LEVEL) | index) << BITS_PER_LEVEL
                for offset in range(self.HUGE_PAGES):
                    yield base_vpn + offset, make_pte(
                        pte_frame(pte) + offset, PRESENT | HUGE
                    )
        for index in sorted(node.children):
            yield from self._iter_node(
                node.children[index], (prefix << BITS_PER_LEVEL) | index
            )

    def destroy(self) -> None:
        self._destroy_node(self.root)
        self.root = RefNode(self._alloc_frame(), self.levels)
        self.mapped_pages = 0
        self.node_count = 1

    def _destroy_node(self, node: RefNode) -> None:
        for child in node.children.values():
            self._destroy_node(child)
        self._release_frame(node.frame)

    def huge_mappings(self) -> Iterator[Tuple[int, int]]:
        stack = [(self.root, 0)]
        while stack:
            node, prefix = stack.pop()
            if node.level == 2:
                for index, pte in node.entries.items():
                    if pte & PRESENT:
                        base_vpn = ((prefix << BITS_PER_LEVEL) | index) << BITS_PER_LEVEL
                        yield base_vpn, pte_frame(pte)
            if not node.is_leaf:
                for index, child in node.children.items():
                    stack.append((child, (prefix << BITS_PER_LEVEL) | index))

    def leaf_nodes(self) -> Iterator[RefNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children.values())


class Recorder:
    """Node frames taken and released, and sanitizer hooks, in order."""

    def __init__(self) -> None:
        self._next = itertools.count(1000)
        self.taken: List[int] = []
        self.released: List[int] = []
        self.hooks: List[tuple] = []

    def take(self) -> int:
        frame = next(self._next)
        self.taken.append(frame)
        return frame

    def on_map(self, pid, vpn, pfn) -> None:
        self.hooks.append(("map", pid, vpn, pfn))

    def on_unmap(self, pid, vpn, pfn) -> None:
        self.hooks.append(("unmap", pid, vpn, pfn))


def make_pair():
    tables = []
    for cls in (PageTable, RefPageTable):
        recorder = Recorder()
        table = cls(recorder.take, recorder.released.append)
        table.sanitizer = recorder
        table.owner_pid = 7
        tables.append((table, recorder))
    return tables


def outcome(call, *args):
    """``("ok", result)`` or the raised error's type and message."""
    try:
        return "ok", call(*args)
    except (PageTableError, ValueError) as exc:
        return type(exc), str(exc)


def drain_range(table, start: int, end: int, split: bool):
    """Run ``unmap_range`` to the end, splitting each huge mapping it
    yields as the kernel does (``split``) or resuming without splitting."""
    yielded = []
    walk = table.unmap_range(start, end)
    try:
        for vpn, pte in walk:
            yielded.append((vpn, pte))
            if pte & HUGE and split:
                base = vpn - vpn % PTES_PER_NODE
                frame = table.unmap_huge(base)
                for offset in range(PTES_PER_NODE):
                    table.map(base + offset, frame + offset)
    except PageTableError as exc:
        return yielded, (type(exc), str(exc))
    return yielded, None


def assert_same(pair, vpns) -> None:
    (table, got), (ref, want) = pair
    for vpn in vpns:
        assert table.lookup(vpn) == ref.lookup(vpn)
        assert table.translate(vpn) == ref.translate(vpn)
        assert table.walk_path_and_pte(vpn) == ref.walk_path_and_pte(vpn)
    assert list(table.iter_mappings()) == list(ref.iter_mappings())
    assert table.mapped_pages == ref.mapped_pages
    assert table.node_count == ref.node_count
    assert sorted(table.huge_mappings()) == sorted(ref.huge_mappings())
    assert sorted(n.frame for n in table.leaf_nodes()) == sorted(
        n.frame for n in ref.leaf_nodes()
    )
    assert got.taken == want.taken
    assert Counter(got.released) == Counter(want.released)
    assert got.hooks == want.hooks
    check_page_table(table)


# Each base spans three level-2 slots, each holding a leaf or a huge
# mapping: six slots of one level-2 node (bases 0 and 3 * 512), a second
# level-2 node under the same level-3 node, and a second level-3 node.
BASES = [0, 3 * PTES_PER_NODE, PTES_PER_NODE ** 2, 5 * PTES_PER_NODE ** 3]
SPAN = 3 * PTES_PER_NODE
vpns = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from(BASES),
    st.integers(min_value=0, max_value=SPAN - 1),
)
huge_vpns = st.builds(
    lambda base, slot: base + slot * PTES_PER_NODE,
    st.sampled_from(BASES),
    st.integers(min_value=0, max_value=2),
)
pfns = st.integers(min_value=-2, max_value=5000)
flags = st.sampled_from(
    [PteFlags.PRESENT, PteFlags.PRESENT | PteFlags.WRITABLE, PteFlags.COW]
)
table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map"), vpns, pfns, flags),
        st.tuples(
            st.just("map_huge"),
            huge_vpns,
            st.integers(min_value=-1, max_value=8).map(lambda n: n * PTES_PER_NODE),
        ),
        st.tuples(st.just("unmap"), vpns),
        st.tuples(st.just("unmap_huge"), vpns),
        st.tuples(st.just("update"), vpns, pfns, flags),
        st.tuples(
            st.just("unmap_range"),
            vpns,
            st.integers(min_value=0, max_value=2 * SPAN),
            st.booleans(),
        ),
        st.tuples(st.just("destroy")),
        st.tuples(st.just("map_run"), vpns, st.integers(min_value=1, max_value=600)),
    ),
    max_size=30,
)


@given(table_ops)
@settings(max_examples=120, deadline=None)
def test_slot_arrays_match_dict_table(ops):
    pair = make_pair()
    touched = set(BASES)
    for op in ops:
        action, args = op[0], op[1:]
        if action == "map_run":
            # Dense runs fill leaves, so pruning and full nodes are reached.
            start, count = args
            args = ()
            results = [
                [outcome(table.map, vpn, vpn + 1) for vpn in range(start, start + count)]
                for table, _ in pair
            ]
            touched.update((start, start + count - 1))
        elif action == "unmap_range":
            start, length, split = args
            results = [
                drain_range(table, start, start + length, split)
                for table, _ in pair
            ]
            touched.update((start, start + length))
        else:
            results = [outcome(getattr(table, action), *args) for table, _ in pair]
            if args:
                touched.add(args[0])
        assert results[0] == results[1]
        assert_same(pair, touched)


def test_teardown_walks_nodes_in_address_order():
    # The one visible difference from the dict table: destroy(),
    # huge_mappings() and leaf_nodes() visit siblings in slot order, not
    # in the order the nodes were created.
    (table, recorder), _ = make_pair()
    for vpn in (5 * PTES_PER_NODE, 2 * PTES_PER_NODE, 0):
        table.map(vpn, 1)
    table.map_huge(4 * PTES_PER_NODE, PTES_PER_NODE)
    table.map_huge(3 * PTES_PER_NODE, 2 * PTES_PER_NODE)
    assert [base for base, _frame in table.huge_mappings()] == [
        3 * PTES_PER_NODE, 4 * PTES_PER_NODE
    ]
    leaves = [node.frame for node in table.leaf_nodes()]
    assert leaves == sorted(leaves, reverse=True)  # created last-to-first
    root, level3, level2 = recorder.taken[:3]
    table.destroy()
    assert recorder.released == leaves + [level2, level3, root]


def test_mapped_pages_cost_their_slots_not_a_dict_entry_each():
    frames = itertools.count(1)
    table = PageTable(lambda: next(frames))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for vpn in range(64 * PTES_PER_NODE):
            table.map(vpn, vpn + 100_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert table.mapped_pages == 64 * PTES_PER_NODE
    assert grown < 512 * 1024, f"page table grew {grown} bytes"
