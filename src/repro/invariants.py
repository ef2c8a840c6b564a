"""Runtime invariant contracts for the simulator's core state.

Silent model drift invalidates every downstream figure, so this module
provides debug-mode consistency checks over the three structures the
paper's argument rests on:

* the **buddy allocator** -- free-list disjointness, buddy alignment and
  frame conservation (:func:`check_buddy`);
* the **PaRT** -- radix-path consistency, aligned reservation groups, and
  no double-reserved frames (:func:`check_part`);
* per-process **page tables** -- level consistency, node/page accounting
  and flag sanity (:func:`check_page_table`);

plus whole-kernel accounting (:func:`check_kernel`): every frame is in
exactly one of the /proc/meminfo states and the RESERVED count equals the
reserved-but-unmapped total across all live PaRTs.

Enabling the contracts
----------------------
The checks run after every page fault when the ``REPRO_INVARIANTS``
environment variable is set to ``1``/``true``/``yes``/``on``. It is the
only switch, read once when a :class:`~repro.os.kernel.GuestKernel` is
built, as the sanitizer's is: setting it affects kernels built
afterwards, not a kernel that already exists.

Like Linux's ``CONFIG_DEBUG_VM``, the per-fault hook
(:func:`check_fault_invariants`) is *path-local* -- O(tree depth) checks
along the faulting address' page-table path, its reservation group and
the frame it received -- so debug runs stay usable; the full
O(live-state) sweep (:func:`check_kernel`) runs every
:data:`FULL_CHECK_INTERVAL` faults and can be called directly at any
barrier (end of run, before measurement).

All violations raise :class:`repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict

from .errors import InvariantViolation
from .mem.physical import FrameState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core.part import PageReservationTable
    from .mem.buddy import BuddyAllocator
    from .os.kernel import GuestKernel
    from .os.process import Process
    from .pagetable.radix import PageTable

#: Environment variable enabling the contracts process-wide.
ENV_FLAG = "REPRO_INVARIANTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def invariants_enabled() -> bool:
    """True when :data:`ENV_FLAG` turns the runtime contracts on."""
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


# ---------------------------------------------------------------------- #
# Buddy allocator
# ---------------------------------------------------------------------- #

def check_buddy(buddy: "BuddyAllocator") -> None:
    """Free-list disjointness, buddy alignment, frame conservation.

    Delegates to :meth:`~repro.mem.buddy.BuddyAllocator.check_invariants`,
    which raises :class:`InvariantViolation` on the first violation.
    """
    buddy.check_invariants()


# ---------------------------------------------------------------------- #
# PaRT
# ---------------------------------------------------------------------- #

def check_part(part: "PageReservationTable") -> None:
    """Structural and reservation invariants of one process' PaRT.

    Checks, for the whole radix tree:

    * node levels decrease by one per edge and entries live only in leaves;
    * each reservation is stored at the radix path of its own group index;
    * reservation base frames are aligned to the group size and masks are
      in range;
    * no frame is claimed by two reservations (no double-mapped frames);
    * no stored reservation is full (full entries must have been deleted,
      §4.2) and the cached entry count matches the tree.
    """
    from .core.part import PART_FANOUT, PART_LEVELS, _indices

    claimed: Dict[int, int] = {}
    entries = 0
    nodes = 0
    stack = [(part.root, PART_LEVELS, ())]
    while stack:
        node, expected_level, prefix = stack.pop()
        nodes += 1
        if node.level != expected_level:
            raise InvariantViolation(
                f"PaRT node at depth {PART_LEVELS - expected_level} has "
                f"level {node.level}, expected {expected_level}"
            )
        if node.is_leaf:
            if node.children:
                raise InvariantViolation(
                    "PaRT leaf node has interior children"
                )
        elif node.entries:
            raise InvariantViolation(
                f"PaRT interior node (level {node.level}) holds entries"
            )
        for index, child in node.children.items():
            if not 0 <= index < PART_FANOUT:
                raise InvariantViolation(
                    f"PaRT child index {index} outside [0, {PART_FANOUT})"
                )
            stack.append((child, expected_level - 1, prefix + (index,)))
        for index, reservation in node.entries.items():
            entries += 1
            if _indices(reservation.group) != prefix + (index,):
                raise InvariantViolation(
                    f"reservation for group {reservation.group} stored at "
                    f"radix path {prefix + (index,)}"
                )
            _check_reservation(reservation, claimed)
    if entries != part.entry_count:
        raise InvariantViolation(
            f"PaRT entry_count {part.entry_count} != live entries {entries}"
        )
    if nodes != part.node_count:
        raise InvariantViolation(
            f"PaRT node_count {part.node_count} != live nodes {nodes}"
        )


def _check_reservation(reservation, claimed: Dict[int, int]) -> None:
    pages = reservation.pages
    if pages <= 0 or pages & (pages - 1):
        raise InvariantViolation(
            f"reservation group {reservation.group}: size {pages} is not a "
            "power of two"
        )
    if reservation.base_frame % pages:
        raise InvariantViolation(
            f"reservation group {reservation.group}: base frame "
            f"{reservation.base_frame} misaligned for {pages} pages"
        )
    if not 0 <= reservation.mask <= reservation.full_mask:
        raise InvariantViolation(
            f"reservation group {reservation.group}: mask "
            f"{reservation.mask:#x} out of range"
        )
    if reservation.full:
        raise InvariantViolation(
            f"reservation group {reservation.group} is full but still in "
            "the PaRT (must be deleted on completion)"
        )
    for frame in range(
        reservation.base_frame, reservation.base_frame + pages
    ):
        other = claimed.get(frame)
        if other is not None:
            raise InvariantViolation(
                f"frame {frame} reserved by both group {other} and group "
                f"{reservation.group}"
            )
        claimed[frame] = reservation.group


# ---------------------------------------------------------------------- #
# Page tables
# ---------------------------------------------------------------------- #

def check_page_table(page_table: "PageTable") -> None:
    """Level consistency and accounting of one radix page table.

    Checks that child levels decrease by one per edge, every node has
    512-slot arrays, translations live only in leaf nodes (or level 2 with
    the HUGE bit), every node frame is distinct, each node's
    ``live_slots`` counts its populated slots, and the cached
    ``node_count`` / ``mapped_pages`` totals match the tree.
    """
    from .pagetable.pte import PteFlags, pte_present
    from .pagetable.radix import PageTable as _PageTable
    from .units import PTES_PER_NODE

    nodes = 0
    mapped = 0
    node_frames: Dict[int, int] = {}
    stack = [(page_table.root, page_table.levels)]
    while stack:
        node, expected_level = stack.pop()
        nodes += 1
        if node.level != expected_level:
            raise InvariantViolation(
                f"page-table node frame {node.frame} has level "
                f"{node.level}, expected {expected_level}"
            )
        previous = node_frames.get(node.frame)
        if previous is not None:
            raise InvariantViolation(
                f"frame {node.frame} backs two page-table nodes"
            )
        node_frames[node.frame] = node.level
        for slots in (node.children, node.entries):
            if slots is not None and len(slots) != PTES_PER_NODE:
                raise InvariantViolation(
                    f"page-table node {node.frame} has {len(slots)} slots, "
                    f"not {PTES_PER_NODE}"
                )
        children = [
            child for child in node.children or () if child is not None
        ]
        entries = [pte for pte in node.entries or () if pte]
        if node.is_leaf and children:
            raise InvariantViolation(
                f"leaf page-table node {node.frame} has children"
            )
        if entries and not node.is_leaf and node.level != 2:
            raise InvariantViolation(
                f"level-{node.level} page-table node {node.frame} holds "
                "translations (only leaf and level-2 huge entries allowed)"
            )
        if node.live_slots != len(children) + len(entries):
            raise InvariantViolation(
                f"page-table node {node.frame} live_slots {node.live_slots} "
                f"!= populated slots {len(children) + len(entries)}"
            )
        for pte in entries:
            if not pte_present(pte):
                raise InvariantViolation(
                    "non-present PTE stored in a page-table node"
                )
            if node.is_leaf:
                mapped += 1
            else:  # level-2 entry: must be a huge mapping
                if not pte & PteFlags.HUGE:
                    raise InvariantViolation(
                        "level-2 page-table entry without the HUGE bit"
                    )
                mapped += _PageTable.HUGE_PAGES
        for child in children:
            stack.append((child, expected_level - 1))
    if nodes != page_table.node_count:
        raise InvariantViolation(
            f"page-table node_count {page_table.node_count} != live nodes "
            f"{nodes}"
        )
    if mapped != page_table.mapped_pages:
        raise InvariantViolation(
            f"page-table mapped_pages {page_table.mapped_pages} != live "
            f"translations {mapped}"
        )


# ---------------------------------------------------------------------- #
# Whole-kernel contracts
# ---------------------------------------------------------------------- #

def check_kernel(kernel: "GuestKernel") -> None:
    """Cross-structure contracts over one guest kernel.

    Runs :func:`check_buddy`, then per-process :func:`check_page_table`
    and :func:`check_part`, then two accounting identities:

    * every frame is in exactly one meminfo bucket:
      ``user + page_tables + reserved + kernel + free + pcp == total``;
    * the RESERVED frame count equals the reserved-but-unmapped total
      across all live PaRTs (nothing leaks out of a reservation).
    """
    check_buddy(kernel.buddy)
    reserved_unmapped = 0
    for process in kernel.processes.values():
        check_page_table(process.page_table)
        if process.part is not None:
            check_part(process.part)
            reserved_unmapped += process.part.unmapped_reserved_pages()
    counts = kernel.meminfo()
    total = counts.pop("total")
    in_buckets = sum(counts.values())
    if in_buckets != total:
        raise InvariantViolation(
            f"meminfo buckets sum to {in_buckets} != total {total}: {counts}"
        )
    reserved_frames = kernel.memory.count_in_state(FrameState.RESERVED)
    if reserved_frames != reserved_unmapped:
        raise InvariantViolation(
            f"{reserved_frames} RESERVED frames but PaRTs account for "
            f"{reserved_unmapped} reserved-but-unmapped pages"
        )


# ---------------------------------------------------------------------- #
# Per-fault (path-local) contracts
# ---------------------------------------------------------------------- #

#: Run the full O(live-state) :func:`check_kernel` sweep every this many
#: faults; in between, faults get the cheap path-local checks only.
FULL_CHECK_INTERVAL = 1024


def check_fault_path(
    kernel: "GuestKernel", process: "Process", vpn: int
) -> None:
    """Path-local post-fault contract for the fault at ``vpn``.

    O(tree depth), so it can run after *every* fault:

    * the page-table path of ``vpn`` has strictly decreasing levels and a
      present leaf (or huge) translation;
    * the frame backing ``vpn`` is inside physical memory, is not tagged
      FREE, and does not sit on any buddy free list;
    * if the process' PaRT holds a reservation for ``vpn``'s group, the
      reservation is aligned, in-range and not full.
    """
    from .pagetable.pte import pte_frame

    page_table = process.page_table
    path, pte = page_table.walk_path_and_pte(vpn)
    if pte is None:
        raise InvariantViolation(
            f"pid {process.pid}: vpn {vpn:#x} unmapped right after fault"
        )
    expected = page_table.levels
    for level, node_frame, _index in path:
        if level != expected:
            raise InvariantViolation(
                f"pid {process.pid}: page-table path of vpn {vpn:#x} has "
                f"level {level} where {expected} was expected"
            )
        kernel.memory.check_frame(node_frame)
        expected -= 1
    frame = pte_frame(pte)
    kernel.memory.check_frame(frame)
    if kernel.memory.state_of(frame) is FrameState.FREE:
        raise InvariantViolation(
            f"pid {process.pid}: vpn {vpn:#x} maps frame {frame} which is "
            "tagged FREE"
        )
    _check_frame_not_on_free_lists(kernel.buddy, frame)
    if process.part is not None and kernel.ptemagnet is not None:
        group = vpn >> kernel.ptemagnet.reservation_order
        reservation = process.part.probe(group)
        if reservation is not None:
            _check_reservation(reservation, {})


def _check_frame_not_on_free_lists(buddy: "BuddyAllocator", frame: int) -> None:
    """O(MAX_ORDER) membership probe: ``frame`` is in no free block."""
    for order, blocks in enumerate(buddy._free):
        base = frame & ~((1 << order) - 1)
        if base in blocks:
            raise InvariantViolation(
                f"frame {frame} is mapped but lies inside free block "
                f"{base} of order {order}"
            )


def check_fault_invariants(
    kernel: "GuestKernel", process: "Process", vpn: int
) -> None:
    """Post-fault hook: path-local checks always, full sweep periodically.

    Called by :meth:`repro.os.kernel.GuestKernel.handle_fault` when the
    contracts are enabled. Every fault gets :func:`check_fault_path`;
    every :data:`FULL_CHECK_INTERVAL`-th fault (and the very first) also
    runs the complete :func:`check_kernel` sweep.
    """
    check_fault_path(kernel, process, vpn)
    if kernel.stats.faults % FULL_CHECK_INTERVAL == 1:
        check_kernel(kernel)
