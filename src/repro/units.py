"""Architectural constants and address-manipulation helpers.

Everything in the simulator is expressed in terms of the x86-64 / Linux
constants defined here: 4KB pages, 64B cache blocks, 8-byte page-table
entries, and a 4-level radix page table with 9 translation bits per level.
These are the quantities the paper's argument rests on -- in particular,
``PTES_PER_CACHE_BLOCK == 8`` is why PTEMagnet reserves 8-page (32KB) groups.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Size of a small (base) page in bytes.
PAGE_SIZE = 4 * KB
#: log2(PAGE_SIZE); the number of offset bits within a page.
PAGE_SHIFT = 12

#: Size of a CPU cache block in bytes.
CACHE_BLOCK_SIZE = 64
#: log2(CACHE_BLOCK_SIZE).
CACHE_BLOCK_SHIFT = 6

#: Number of cache blocks in one page: 4096B / 64B = 64.
BLOCKS_PER_PAGE = PAGE_SIZE // CACHE_BLOCK_SIZE

#: Size of one page-table entry in bytes (x86-64).
PTE_SIZE = 8
#: Number of PTEs that fit in one cache block: 64B / 8B = 8.
PTES_PER_CACHE_BLOCK = CACHE_BLOCK_SIZE // PTE_SIZE

#: Number of radix-tree levels in an x86-64 page table.
PT_LEVELS = 4
#: Page-table depths the model supports: 4, la57's 5, and others for
#: ablations.
PT_LEVELS_RANGE = range(2, 7)
#: Translation bits consumed per page-table level.
BITS_PER_LEVEL = 9
#: Fan-out of one page-table node: 2**9 = 512 entries.
PTES_PER_NODE = 1 << BITS_PER_LEVEL
#: Mask selecting one level's slot index from a page number, after shifting
#: it right by ``(level - 1) * BITS_PER_LEVEL``.
PT_INDEX_MASK = PTES_PER_NODE - 1

#: PTEMagnet reservation granularity in pages: one cache block of leaf PTEs.
RESERVATION_PAGES = PTES_PER_CACHE_BLOCK
#: PTEMagnet reservation granularity in bytes (32KB).
RESERVATION_BYTES = RESERVATION_PAGES * PAGE_SIZE
#: log2 of the reservation size in pages (buddy order of a reservation).
RESERVATION_ORDER = RESERVATION_PAGES.bit_length() - 1
#: Largest reservation order the PTEMagnet allocator supports (64 pages).
MAX_RESERVATION_ORDER = 6

#: Low frames each kernel's buddy allocator marks kernel-reserved at boot
#: (the kernel image and early allocations), in guest and host alike.
RESERVED_BASE_FRAMES = 64

#: Virtual-address bits covered by a 4-level page table (x86-64 canonical).
VA_BITS = PAGE_SHIFT + PT_LEVELS * BITS_PER_LEVEL  # 48


def page_number(addr: int) -> int:
    """Return the page number containing byte address ``addr``."""
    return addr >> PAGE_SHIFT


def page_base(addr: int) -> int:
    """Return the byte address of the start of the page containing ``addr``."""
    return (addr >> PAGE_SHIFT) << PAGE_SHIFT


def page_offset(addr: int) -> int:
    """Return the byte offset of ``addr`` within its page."""
    return addr & (PAGE_SIZE - 1)


def block_number(addr: int) -> int:
    """Return the cache-block number containing byte address ``addr``."""
    return addr >> CACHE_BLOCK_SHIFT


def reservation_group(vpn: int) -> int:
    """Return the reservation-group index of virtual page ``vpn``.

    A reservation group is an aligned run of :data:`RESERVATION_PAGES`
    virtual pages whose leaf PTEs share one cache block.
    """
    return vpn >> RESERVATION_ORDER


def reservation_base_vpn(vpn: int) -> int:
    """Return the first virtual page of ``vpn``'s reservation group."""
    return (vpn >> RESERVATION_ORDER) << RESERVATION_ORDER


def reservation_slot(vpn: int) -> int:
    """Return the position (0..7) of ``vpn`` within its reservation group."""
    return vpn & (RESERVATION_PAGES - 1)


def pt_indices(vpn: int) -> tuple:
    """Split a virtual page number into its 4 page-table indices.

    Returns indices ordered from the root level (level 4 / PGD) down to the
    leaf level (level 1 / PTE), each in ``[0, 512)``. Deliberately not
    cached: the walkers and ``PageTable.lookup`` shift and mask per level
    instead, and a cache fed mostly by faulting pages' first touches
    misses while holding 65,536 tuples (about 14 MB of fig6's peak RSS).
    """
    mask = PTES_PER_NODE - 1
    return (
        (vpn >> (3 * BITS_PER_LEVEL)) & mask,
        (vpn >> (2 * BITS_PER_LEVEL)) & mask,
        (vpn >> BITS_PER_LEVEL) & mask,
        vpn & mask,
    )


def pt_indices_for(vpn: int, levels: int) -> tuple:
    """Split a virtual page number into ``levels`` page-table indices.

    Generalisation of :func:`pt_indices` for non-4-level tables -- e.g.
    the 5-level paging Linux was migrating to when the paper was written
    (§2.5). Root level first, leaf last.
    """
    mask = PTES_PER_NODE - 1
    return tuple(
        (vpn >> (shift * BITS_PER_LEVEL)) & mask
        for shift in range(levels - 1, -1, -1)
    )


def pte_address(node_frame: int, index: int) -> int:
    """Physical byte address of entry ``index`` in the PT node at ``node_frame``."""
    return (node_frame << PAGE_SHIFT) + index * PTE_SIZE


def pages_for_bytes(nbytes: int) -> int:
    """Number of whole pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    return value - value % alignment
