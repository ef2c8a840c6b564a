"""Nested (two-dimensional) page walker.

Implements the 2D walk of §2.5: translating one guest virtual page
requires

* up to 4 accesses to guest-PT nodes, each of which lives in guest
  physical memory and therefore first needs its *own* host walk (up to 4
  host-PT accesses) to locate in host physical memory, and
* one final host walk to translate the resulting guest physical address,

for up to 4 x (4 + 1) + 4 = 24 serialized memory accesses. Guest and host
page-walk caches skip upper levels they have seen recently, and a small
nested TLB caches guest-frame -> host-frame translations for guest-PT
node pages, as real MMUs do. Every access flows through the shared cache
hierarchy tagged ``"gpt"`` or ``"hpt"`` so experiments can attribute
hit/miss behaviour per dimension -- the measurement at the heart of the
paper (gPT vs hPT accesses served by main memory).

Every TLB miss runs this code, so both dimensions are walked in one loop
over the page-table nodes, by the rules of the 1D
:class:`~repro.pagetable.walker.PageWalker` (kept as the reference),
building no path lists, per-level tuples or result objects besides the
one :class:`NestedWalkResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cache.hierarchy import CacheHierarchy
from ..cache.pwc import PageWalkCache
from ..obs.profile import PROFILER
from ..pagetable.pte import PRESENT
from ..pagetable.radix import PageTable
from ..units import BITS_PER_LEVEL, PAGE_SHIFT, PT_INDEX_MASK, PTE_SIZE
from .hypervisor import HostKernel, VmHandle

#: Capacity of the nested TLB (gfn -> hfn for guest-PT node pages).
NESTED_TLB_ENTRIES = 64


@dataclass
class NestedWalkResult:
    """Outcome of one 2D page walk."""

    #: Final host physical frame for the guest virtual page, or ``None``
    #: if the *guest* PT has no translation (guest page fault).
    host_frame: Optional[int]
    #: Guest physical frame, or ``None`` on guest fault.
    guest_frame: Optional[int]
    #: Total serialized walk latency in cycles.
    cycles: int
    #: Cycles spent on host-PT accesses only (paper: "cycles spent
    #: traversing the host page table").
    host_cycles: int
    #: Number of guest-PT entry accesses issued.
    guest_accesses: int
    #: Number of host-PT entry accesses issued.
    host_accesses: int

    @property
    def faulted(self) -> bool:
        """True if the guest PT had no translation (guest page fault)."""
        return self.host_frame is None


class NestedWalker:
    """Performs 2D walks for one guest process inside one VM.

    Parameters
    ----------
    guest_pt:
        The guest process' page table (guest virtual -> guest physical).
    vm:
        The VM handle holding the host PT (guest physical -> host physical).
    host:
        The host kernel, consulted to back guest frames on first touch.
    hierarchy:
        The shared cache hierarchy all PT accesses flow through.
    guest_pwc / host_pwc:
        Page-walk caches for the two dimensions.
    """

    def __init__(
        self,
        guest_pt: PageTable,
        vm: VmHandle,
        host: HostKernel,
        hierarchy: CacheHierarchy,
        guest_pwc: Optional[PageWalkCache] = None,
        host_pwc: Optional[PageWalkCache] = None,
    ) -> None:
        self.guest_pt = guest_pt
        self.vm = vm
        self.host = host
        self.hierarchy = hierarchy
        self.guest_pwc = guest_pwc
        self.host_pwc = host_pwc
        # Nested TLB: gfn -> hfn, LRU via insertion order.
        self._ntlb: Dict[int, int] = {}
        self.ntlb_hits = 0
        self.ntlb_misses = 0
        self.walks = 0
        self.total_cycles = 0
        self.total_host_cycles = 0

    def walk(self, gvpn: int) -> NestedWalkResult:
        """Translate guest virtual page ``gvpn`` end to end.

        One descent of the guest PT, root first. Each guest node the walk
        reads first has its own frame host-translated -- by the nested
        TLB, else by a host walk -- and then its gPTE is fetched; a
        translated page gets one final host walk for its data frame
        (pseudo-level 0 below). A host walk that meets a hole backs the
        frame (``ensure_backed``, the EPT-violation exit) and is
        re-issued. In both dimensions a PWC hit at level L starts the
        walk at the level-L node, and every node read fills the PWC.
        """
        hierarchy = self.hierarchy
        access = hierarchy.access
        profiling = PROFILER.enabled
        guest_pt = self.guest_pt
        guest_pwc = self.guest_pwc
        start_level = guest_pt.levels
        if guest_pwc is not None:
            start_level = guest_pwc.lookup(gvpn) or start_level
        vm = self.vm
        host_pt = vm.host_pt
        host_pwc = self.host_pwc
        ntlb = self._ntlb
        cycles = host_cycles = guest_accesses = host_accesses = 0
        guest_frame = host_frame = None
        node = guest_pt.root
        level = guest_pt.levels
        # One iteration per guest level, root first; level 0 is the final
        # host walk of the data page. Level 0 is always <= start_level.
        while True:
            if level:
                shift = (level - 1) * BITS_PER_LEVEL
                index = (gvpn >> shift) & PT_INDEX_MASK
            if level <= start_level:
                if level:
                    # The gPTE lives at a guest-physical address: locate
                    # its node in host physical memory first.
                    gfn = node.frame
                    hfn = ntlb.get(gfn)
                    if hfn is None:
                        self.ntlb_misses += 1
                    else:
                        del ntlb[gfn]
                        ntlb[gfn] = hfn  # refresh LRU position
                        self.ntlb_hits += 1
                else:
                    gfn = guest_frame
                    hfn = None
                walk_cycles = walk_accesses = 0
                if hfn is None:
                    if profiling:
                        context = (
                            "walk", "hpt", f"gl{level}" if level else "leaf",
                        )
                    backed = False
                    while True:
                        host_start = host_pt.levels
                        if host_pwc is not None:
                            host_start = host_pwc.lookup(gfn) or host_start
                        hnode = host_pt.root
                        hlevel = host_pt.levels
                        while True:
                            hshift = (hlevel - 1) * BITS_PER_LEVEL
                            hindex = (gfn >> hshift) & PT_INDEX_MASK
                            if hlevel <= host_start:
                                latency = access(
                                    (hnode.frame << PAGE_SHIFT)
                                    + hindex * PTE_SIZE,
                                    "hpt",
                                )
                                walk_cycles += latency
                                walk_accesses += 1
                                if profiling:
                                    outcome = hierarchy.last_outcome.name
                                    step = (f"hl{hlevel}", outcome.lower())
                                    PROFILER.add(context + step, latency)
                                if host_pwc is not None:
                                    host_pwc.fill(gfn, hlevel)
                            if hlevel == 1:
                                hpte = hnode.entries[hindex]
                                if hpte & PRESENT:
                                    hfn = hpte >> PAGE_SHIFT
                                break
                            if hlevel == 2:
                                huge = hnode.entries[hindex]
                                if huge & PRESENT:
                                    hfn = (huge >> PAGE_SHIFT) + (
                                        gfn & PT_INDEX_MASK
                                    )
                                    break
                            hnode = hnode.children[hindex]
                            if hnode is None:
                                break
                            hlevel -= 1
                        if hfn is not None or backed:
                            break
                        self.host.ensure_backed(vm, gfn)
                        backed = True
                    if level:
                        if len(ntlb) >= NESTED_TLB_ENTRIES:
                            del ntlb[next(iter(ntlb))]
                        ntlb[gfn] = hfn
                cycles += walk_cycles
                host_cycles += walk_cycles
                host_accesses += walk_accesses
                if not level:
                    host_frame = hfn
                    break
                # Then fetch the gPTE itself through the cache hierarchy.
                latency = access((hfn << PAGE_SHIFT) + index * PTE_SIZE, "gpt")
                if profiling:
                    outcome = hierarchy.last_outcome.name.lower()
                    step = ("walk", "gpt", f"gl{level}", outcome)
                    PROFILER.add(step, latency)
                cycles += latency
                guest_accesses += 1
                if guest_pwc is not None:
                    guest_pwc.fill(gvpn, level)
            # Descend the guest PT; a hole is a guest page fault.
            if level == 1:
                pte = node.entries[index]
                if not pte & PRESENT:
                    break
                guest_frame = pte >> PAGE_SHIFT
                level = 0
                continue
            if level == 2:
                huge = node.entries[index]
                if huge & PRESENT:
                    guest_frame = (huge >> PAGE_SHIFT) + (gvpn & PT_INDEX_MASK)
                    level = 0
                    continue
            node = node.children[index]
            if node is None:
                break
            level -= 1

        self.walks += 1
        self.total_cycles += cycles
        self.total_host_cycles += host_cycles
        return NestedWalkResult(
            host_frame=host_frame,
            guest_frame=guest_frame,
            cycles=cycles,
            host_cycles=host_cycles,
            guest_accesses=guest_accesses,
            host_accesses=host_accesses,
        )

    def flush_ntlb(self) -> None:
        """Drop all nested-TLB entries (host PT changed)."""
        self._ntlb.clear()
