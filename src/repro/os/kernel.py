"""The guest kernel: processes, page faults, frees, and reclaim.

This is the component PTEMagnet patches in the real system. The kernel
owns guest physical memory through a buddy allocator and resolves page
faults either through the default one-page path or through the PTEMagnet
reservation path, depending on configuration and the cgroup policy. It
also maintains per-frame reference counts for fork/COW sharing and drives
the reservation reclamation daemon under memory pressure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..config import GuestConfig, MachineConfig
from ..core.allocator import (
    FaultPathResult,
    PTEMagnetAllocator,
    release_reservation,
)
from ..core.part import PageReservationTable
from ..core.policy import EnablementPolicy
from ..core.reclaimer import ReclaimReport, ReservationReclaimer
from ..errors import OutOfMemoryError, SegmentationFault, SimulationError
from ..invariants import check_fault_invariants, invariants_enabled
from ..mem.buddy import BuddyAllocator
from ..mem.pcp import PerCpuPageCache
from ..mem.physical import FrameState, PhysicalMemory
from ..obs.histogram import Log2Histogram
from ..obs.profile import PROFILER
from ..pagetable.pte import COW, HUGE, PRESENT, PteFlags, pte_frame
from ..sanitizer import FrameSanitizer, sanitizer_enabled
from ..units import RESERVED_BASE_FRAMES
from .fault import FaultKind, FaultOutcome, default_alloc
from .process import Process
from .vma import Protection, Vma


#: The :class:`KernelStats` counter a 4KB fault of each kind bumps when it
#: takes its frame, and takes back if the page then cannot be mapped.
_KIND_COUNTERS = {
    FaultKind.DEFAULT: "default_faults",
    FaultKind.RESERVATION_HIT: "reservation_hit_faults",
    FaultKind.RESERVATION_NEW: "reservation_new_faults",
    FaultKind.FALLBACK: "fallback_faults",
    FaultKind.CA_CONTIGUOUS: "ca_contiguous_faults",
    FaultKind.CA_FALLBACK: "ca_fallback_faults",
}


@dataclass
class KernelStats:
    """Guest-kernel activity counters."""

    faults: int = 0
    default_faults: int = 0
    reservation_hit_faults: int = 0
    reservation_new_faults: int = 0
    fallback_faults: int = 0
    cow_faults: int = 0
    spurious_faults: int = 0
    thp_faults: int = 0
    thp_fallback_faults: int = 0
    thp_splits: int = 0
    ca_contiguous_faults: int = 0
    ca_fallback_faults: int = 0
    pages_freed: int = 0
    fault_cycles: int = 0
    #: Per-fault handler latency distribution (kernel-wide, all
    #: processes); the tail exposes THP-style compaction stalls. A
    #: bounded log2 histogram, not a raw sample list -- query with
    #: ``fault_latencies.percentile(0.99)`` / ``.mean`` / ``.max``.
    fault_latencies: Log2Histogram = field(default_factory=Log2Histogram)
    reclaim_reports: List[ReclaimReport] = field(default_factory=list)


#: Callback type invoked when a translation is removed or changed, so the
#: machine model can shoot down TLB/PWC entries: (pid, vpn) -> None.
UnmapObserver = Callable[[int, int], None]


class GuestKernel:
    """Memory-management kernel of the guest VM."""

    def __init__(
        self,
        config: GuestConfig,
        machine: MachineConfig,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self.machine = machine
        self.rng = rng or random.Random(0)
        self.memory = PhysicalMemory(config.frames, name="guest")
        self.buddy = BuddyAllocator(
            self.memory, reserved_base_frames=RESERVED_BASE_FRAMES
        )
        self.sanitizer: Optional[FrameSanitizer] = None
        if sanitizer_enabled():
            self.sanitizer = FrameSanitizer(name="guest")
            self.buddy.sanitizer = self.sanitizer
        #: Resolved once, like the sanitizer: the environment is not
        #: re-read on every fault.
        self._check_invariants = invariants_enabled()
        self.stats = KernelStats()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        #: frame -> number of mappings, for shared (forked) frames only;
        #: a frame with no entry has one mapping.
        self._refcount: Dict[int, int] = {}
        self._unmap_observers: List[UnmapObserver] = []
        self.policy = EnablementPolicy(config.ptemagnet_memory_limit_bytes)
        self.pcp: Optional[PerCpuPageCache] = (
            PerCpuPageCache(self.buddy, cpus=config.vcpus)
            if config.pcp_enabled
            else None
        )
        self.ptemagnet: Optional[PTEMagnetAllocator] = None
        self.reclaimer: Optional[ReservationReclaimer] = None
        if config.ptemagnet_enabled:
            self.ptemagnet = PTEMagnetAllocator(
                self.buddy, config.ptemagnet_reservation_order
            )
            self.reclaimer = ReservationReclaimer(
                self.buddy, config.reclaim_threshold, self.rng
            )

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #

    def add_unmap_observer(self, observer: UnmapObserver) -> None:
        """Register a callback fired on every unmap/remap (TLB shootdown)."""
        self._unmap_observers.append(observer)

    def _notify_unmap(self, pid: int, vpn: int) -> None:
        for observer in self._unmap_observers:
            observer(pid, vpn)

    # ------------------------------------------------------------------ #
    # Process lifecycle
    # ------------------------------------------------------------------ #

    def create_process(self, name: str, memory_limit_bytes: int = 0) -> Process:
        """Spawn a process; attaches a PaRT when PTEMagnet applies to it."""
        page_table = self._new_page_table()
        process = Process(
            self._next_pid, name, page_table, memory_limit_bytes
        )
        self._next_pid += 1
        if self.sanitizer is not None:
            page_table.sanitizer = self.sanitizer
            page_table.owner_pid = process.pid
        if self.ptemagnet is not None and self.policy.enabled_for(
            memory_limit_bytes
        ):
            process.part = PageReservationTable()
        self.processes[process.pid] = process
        return process

    def _new_page_table(self):
        from ..pagetable.radix import PageTable

        # Callbacks over the allocator, not the kernel: a closure over
        # ``self`` would tie each page table back to its kernel in a
        # reference cycle (docs/internals.md §13, "Memory lifetime").
        return PageTable(
            frame_allocator=partial(
                self.buddy.alloc, 0, owner=0, state=FrameState.PAGE_TABLE
            ),
            frame_releaser=self.buddy.free,
            levels=self.config.pt_levels,
        )

    def exit_process(self, process: Process) -> None:
        """Tear down a process: free every page, reservation and PT node."""
        if not process.alive:
            raise SimulationError(f"process {process.pid} already exited")
        for vma in list(process.address_space):
            self.munmap(process, vma.start_vpn, vma.npages)
        if process.part is not None:
            for reservation in list(process.part.iter_reservations()):
                release_reservation(
                    self.buddy, process.part, reservation, "exit"
                )
        process.page_table.destroy()
        # destroy() re-creates an empty root; release it too on exit.
        self.buddy.free(process.page_table.root.frame)
        process.alive = False
        del self.processes[process.pid]
        if self.sanitizer is not None:
            self.sanitizer.on_process_exit(process.pid)

    # ------------------------------------------------------------------ #
    # Virtual memory syscalls
    # ------------------------------------------------------------------ #

    def mmap(self, process: Process, npages: int, name: str = "anon") -> Vma:
        """Eagerly allocate contiguous virtual memory (no physical yet)."""
        return process.address_space.mmap(npages, Protection.rw(), name)

    def brk(self, process: Process, grow_pages: int) -> Vma:
        """Grow the heap; physical memory still arrives lazily."""
        return process.address_space.brk(grow_pages)

    def munmap(self, process: Process, start_vpn: int, npages: int) -> int:
        """Unmap a virtual range, freeing any mapped physical pages.

        Returns the number of physical pages released. Each removed VMA
        fragment is torn down in one range walk of the page table that
        visits only present entries (Linux's ``zap_pte_range``); pages are
        freed in vpn order, each before the walk moves on, so frames reach
        the allocators in the same order as :meth:`_free_page` page by
        page.
        """
        removed = process.address_space.munmap(start_vpn, npages)
        page_table = process.page_table
        released = 0
        for fragment in removed:
            for vpn, pte in page_table.unmap_range(
                fragment.start_vpn, fragment.end_vpn
            ):
                if pte & HUGE:
                    # Partial free of a THP range: split it first, as
                    # Linux does; the range walk resumes at this page.
                    self.split_huge(process, vpn)
                    continue
                self._release_page(process, vpn, pte_frame(pte))
                released += 1
        return released

    # ------------------------------------------------------------------ #
    # Page faults
    # ------------------------------------------------------------------ #

    def handle_fault(
        self, process: Process, vpn: int, write: bool = False
    ) -> FaultOutcome:
        """Resolve a page fault at ``vpn`` for ``process``.

        Dispatches to the PTEMagnet path when the process has a PaRT, to
        the COW-break path for write faults on shared pages, and to the
        default single-page path otherwise. Raises
        :class:`SegmentationFault` for addresses with no VMA.

        With invariant contracts enabled (the ``REPRO_INVARIANTS`` env
        flag, read when the kernel is built; see :mod:`repro.invariants`),
        the allocator, PaRT and page-table consistency checks run after
        every fault and raise :class:`~repro.errors.InvariantViolation`
        on drift.
        """
        outcome = self._handle_fault(process, vpn, write)
        if PROFILER.enabled:
            PROFILER.add(("fault", outcome.kind.value), outcome.cycles)
        if self._check_invariants:
            check_fault_invariants(self, process, vpn)
        return outcome

    def _handle_fault(
        self, process: Process, vpn: int, write: bool
    ) -> FaultOutcome:
        vma = process.address_space.find(vpn)
        if vma is None:
            raise SegmentationFault(
                f"pid {process.pid}: no VMA for vpn {vpn:#x}"
            )
        pte = process.page_table.lookup(vpn)
        if pte is not None:
            if write and pte & COW:
                return self._break_cow(process, vpn, pte)
            self.stats.spurious_faults += 1
            return FaultOutcome(pte_frame(pte), 0, FaultKind.SPURIOUS)
        if self.config.thp_enabled:
            huge = self._try_thp_fault(process, vpn, vma)
            if huge is not None:
                process.faults += 1
                self.stats.faults += 1
                self.stats.fault_cycles += huge.cycles
                self.stats.fault_latencies.record(huge.cycles)
                return huge
        outcome = self._fault_in(process, vpn)
        process.faults += 1
        self.stats.faults += 1
        self.stats.fault_cycles += outcome.cycles
        self.stats.fault_latencies.record(outcome.cycles)
        return outcome

    def _try_thp_fault(self, process: Process, vpn: int, vma) -> Optional[FaultOutcome]:
        """THP baseline (§2.3): map an aligned 2MB range on first fault.

        Returns ``None`` when the fault should fall through to the 4KB
        path: the 512-page range does not fit the VMA, pages of the range
        are already mapped, or (after a modelled compaction stall) no
        order-9 block exists.
        """
        from ..pagetable.radix import PageTable

        huge_pages = PageTable.HUGE_PAGES
        base = vpn - vpn % huge_pages
        if base < vma.start_vpn or base + huge_pages > vma.end_vpn:
            return None
        if not self._huge_range_empty(process, base):
            return None
        try:
            frame_base = self.buddy.alloc(9, owner=process.pid)
        except OutOfMemoryError:
            # Direct compaction stalls the faulting thread, then gives up
            # (the latency-spike pathology the paper cites).
            outcome = self._fault_in(process, vpn)
            self.stats.thp_fallback_faults += 1
            cycles = outcome.cycles + self.machine.compaction_stall_cycles
            return FaultOutcome(outcome.frame, cycles, FaultKind.THP_FALLBACK)
        try:
            process.page_table.map_huge(base, frame_base)
        except OutOfMemoryError as exc:
            self.buddy.free(frame_base)
            raise self._fault_oom(process, vpn, exc) from exc
        self.stats.thp_faults += 1
        cycles = self.machine.page_fault_cycles + self.machine.thp_alloc_cycles
        return FaultOutcome(
            frame_base + (vpn - base), cycles, FaultKind.THP
        )

    def _huge_range_empty(self, process: Process, base: int) -> bool:
        """True if no page of [base, base+512) is mapped yet.

        One descent to the level-2 node covering ``base``: if that node
        does not exist the range is empty; if it does, the slot must hold
        neither a child node nor a huge entry.
        """
        indices = process.page_table._indices(base)
        node = process.page_table.root
        for index in indices[:-2]:
            node = node.children[index]
            if node is None:
                return True
        slot = indices[-2]
        return node.children[slot] is None and not node.entries[slot]

    def split_huge(self, process: Process, vpn: int) -> None:
        """Demote the huge mapping covering ``vpn`` into 4KB mappings.

        Linux splits THPs on partial unmap, swap, and fork; the demotion
        keeps every page mapped to the same frame, now as individual
        order-0 allocations.
        """
        from ..pagetable.radix import PageTable

        huge_pages = PageTable.HUGE_PAGES
        base = vpn - vpn % huge_pages
        frame_base = process.page_table.unmap_huge(base)
        self.buddy.split_allocation(frame_base)
        for offset in range(huge_pages):
            process.page_table.map(
                base + offset, frame_base + offset, PteFlags.PRESENT
            )
            self._notify_unmap(process.pid, base + offset)
        self.stats.thp_splits += 1

    @staticmethod
    def _parent_part(process: Process) -> Optional[PageReservationTable]:
        parent = process.parent
        return parent.part if parent is not None and parent.alive else None

    def _fault_in(self, process: Process, vpn: int) -> FaultOutcome:
        """Allocate a frame for the fault at ``vpn`` and map it.

        Out of memory, the error names the fault, and the fault counts
        nowhere. If the frame came but the page table could not grow, the
        frame, never mapped, first goes back through the path that handed
        it out, and the counts the fault made are taken back.
        """
        part = process.part
        reserved = outcome = None
        try:
            if part is not None and self.ptemagnet is not None:
                reserved = self.ptemagnet.fault(
                    part, vpn, process.pid, self._parent_part(process)
                )
                outcome = self._reservation_fault(process, reserved)
            else:
                outcome = self._allocate_for_fault(process, vpn)
            process.page_table.map(vpn, outcome.frame, PRESENT)
        except OutOfMemoryError as exc:
            kind = None if outcome is None else outcome.kind
            if reserved is not None:
                self.ptemagnet.cancel_fault(
                    part, vpn, reserved, self._parent_part(process)
                )
            elif kind is FaultKind.DEFAULT and self.pcp is not None:
                self.pcp.free_frame(process.pid, outcome.frame)
            elif kind is not None:
                self.buddy.free(outcome.frame)
            if kind is not None:
                counter = _KIND_COUNTERS[kind]
                setattr(self.stats, counter, getattr(self.stats, counter) - 1)
                if kind is FaultKind.RESERVATION_HIT:
                    process.reservation_hits -= 1
            raise self._fault_oom(process, vpn, exc) from exc
        return outcome

    def _fault_oom(
        self, process: Process, vpn: int, exc: Exception
    ) -> OutOfMemoryError:
        kernel = "default" if self.ptemagnet is None else "PTEMagnet"
        return OutOfMemoryError(
            f"guest: pid {process.pid}: fault at vpn {vpn:#x} on the "
            f"{kernel} kernel: {exc}"
        )

    def _reservation_fault(
        self, process: Process, result: FaultPathResult
    ) -> FaultOutcome:
        """Count a fault the PTEMagnet allocator served with ``result``;
        returns its outcome, with its modelled cost."""
        machine = self.machine
        if result.from_reservation:
            self.stats.reservation_hit_faults += 1
            process.reservation_hits += 1
            cycles = machine.page_fault_cycles + machine.part_lookup_cycles
            return FaultOutcome(result.frame, cycles, FaultKind.RESERVATION_HIT)
        if result.created_reservation:
            self.stats.reservation_new_faults += 1
            cycles = (
                machine.page_fault_cycles
                + 2 * machine.part_lookup_cycles  # lookup + insert
                + machine.buddy_call_cycles
            )
            return FaultOutcome(result.frame, cycles, FaultKind.RESERVATION_NEW)
        self.stats.fallback_faults += 1
        cycles = (
            machine.page_fault_cycles
            + machine.part_lookup_cycles
            + machine.buddy_call_cycles
        )
        return FaultOutcome(result.frame, cycles, FaultKind.FALLBACK)

    def _allocate_for_fault(self, process: Process, vpn: int) -> FaultOutcome:
        """Take a frame for the fault at ``vpn`` off the PTEMagnet path,
        and count the fault."""
        if self.config.ca_paging_enabled:
            return self._ca_allocate(process, vpn)
        if self.pcp is not None:
            # Faults of one process arrive on its own vCPU (threads are
            # pinned, §6.1), so its pcp list is keyed by pid.
            frame = self.pcp.alloc_frame(process.pid)
        else:
            frame = default_alloc(self.buddy, process.pid)
        self.stats.default_faults += 1
        machine = self.machine
        cycles = machine.page_fault_cycles + machine.buddy_call_cycles
        return FaultOutcome(frame, cycles, FaultKind.DEFAULT)

    def _ca_allocate(self, process: Process, vpn: int) -> FaultOutcome:
        """CA-paging-style baseline (§7): best-effort contiguity.

        Requests the frame adjacent to the previous virtual page's frame.
        No reservation is held, so a co-running tenant frequently owns the
        target -- the paper's core criticism of no-pre-allocation designs.
        """
        machine = self.machine
        previous = process.page_table.translate(vpn - 1)
        cycles = (
            machine.page_fault_cycles
            + machine.buddy_call_cycles
            + machine.ca_search_cycles
        )
        if previous is not None:
            target = previous + 1
            if target < self.memory.num_frames and self.buddy.alloc_frame_at(
                target, owner=process.pid
            ):
                self.stats.ca_contiguous_faults += 1
                return FaultOutcome(target, cycles, FaultKind.CA_CONTIGUOUS)
        frame = default_alloc(self.buddy, process.pid)
        self.stats.ca_fallback_faults += 1
        return FaultOutcome(frame, cycles, FaultKind.CA_FALLBACK)

    def _break_cow(self, process: Process, vpn: int, pte: int) -> FaultOutcome:
        """Copy-on-write break: give the writer a private copy.

        Per §4.4, PTEMagnet does not attempt contiguity for COW copies --
        the new frame comes from the default single-page path.
        """
        shared_frame = pte_frame(pte)
        refs = self._refcount.get(shared_frame, 1)
        if refs <= 1:
            # Sole owner: just drop the COW bit and allow the write.
            process.page_table.update(vpn, shared_frame, PteFlags.PRESENT)
            self._notify_unmap(process.pid, vpn)
            self.stats.spurious_faults += 1
            return FaultOutcome(shared_frame, 0, FaultKind.SPURIOUS)
        new_frame = default_alloc(self.buddy, process.pid)
        self._drop_ref(shared_frame, refs)
        process.page_table.update(vpn, new_frame, PteFlags.PRESENT)
        self._notify_unmap(process.pid, vpn)
        self.stats.cow_faults += 1
        cycles = self.machine.page_fault_cycles + self.machine.buddy_call_cycles
        self.stats.fault_cycles += cycles
        return FaultOutcome(new_frame, cycles, FaultKind.COW)

    # ------------------------------------------------------------------ #
    # Freeing
    # ------------------------------------------------------------------ #

    def _free_page(self, process: Process, vpn: int) -> None:
        pte = process.page_table.lookup(vpn)
        if pte is not None and pte & HUGE:
            # Partial free of a THP range: split it first, as Linux does.
            self.split_huge(process, vpn)
        self._release_page(process, vpn, process.page_table.unmap(vpn))

    def _drop_ref(self, frame: int, refs: int) -> None:
        """Drop one of the ``refs`` (at least 2) mappings of a shared
        ``frame``; the entry goes once one mapping is left."""
        if refs == 2:
            del self._refcount[frame]
        else:
            self._refcount[frame] = refs - 1

    def _release_page(self, process: Process, vpn: int, frame: int) -> None:
        """Shoot down ``vpn``, just unmapped, and drop a reference to
        ``frame``; the last reference frees it."""
        self._notify_unmap(process.pid, vpn)
        refs = self._refcount.get(frame, 1)
        if refs > 1:
            self._drop_ref(frame, refs)
            return
        self.stats.pages_freed += 1
        if process.part is not None and self.ptemagnet is not None:
            if self.ptemagnet.free_page(
                process.part, vpn, frame, owner=process.pid
            ):
                return
        if self.pcp is not None:
            self.pcp.free_frame(process.pid, frame)
            return
        self.buddy.free(frame)

    # ------------------------------------------------------------------ #
    # Memory pressure
    # ------------------------------------------------------------------ #

    def run_reclaim(self) -> Optional[ReclaimReport]:
        """Give the reservation reclaim daemon a chance to run.

        The simulation engine calls it after each turn that ends below the
        daemon's watermark (§4.3). No-op on the default kernel.
        """
        if self.reclaimer is None:
            return None
        parts = {
            pid: process.part
            for pid, process in self.processes.items()
            if process.part is not None
        }
        report = self.reclaimer.maybe_reclaim(parts)
        if report.invoked:
            self.stats.reclaim_reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def free_fraction(self) -> float:
        """Fraction of guest physical memory currently free."""
        return self.buddy.free_fraction

    def meminfo(self) -> Dict[str, int]:
        """A /proc/meminfo-style snapshot, in pages.

        Keys: ``total``, ``free`` (buddy core), ``pcp_cached``, ``user``,
        ``page_tables``, ``reserved`` (PTEMagnet-held, unmapped),
        ``kernel``. ``user + page_tables + reserved + kernel + free +
        pcp_cached == total`` always holds (asserted by tests).
        """
        counts = {
            "total": self.memory.num_frames,
            "free": self.buddy.free_frames,
            "pcp_cached": self.pcp.cached_frames() if self.pcp else 0,
            "user": self.memory.count_in_state(FrameState.USER),
            "page_tables": self.memory.count_in_state(FrameState.PAGE_TABLE),
            "reserved": self.memory.count_in_state(FrameState.RESERVED),
            "kernel": self.memory.count_in_state(FrameState.KERNEL),
        }
        # pcp-cached frames are tagged KERNEL in the frame map; report
        # them separately, not double-counted.
        counts["kernel"] -= counts["pcp_cached"]
        return counts

    def unmapped_reserved_pages(self, process: Process) -> int:
        """Reserved-but-unmapped pages of one process (§6.2 metric)."""
        if process.part is None:
            return 0
        return process.part.unmapped_reserved_pages()
