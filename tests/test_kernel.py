"""Tests for the guest kernel: fault paths, frees, process lifecycle."""

import dataclasses
import random

import pytest

from repro.config import GuestConfig, MachineConfig, PlatformConfig
from repro.errors import OutOfMemoryError, SegmentationFault, SimulationError
from repro.invariants import check_kernel, check_page_table
from repro.mem.physical import FrameState
from repro.os.fault import FaultKind
from repro.os.fork import fork
from repro.os.kernel import GuestKernel
from repro.os.reclaim import SwapDaemon
from repro.pagetable.pte import pte_frame
from repro.sanitizer import ENV_FLAG
from repro.sim.engine import Simulation
from repro.units import (
    MB,
    PAGE_SIZE,
    PT_INDEX_MASK,
    PT_LEVELS,
    PTES_PER_NODE,
    RESERVATION_PAGES,
)
from repro.workloads.registry import make_benchmark


def make_kernel(ptemagnet=False, memory_mb=32, **kwargs):
    config = GuestConfig(
        memory_bytes=memory_mb * MB, ptemagnet_enabled=ptemagnet, **kwargs
    )
    return GuestKernel(config, MachineConfig())


class TestProcessLifecycle:
    def test_create_process(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        assert p.pid in kernel.processes
        assert p.part is None  # default kernel: no PaRT

    def test_ptemagnet_process_gets_part(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        assert p.part is not None

    def test_exit_releases_everything(self):
        kernel = make_kernel()
        free_at_boot = kernel.buddy.free_frames
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 100)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        kernel.exit_process(p)
        assert kernel.buddy.free_frames == free_at_boot
        assert p.pid not in kernel.processes

    def test_exit_ptemagnet_process_releases_reservations(self):
        kernel = make_kernel(ptemagnet=True)
        free_at_boot = kernel.buddy.free_frames
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)
        kernel.handle_fault(p, vma.start_vpn)  # 1 mapped, 7 reserved
        kernel.exit_process(p)
        assert kernel.buddy.free_frames == free_at_boot

    def test_exit_frees_reservation_of_pages_shared_with_a_child(self):
        # The parent's shared pages outlive its exit, so the group's
        # reservation is still live when exit_process reaches it: only
        # exit's own loop can return its 5 unmapped frames.
        kernel = make_kernel(ptemagnet=True)
        free_at_boot = kernel.meminfo()["free"]
        parent = kernel.create_process("parent")
        vma = kernel.mmap(parent, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        for vpn in range(base, base + 3):
            kernel.handle_fault(parent, vpn)
        child = fork(kernel, parent)
        kernel.exit_process(parent)
        kernel.exit_process(child)
        meminfo = kernel.meminfo()
        assert meminfo["reserved"] == 0
        assert meminfo["free"] == free_at_boot

    def test_double_exit_raises(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        kernel.exit_process(p)
        with pytest.raises(SimulationError):
            kernel.exit_process(p)


class TestDefaultFaultPath:
    def test_fault_maps_one_page(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 10)
        outcome = kernel.handle_fault(p, vma.start_vpn)
        assert outcome.kind is FaultKind.DEFAULT
        assert p.page_table.translate(vma.start_vpn) == outcome.frame
        assert p.rss_pages == 1

    def test_fault_outside_vma_segfaults(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        with pytest.raises(SegmentationFault):
            kernel.handle_fault(p, 0xDEAD)

    def test_refault_is_spurious(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 1)
        first = kernel.handle_fault(p, vma.start_vpn)
        second = kernel.handle_fault(p, vma.start_vpn)
        assert second.kind is FaultKind.SPURIOUS
        assert second.frame == first.frame
        assert second.cycles == 0

    def test_fault_cycles_charged(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 1)
        outcome = kernel.handle_fault(p, vma.start_vpn)
        machine = kernel.machine
        assert outcome.cycles == (
            machine.page_fault_cycles + machine.buddy_call_cycles
        )


class TestPTEMagnetFaultPath:
    def test_first_fault_creates_reservation(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)
        outcome = kernel.handle_fault(p, vma.start_vpn)
        assert outcome.kind is FaultKind.RESERVATION_NEW
        assert len(p.part) == 1
        reservation = next(p.part.iter_reservations())
        assert reservation.mapped_count == 1
        assert reservation.unmapped_count == 7

    def test_group_faults_hit_reservation(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)
        base = vma.start_vpn - (vma.start_vpn % RESERVATION_PAGES)
        first = kernel.handle_fault(p, vma.start_vpn)
        # Remaining pages of the group are served from the reservation.
        hits = 0
        for vpn in range(base, base + RESERVATION_PAGES):
            if vpn == vma.start_vpn or not vma.contains(vpn):
                continue
            outcome = kernel.handle_fault(p, vpn)
            assert outcome.kind is FaultKind.RESERVATION_HIT
            hits += 1
        assert hits > 0

    def test_group_frames_are_contiguous(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        # Use a group fully inside the VMA.
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        frames = [
            kernel.handle_fault(p, base + i).frame
            for i in range(RESERVATION_PAGES)
        ]
        assert frames == list(range(frames[0], frames[0] + RESERVATION_PAGES))
        assert frames[0] % RESERVATION_PAGES == 0

    @pytest.mark.parametrize("order", [2, 4])
    def test_group_frames_are_contiguous_at_other_orders(self, order):
        """Away from the paper's order 3, each group still maps onto one
        run of ``2**order`` frames aligned to its size."""
        pages = 1 << order
        kernel = make_kernel(ptemagnet=True, ptemagnet_reservation_order=order)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, pages * 4)
        first = -(-vma.start_vpn // pages) * pages  # first whole group
        for base in range(first, first + 3 * pages, pages):
            frames = [kernel.handle_fault(p, base + i).frame for i in range(pages)]
            assert frames == list(range(frames[0], frames[0] + pages))
            assert frames[0] % pages == 0
        check_kernel(kernel)

    def test_full_group_deletes_part_entry(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        for i in range(RESERVATION_PAGES):
            kernel.handle_fault(p, base + i)
        from repro.units import reservation_group

        assert p.part.lookup(reservation_group(base)) is None

    def test_reserved_frames_tagged(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)
        outcome = kernel.handle_fault(p, vma.start_vpn)
        reservation = next(p.part.iter_reservations())
        for frame in reservation.unmapped_frames():
            assert kernel.memory.state_of(frame) is FrameState.RESERVED
        assert kernel.memory.state_of(outcome.frame) is FrameState.USER

    def test_cgroup_gating(self):
        kernel = make_kernel(
            ptemagnet=True, ptemagnet_memory_limit_bytes=16 * MB
        )
        small = kernel.create_process("small", memory_limit_bytes=1 * MB)
        big = kernel.create_process("big", memory_limit_bytes=64 * MB)
        assert small.part is None
        assert big.part is not None
        # The gated-out process falls back to the default path.
        vma = kernel.mmap(small, 8)
        outcome = kernel.handle_fault(small, vma.start_vpn)
        assert outcome.kind is FaultKind.DEFAULT


class TestFree:
    def test_munmap_returns_frames(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 16)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        free_before = kernel.buddy.free_frames
        released = kernel.munmap(p, vma.start_vpn, 16)
        assert released == 16
        assert kernel.buddy.free_frames > free_before
        assert p.rss_pages == 0

    def test_munmap_unfaulted_pages_release_nothing(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 16)
        assert kernel.munmap(p, vma.start_vpn, 16) == 0

    def test_free_all_of_group_deletes_reservation(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        kernel.handle_fault(p, base)
        free_before = kernel.buddy.free_frames
        kernel.munmap(p, base, 1)  # frees the only mapped page
        # Reservation deleted: all 8 frames returned (plus any PT node
        # frames pruned by the unmap).
        assert kernel.buddy.free_frames >= free_before + RESERVATION_PAGES
        assert len(p.part) == 0

    def test_partial_free_keeps_reservation(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        kernel.handle_fault(p, base)
        kernel.handle_fault(p, base + 1)
        kernel.munmap(p, base, 1)
        assert len(p.part) == 1
        reservation = next(p.part.iter_reservations())
        assert reservation.mapped_count == 1

    def test_partial_free_returns_frame_to_reservation(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        kernel.handle_fault(p, base)
        kernel.handle_fault(p, base + 1)
        kernel.munmap(p, base, 1)
        meminfo = kernel.meminfo()
        assert (meminfo["user"], meminfo["reserved"]) == (1, RESERVATION_PAGES - 1)

    def test_refault_after_partial_free_reuses_reserved_frame(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        first = kernel.handle_fault(p, base)
        kernel.handle_fault(p, base + 1)
        kernel.munmap(p, base, 1)
        # A later fault elsewhere in the group is served from the same
        # reservation, preserving contiguity.
        refault = kernel.handle_fault(p, base + 2)
        assert refault.frame == first.frame + 2


class TestStats:
    def test_fault_kind_counters(self):
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        for i in range(RESERVATION_PAGES):
            kernel.handle_fault(p, base + i)
        assert kernel.stats.reservation_new_faults == 1
        assert kernel.stats.reservation_hit_faults == RESERVATION_PAGES - 1
        assert kernel.stats.faults == RESERVATION_PAGES


def assert_no_orphans(kernel, process):
    """No USER frame lacks a PTE, and no PaRT slot marked mapped lacks
    the PTE that maps it to its frame."""
    page_table = process.page_table
    mapped = {pte_frame(pte) for _vpn, pte in page_table.iter_mappings()}
    assert set(kernel.memory.frames_in_state(FrameState.USER)) == mapped
    if process.part is not None:
        for reservation in process.part.iter_reservations():
            for slot in reservation.mapped_slots():
                vpn = reservation.group * RESERVATION_PAGES + slot
                assert page_table.translate(vpn) == reservation.base_frame + slot
    check_kernel(kernel)


def part_counters(part):
    """A PaRT's lookups and hits, with the lock count of every node and
    the lock count, slot mask and ``ever_mapped`` of every reservation,
    each keyed by its radix path."""
    counts = []
    stack = [((), part.root)]
    while stack:
        path, node = stack.pop()
        counts.append((path, node.lock.acquisitions))
        if node.is_leaf:
            for index, entry in node.entries.items():
                counts.append((
                    path + (index,),
                    entry.lock.acquisitions,
                    entry.mask,
                    entry.ever_mapped,
                ))
        else:
            stack.extend(
                (path + (index,), child)
                for index, child in node.children.items()
            )
    return part.lookups, part.lookup_hits, sorted(counts)


def fault_counters(kernel, *processes):
    """Every count a fault makes: the kernel's stats and each process's
    reservation hits, the PTEMagnet allocator's stats, and each PaRT's
    counters."""
    stats = dataclasses.asdict(kernel.stats)
    stats["fault_latencies"] = kernel.stats.fault_latencies.count
    stats["reservation_hits"] = [p.reservation_hits for p in processes]
    allocator = (
        None
        if kernel.ptemagnet is None
        else dataclasses.asdict(kernel.ptemagnet.stats)
    )
    parts = [part_counters(p.part) for p in processes if p.part is not None]
    return stats, allocator, parts


def hold_free_frames(kernel, keep=0):
    """Allocate every free frame but ``keep``; returns the held frames."""
    return [
        kernel.buddy.alloc_frame(state=FrameState.KERNEL)
        for _ in range(kernel.buddy.free_frames - keep)
    ]


def fault_short_of_a_leaf(kind):
    """A kernel, its processes, a vpn and the frames held from the buddy
    allocator such that the vpn's fault, of ``kind``, gets its frame but
    none for the leaf node the vpn needs."""
    options = {
        FaultKind.RESERVATION_NEW: {"ptemagnet": True},
        FaultKind.RESERVATION_HIT: {"ptemagnet": True},
        FaultKind.FALLBACK: {"ptemagnet": True},
        FaultKind.CA_CONTIGUOUS: {"ca_paging_enabled": True},
        FaultKind.CA_FALLBACK: {"ca_paging_enabled": True},
        FaultKind.THP_FALLBACK: {"thp_enabled": True},
    }.get(kind, {})
    kernel = make_kernel(memory_mb=1, **options)
    p = kernel.create_process("app")
    vma = kernel.mmap(p, 3 * PTES_PER_NODE)
    base = (vma.start_vpn | PT_INDEX_MASK) + 1  # the next leaf's first page
    if kind is FaultKind.RESERVATION_HIT:
        # The child's fault hits the parent's reservation (§4.4), in a
        # range whose page-table nodes the child unmapped.
        kernel.handle_fault(p, base)
        child = fork(kernel, p)
        kernel.munmap(child, base, 1)
        return kernel, (child, p), base + 1, hold_free_frames(kernel)
    for vpn in range(base - RESERVATION_PAGES, base):
        kernel.handle_fault(p, vpn)
    if kind is FaultKind.CA_CONTIGUOUS:
        # Only the frame after the previous page's is left.
        target = p.page_table.translate(base - 1) + 1
        held = hold_free_frames(kernel)
        held.remove(target)
        kernel.buddy.free(target)
        return kernel, (p,), base, held
    keep = RESERVATION_PAGES if kind is FaultKind.RESERVATION_NEW else 1
    if kind is FaultKind.CA_FALLBACK:
        base += 1  # the previous page is unmapped
    return kernel, (p,), base, hold_free_frames(kernel, keep)


class TestFaultOutOfMemory:
    """A fault that runs out of guest memory names itself and leaks
    nothing."""

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("ptemagnet", [False, True])
    @pytest.mark.parametrize("short_of", ["frame", "leaf"])
    def test_fault_out_of_memory_leaks_nothing(
        self, monkeypatch, short_of, ptemagnet, sanitize
    ):
        # Short of a leaf, the fault gets its data frame(s) and then finds
        # no frame for the new leaf node its vpn needs; that frame, never
        # mapped, must go back.
        if sanitize:
            monkeypatch.setenv(ENV_FLAG, "1")
        else:
            monkeypatch.delenv(ENV_FLAG, raising=False)
        kernel = make_kernel(ptemagnet=ptemagnet, memory_mb=1)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 2 * PTES_PER_NODE)
        kernel.handle_fault(p, vma.start_vpn)
        data = RESERVATION_PAGES if ptemagnet else 1
        left = data if short_of == "leaf" else 0
        held = [
            kernel.buddy.alloc_frame(state=FrameState.KERNEL)
            for _ in range(kernel.buddy.free_frames - left)
        ]
        vpn = vma.start_vpn + PTES_PER_NODE  # in the next leaf node
        name = "PTEMagnet" if ptemagnet else "default"
        before = fault_counters(kernel, p)
        with pytest.raises(
            OutOfMemoryError,
            match=rf"pid {p.pid}: fault at vpn {vpn:#x} on the {name} kernel",
        ):
            kernel.handle_fault(p, vpn)
        assert fault_counters(kernel, p) == before
        if ptemagnet and short_of == "leaf":
            assert kernel.ptemagnet.stats.reservations_created == 1
        assert p.page_table.translate(vpn) is None
        assert kernel.buddy.free_frames == left
        assert_no_orphans(kernel, p)
        for frame in held:
            kernel.buddy.free(frame)
        outcome = kernel.handle_fault(p, vpn)
        assert p.page_table.translate(vpn) == outcome.frame
        assert_no_orphans(kernel, p)
        kernel.exit_process(p)

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.DEFAULT,
            FaultKind.RESERVATION_NEW,
            FaultKind.RESERVATION_HIT,
            FaultKind.FALLBACK,
            FaultKind.CA_CONTIGUOUS,
            FaultKind.CA_FALLBACK,
            FaultKind.THP_FALLBACK,
        ],
    )
    def test_failed_fault_counts_nothing(self, kind):
        kernel, processes, vpn, held = fault_short_of_a_leaf(kind)
        before = fault_counters(kernel, *processes)
        with pytest.raises(OutOfMemoryError, match=f"fault at vpn {vpn:#x}"):
            kernel.handle_fault(processes[0], vpn)
        assert fault_counters(kernel, *processes) == before
        check_kernel(kernel)
        # With frames for the page-table nodes, the same fault maps and
        # counts once.
        for frame in held[-PT_LEVELS:]:
            kernel.buddy.free(frame)
        assert kernel.handle_fault(processes[0], vpn).kind is kind
        stats, old = fault_counters(kernel, *processes)[0], before[0]
        counter = f"{kind.value}_faults"
        assert stats["faults"] == old["faults"] + 1
        assert stats[counter] == old[counter] + 1

    def test_failed_child_fault_takes_back_its_parent_lookup(self):
        # The child's fault finds the parent's reservation with the slot
        # still mapped by the parent (§4.4), so it creates its own; the
        # parent's PaRT lookup and hit are taken back with the rest.
        kernel = make_kernel(ptemagnet=True, memory_mb=1)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 3 * PTES_PER_NODE)
        base = (vma.start_vpn | PT_INDEX_MASK) + 1
        kernel.handle_fault(p, base)
        child = fork(kernel, p)
        kernel._free_page(child, base)  # the parent keeps its mapping
        held = hold_free_frames(kernel, RESERVATION_PAGES)
        before = fault_counters(kernel, child, p)
        hits = p.part.lookup_hits
        with pytest.raises(OutOfMemoryError, match=f"fault at vpn {base:#x}"):
            kernel.handle_fault(child, base)
        assert fault_counters(kernel, child, p) == before
        check_kernel(kernel)
        for frame in held[-PT_LEVELS:]:
            kernel.buddy.free(frame)
        outcome = kernel.handle_fault(child, base)
        assert outcome.kind is FaultKind.RESERVATION_NEW
        assert p.part.lookup_hits == hits + 1  # the parent's PaRT hit

    def test_huge_mapping_without_node_frames_frees_its_block(self):
        kernel = make_kernel(memory_mb=4, thp_enabled=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 3 * PTES_PER_NODE)
        base = -(-vma.start_vpn // PTES_PER_NODE) * PTES_PER_NODE
        # Hold every free frame outside one order-9 block, so the huge
        # block comes but no frame is left for its level-3 and -2 nodes.
        held = [
            kernel.buddy.alloc_frame(state=FrameState.KERNEL)
            for _ in range(kernel.buddy.free_frames - PTES_PER_NODE)
        ]
        assert kernel.buddy.free_blocks(9) == 1
        with pytest.raises(
            OutOfMemoryError, match=rf"fault at vpn {base:#x} on the default"
        ):
            kernel.handle_fault(p, base)
        assert kernel.buddy.free_blocks(9) == 1
        assert p.page_table.translate(base) is None
        assert_no_orphans(kernel, p)
        for frame in held:
            kernel.buddy.free(frame)
        assert kernel.handle_fault(p, base).kind is FaultKind.THP

    @pytest.mark.parametrize("ptemagnet", [False, True])
    def test_simulation_out_of_memory_names_the_fault(self, ptemagnet):
        platform = PlatformConfig().with_ptemagnet(ptemagnet)
        guest = dataclasses.replace(platform.guest, memory_bytes=200 * PAGE_SIZE)
        sim = Simulation(dataclasses.replace(platform, guest=guest))
        run = sim.add_workload(make_benchmark("pagerank", 0))
        name = "PTEMagnet" if ptemagnet else "default"
        with pytest.raises(
            OutOfMemoryError,
            match=rf"guest: pid {run.process.pid}: fault at vpn 0x[0-9a-f]+ "
            rf"on the {name} kernel: guest: no free block of order >= 0",
        ):
            sim.run_until_finished(run)
        assert_no_orphans(sim.kernel, run.process)

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("mapped", [1, RESERVATION_PAGES - 1])
    def test_cancelled_hit_returns_its_frame(self, monkeypatch, mapped, sanitize):
        # A hit on a reservation with one slot left completes it and its
        # PaRT entry goes, so the cancelled frame is freed on its own;
        # otherwise the slot rejoins the reservation.
        if sanitize:
            monkeypatch.setenv(ENV_FLAG, "1")
        else:
            monkeypatch.delenv(ENV_FLAG, raising=False)
        kernel = make_kernel(ptemagnet=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, RESERVATION_PAGES * 2)
        base = -(-vma.start_vpn // RESERVATION_PAGES) * RESERVATION_PAGES
        for vpn in range(base, base + mapped):
            kernel.handle_fault(p, vpn)
        free = kernel.buddy.free_frames
        before = fault_counters(kernel, p)
        result = kernel.ptemagnet.fault(p.part, base + mapped, p.pid)
        assert result.from_reservation
        kernel.ptemagnet.cancel_fault(p.part, base + mapped, result)
        completed = mapped == RESERVATION_PAGES - 1
        # Every count is taken back. A completed reservation has left the
        # PaRT, and the lock counts of its entry and nodes with it.
        after = fault_counters(kernel, p)
        assert after[:2] == before[:2]
        assert after[2][0][:2] == before[2][0][:2]  # lookups and hits
        assert completed or after == before
        assert len(p.part) == (0 if completed else 1)
        assert kernel.buddy.free_frames == free + completed
        state = FrameState.FREE if completed else FrameState.RESERVED
        assert kernel.memory.state_of(result.frame) is state
        assert_no_orphans(kernel, p)
        refault = kernel.handle_fault(p, base + mapped)
        if not completed:
            assert refault.frame == result.frame
        kernel.exit_process(p)


def watch_shootdowns(kernel):
    """Every ``(pid, vpn)`` the kernel shoots down from now on."""
    seen = []
    kernel.add_unmap_observer(lambda pid, vpn: seen.append((pid, vpn)))
    return seen


class TestShootdowns:
    """One test per ``_notify_unmap`` call site: each fails when its call
    is deleted, since no other site fires in the scenario."""

    def test_munmap_shoots_down_each_freed_page(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 8)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        seen = watch_shootdowns(kernel)
        kernel.munmap(p, vma.start_vpn + 2, 3)
        assert seen == [(p.pid, vma.start_vpn + page) for page in (2, 3, 4)]

    def test_swap_eviction_shoots_down_the_evicted_page(self):
        kernel = make_kernel()
        daemon = SwapDaemon(kernel, floor=1.0, rng=random.Random(3))
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 8)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        seen = watch_shootdowns(kernel)
        assert daemon.maybe_evict(batch_pages=1).pages_evicted == 1
        assert seen == [(p.pid, vma.start_vpn)]

    def test_cow_break_by_sole_owner_shoots_down(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 4)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        kernel.exit_process(fork(kernel, p))  # p owns its COW pages alone
        seen = watch_shootdowns(kernel)
        outcome = kernel.handle_fault(p, vma.start_vpn + 1, write=True)
        assert outcome.kind is FaultKind.SPURIOUS
        assert seen == [(p.pid, vma.start_vpn + 1)]

    def test_cow_break_by_copy_shoots_down(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 4)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        child = fork(kernel, p)
        seen = watch_shootdowns(kernel)
        outcome = kernel.handle_fault(child, vma.start_vpn + 1, write=True)
        assert outcome.kind is FaultKind.COW
        assert seen == [(child.pid, vma.start_vpn + 1)]

    def test_split_huge_shoots_down_every_covered_page(self):
        kernel = make_kernel(thp_enabled=True)
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 2 * PTES_PER_NODE)
        assert kernel.handle_fault(p, vma.start_vpn).kind is FaultKind.THP
        seen = watch_shootdowns(kernel)
        kernel.split_huge(p, vma.start_vpn + 7)
        assert seen == [
            (p.pid, vma.start_vpn + page) for page in range(PTES_PER_NODE)
        ]

    def test_fork_shoots_down_each_page_it_marks_cow(self):
        kernel = make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 4)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        seen = watch_shootdowns(kernel)
        fork(kernel, p)
        assert seen == [(p.pid, vpn) for vpn in vma.pages()]


def reference_munmap(kernel, process, start_vpn, npages):
    """The per-page teardown the range walk replaced: probe every page of
    each removed fragment and free the mapped ones one at a time."""
    released = 0
    for fragment in process.address_space.munmap(start_vpn, npages):
        for vpn in fragment.pages():
            if process.page_table.is_mapped(vpn):
                kernel._free_page(process, vpn)
                released += 1
    return released


class Twin:
    """One of two identical kernels, logging its frees and shootdowns."""

    def __init__(self, setup, **config):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(ENV_FLAG, "1")
            self.kernel = make_kernel(**config)
        buddy = self.kernel.buddy
        self.frees = []
        free = buddy.free

        def logged_free(base):
            self.frees.append(base)
            free(base)

        # Bound before any page table captures buddy.free as its releaser.
        buddy.free = logged_free
        self.shootdowns = []
        self.kernel.add_unmap_observer(
            lambda pid, vpn: self.shootdowns.append((pid, vpn))
        )
        self.processes = setup(self.kernel)
        self.bases = [
            next(iter(process.address_space)).start_vpn
            for process in self.processes
        ]
        self.frees.clear()
        self.shootdowns.clear()


def assert_same_teardown(setup, unmaps, exit_pids=(), **config):
    """Run ``unmaps`` -- ``(process index, offset from the process' first
    VMA at setup, npages)`` -- through munmap on one twin and the per-page
    reference on the other, then exit ``exit_pids`` on both; everything
    observable must match."""
    ranged, reference = Twin(setup, **config), Twin(setup, **config)
    reference.kernel.munmap = lambda process, start, npages: (
        reference_munmap(reference.kernel, process, start, npages)
    )
    for index, offset, npages in unmaps:
        results = []
        for twin in (ranged, reference):
            start = twin.bases[index] + offset
            results.append(
                twin.kernel.munmap(twin.processes[index], start, npages)
            )
        assert results[0] == results[1]
    for index in exit_pids:
        for twin in (ranged, reference):
            twin.kernel.exit_process(twin.processes[index])
    assert ranged.frees, "the teardown freed nothing: vacuous case"
    assert ranged.frees == reference.frees
    assert ranged.shootdowns == reference.shootdowns
    assert ranged.kernel.meminfo() == reference.kernel.meminfo()
    for mine, theirs in zip(ranged.processes, reference.processes):
        assert mine.page_table.node_count == theirs.page_table.node_count
        assert mine.page_table.mapped_pages == theirs.page_table.mapped_pages
        if mine.alive:
            check_page_table(mine.page_table)
    for twin in (ranged, reference):
        assert twin.kernel.sanitizer.violations == 0


def faulted(npages, pages):
    """Setup: one process, one VMA of ``npages``, ``pages`` faulted in."""

    def setup(kernel):
        process = kernel.create_process("app")
        vma = kernel.mmap(process, npages)
        for page in pages:
            kernel.handle_fault(process, vma.start_vpn + page)
        return [process]

    return setup


class TestRangeTeardown:
    """munmap's one-pass range walk against today's per-page loop."""

    def test_ranges_with_holes(self):
        pages = [p for p in range(2000) if p % 3 and not 600 <= p < 1200]
        assert_same_teardown(
            faulted(2000, pages), [(0, 10, 1500), (0, 0, 2000)]
        )

    def test_range_starts_and_ends_mid_leaf(self):
        assert_same_teardown(
            faulted(1024, range(1024)), [(0, 100, 300), (0, 700, 5)]
        )

    def test_range_spans_leaf_and_level2_boundaries(self):
        # The mmap base is 1GB-aligned, so offset PTES_PER_NODE**2 is the
        # first page of the next level-2 node.
        boundary = PTES_PER_NODE * PTES_PER_NODE
        pages = range(boundary - 700, boundary + 700, 2)
        assert_same_teardown(
            faulted(boundary + 1024, pages),
            [(0, boundary - 600, 1000), (0, 0, boundary + 1024)],
        )

    def test_thp_mapping_partly_in_range(self):
        # Two huge mappings; the first range cuts the tail of one and the
        # head of the other, so the walk splits both on its way.
        assert_same_teardown(
            faulted(4 * PTES_PER_NODE, [0, PTES_PER_NODE, 3 * PTES_PER_NODE]),
            [(0, 100, PTES_PER_NODE), (0, 3 * PTES_PER_NODE - 8, 16)],
            thp_enabled=True,
        )

    def test_cow_shared_pages_after_fork(self):
        def setup(kernel):
            (parent,) = faulted(64, range(48))(kernel)
            child = fork(kernel, parent)
            start = next(iter(child.address_space)).start_vpn
            for page in (3, 4, 40):  # private copies in the child
                kernel.handle_fault(child, start + page, write=True)
            return [parent, child]

        assert_same_teardown(setup, [(0, 2, 40), (1, 0, 64), (0, 0, 64)])

    def test_ptemagnet_process_with_live_reservations(self):
        pages = [p for p in range(256) if p % RESERVATION_PAGES in (0, 5)]
        assert_same_teardown(
            faulted(256, pages),
            [(0, 3, 37), (0, 100, 60)],
            exit_pids=(0,),
            ptemagnet=True,
        )
