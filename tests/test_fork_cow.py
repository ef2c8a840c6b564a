"""Tests for fork(), copy-on-write, and the PTEMagnet fork rules (§4.4)."""

import pytest

from repro.config import GuestConfig, MachineConfig
from repro.os.fault import FaultKind
from repro.os.fork import fork
from repro.os.kernel import GuestKernel
from repro.pagetable.pte import PteFlags, pte_flags
from repro.units import MB, RESERVATION_PAGES


def make_kernel(ptemagnet=False):
    return GuestKernel(
        GuestConfig(memory_bytes=32 * MB, ptemagnet_enabled=ptemagnet),
        MachineConfig(),
    )


def parent_with_pages(kernel, npages=8):
    parent = kernel.create_process("parent")
    vma = kernel.mmap(parent, npages)
    for vpn in vma.pages():
        kernel.handle_fault(parent, vpn)
    return parent, vma


class TestFork:
    def test_child_shares_frames(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        for vpn in vma.pages():
            assert child.page_table.translate(vpn) == parent.page_table.translate(vpn)

    def test_both_sides_marked_cow(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        for proc in (parent, child):
            pte = proc.page_table.lookup(vma.start_vpn)
            assert pte_flags(pte) & PteFlags.COW

    def test_child_registered(self):
        kernel = make_kernel()
        parent, _vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        assert child.parent is parent
        assert child in parent.children
        assert child.pid in kernel.processes

    def test_child_address_space_independent(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        kernel.mmap(child, 4)
        assert child.address_space.total_pages == parent.address_space.total_pages + 4


class TestCow:
    def test_read_fault_keeps_sharing(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        outcome = kernel.handle_fault(child, vma.start_vpn, write=False)
        assert outcome.kind is FaultKind.SPURIOUS
        assert child.page_table.translate(vma.start_vpn) == parent.page_table.translate(vma.start_vpn)

    def test_write_fault_copies(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        shared = parent.page_table.translate(vma.start_vpn)
        outcome = kernel.handle_fault(child, vma.start_vpn, write=True)
        assert outcome.kind is FaultKind.COW
        assert outcome.frame != shared
        assert parent.page_table.translate(vma.start_vpn) == shared
        assert kernel.stats.cow_faults == 1

    def test_sole_owner_write_drops_cow_without_copy(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        shared = parent.page_table.translate(vma.start_vpn)
        kernel.handle_fault(child, vma.start_vpn, write=True)  # child copies
        # Parent is now sole owner: write should not copy again.
        outcome = kernel.handle_fault(parent, vma.start_vpn, write=True)
        assert outcome.kind is FaultKind.SPURIOUS
        assert parent.page_table.translate(vma.start_vpn) == shared
        assert not pte_flags(parent.page_table.lookup(vma.start_vpn)) & PteFlags.COW

    def test_refcounts_released_on_teardown(self):
        kernel = make_kernel()
        free_at_boot = kernel.buddy.free_frames
        parent, vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        kernel.handle_fault(child, vma.start_vpn, write=True)
        kernel.exit_process(child)
        kernel.exit_process(parent)
        assert kernel.buddy.free_frames == free_at_boot


class TestRefcounts:
    """Only shared frames have a refcount entry; a frame without one has
    exactly one mapping."""

    def test_faults_store_no_refcount(self):
        kernel = make_kernel()
        parent_with_pages(kernel, npages=16)
        assert kernel._refcount == {}

    def test_fork_adds_an_entry_of_two_per_mapped_page(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel, npages=16)
        fork(kernel, parent)
        frames = {parent.page_table.translate(vpn) for vpn in vma.pages()}
        assert kernel._refcount == dict.fromkeys(frames, 2)

    def test_cow_breaks_in_both_processes_empty_the_table(self):
        kernel = make_kernel()
        parent, vma = parent_with_pages(kernel, npages=16)
        child = fork(kernel, parent)
        for vpn in vma.pages():
            assert kernel.handle_fault(child, vpn, write=True).kind is FaultKind.COW
        assert kernel._refcount == {}
        for vpn in vma.pages():
            outcome = kernel.handle_fault(parent, vpn, write=True)
            assert outcome.kind is FaultKind.SPURIOUS
        assert kernel._refcount == {}

    def test_child_exit_drops_shared_entries(self):
        kernel = make_kernel()
        parent, _vma = parent_with_pages(kernel, npages=16)
        child = fork(kernel, parent)
        kernel.exit_process(child)
        assert kernel._refcount == {}


class TestForkWithPTEMagnet:
    def test_child_gets_own_part(self):
        kernel = make_kernel(ptemagnet=True)
        parent, _vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        assert child.part is not None
        assert child.part is not parent.part

    def test_child_consumes_parent_reservation(self):
        """§4.4: unallocated pages of a parent reservation go to the child."""
        kernel = make_kernel(ptemagnet=True)
        parent = kernel.create_process("parent")
        vma = kernel.mmap(parent, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        first = kernel.handle_fault(parent, base)  # reserves the group
        child = fork(kernel, parent)
        outcome = kernel.handle_fault(child, base + 1)
        assert outcome.kind is FaultKind.RESERVATION_HIT
        assert outcome.frame == first.frame + 1
        assert kernel.ptemagnet.stats.parent_reservation_hits == 1

    def test_taken_parent_slot_is_not_a_parent_hit(self):
        """A child fault that finds the parent's entry with its slot
        taken creates its own reservation; the parent served nothing."""
        kernel = make_kernel(ptemagnet=True)
        parent = kernel.create_process("parent")
        vma = kernel.mmap(parent, RESERVATION_PAGES * 2)
        base = ((vma.start_vpn // RESERVATION_PAGES) + 1) * RESERVATION_PAGES
        kernel.handle_fault(parent, base)  # reserves the group
        child = fork(kernel, parent)
        kernel._free_page(child, base)  # the swap daemon's path
        outcome = kernel.handle_fault(child, base)
        assert outcome.kind is FaultKind.RESERVATION_NEW
        stats = kernel.ptemagnet.stats
        assert stats.reservation_hits == 0
        assert stats.parent_reservation_hits == 0

    def test_child_new_memory_reserves_in_own_part(self):
        kernel = make_kernel(ptemagnet=True)
        parent, _vma = parent_with_pages(kernel)
        child = fork(kernel, parent)
        child_vma = kernel.mmap(child, RESERVATION_PAGES * 2)
        base = (
            (child_vma.start_vpn // RESERVATION_PAGES) + 1
        ) * RESERVATION_PAGES
        kernel.handle_fault(child, base)
        assert len(child.part) == 1
        # Parent's PaRT unchanged by the child's new reservation.
        groups = {r.group for r in parent.part.iter_reservations()}
        assert base // RESERVATION_PAGES not in groups

    def test_cow_copy_is_not_reserved(self):
        """§4.4: PTEMagnet does not enhance contiguity among COW copies."""
        kernel = make_kernel(ptemagnet=True)
        parent, vma = parent_with_pages(kernel, RESERVATION_PAGES)
        child = fork(kernel, parent)
        entries_before = len(child.part)
        outcome = kernel.handle_fault(child, vma.start_vpn, write=True)
        assert outcome.kind is FaultKind.COW
        assert len(child.part) == entries_before
