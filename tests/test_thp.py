"""Tests for the THP baseline (§2.3) and the CA-paging baseline (§7)."""

import pytest

from repro.config import GuestConfig, MachineConfig
from repro.errors import PageTableError
from repro.invariants import check_page_table
from repro.os.fault import FaultKind
from repro.os.fork import fork
from repro.os.kernel import GuestKernel
from repro.pagetable.pte import make_pte, pte_frame
from repro.pagetable.radix import PageTable
from repro.units import MB

HUGE = PageTable.HUGE_PAGES  # 512


def make_kernel(mode="thp", memory_mb=32):
    config = GuestConfig(
        memory_bytes=memory_mb * MB,
        thp_enabled=(mode == "thp"),
        ca_paging_enabled=(mode == "ca"),
    )
    return GuestKernel(config, MachineConfig())


def aligned_vma(kernel, process, huge_ranges=2):
    """An mmap whose interior contains fully-aligned 512-page ranges."""
    vma = kernel.mmap(process, HUGE * (huge_ranges + 1))
    base = ((vma.start_vpn // HUGE) + 1) * HUGE
    return vma, base


class TestHugePageTable:
    def make_table(self):
        counter = iter(range(10_000, 20_000))
        return PageTable(lambda: next(counter))

    def test_map_huge_and_translate(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        assert table.translate(0) == 1024
        assert table.translate(5) == 1029
        assert table.translate(511) == 1024 + 511
        assert table.translate(512) is None
        assert table.mapped_pages == HUGE

    def test_map_huge_alignment_enforced(self):
        table = self.make_table()
        with pytest.raises(Exception):
            table.map_huge(5, 1024)
        with pytest.raises(Exception):
            table.map_huge(0, 1030)

    def test_walk_terminates_at_level2(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        path, pte = table.walk_path_and_pte(7)
        assert len(path) == 3  # levels 4, 3, 2 -- no leaf access
        assert pte is not None and (pte >> 12) == 1024 + 7

    def test_unmap_huge(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        assert table.unmap_huge(5) == 1024
        assert table.translate(0) is None
        assert table.mapped_pages == 0

    def test_unmap_huge_keeps_neighbouring_huge_mapping(self):
        # Both entries sit in one level-2 node that has no child nodes;
        # removing one must not free the node under the other.
        table = self.make_table()
        table.map_huge(0, 1024)
        table.map_huge(HUGE, 2048)
        table.unmap_huge(0)
        assert table.translate(HUGE + 3) == 2048 + 3
        check_page_table(table)

    def test_unmap_range_stops_at_unsplit_huge_mapping(self):
        # The range walk hands a huge mapping back still mapped; resuming
        # without splitting it is a caller bug, not an endless loop.
        table = self.make_table()
        table.map(3, 77)
        table.map_huge(HUGE, 2048)
        walk = table.unmap_range(0, 2 * HUGE)
        assert next(walk) == (3, make_pte(77))
        vpn, pte = next(walk)
        assert (vpn, pte_frame(pte)) == (HUGE, 2048)
        assert table.translate(HUGE) == 2048
        with pytest.raises(PageTableError, match="not split"):
            next(walk)

    def test_huge_mappings_iterator(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        table.map_huge(HUGE * 3, 2048)
        assert sorted(table.huge_mappings()) == [(0, 1024), (HUGE * 3, 2048)]

    def test_iter_mappings_expands_huge(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        pairs = list(table.iter_mappings())
        assert len(pairs) == HUGE
        assert pairs[0] == (0, pairs[0][1])
        assert pairs[0][1] >> 12 == 1024

    def test_double_huge_map_raises(self):
        table = self.make_table()
        table.map_huge(0, 1024)
        with pytest.raises(Exception):
            table.map_huge(0, 2048)

    def test_small_then_huge_conflict(self):
        table = self.make_table()
        table.map(3, 99)
        with pytest.raises(Exception):
            table.map_huge(0, 1024)


class TestThpFaultPath:
    def test_aligned_fault_maps_huge(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        outcome = kernel.handle_fault(p, base + 7)
        assert outcome.kind is FaultKind.THP
        assert p.rss_pages == HUGE  # internal fragmentation is visible
        assert kernel.stats.thp_faults == 1

    def test_huge_frames_contiguous(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        frames = [p.page_table.translate(base + i) for i in range(HUGE)]
        assert frames == list(range(frames[0], frames[0] + HUGE))

    def test_second_fault_in_range_is_spurious(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        outcome = kernel.handle_fault(p, base + 100)
        assert outcome.kind is FaultKind.SPURIOUS

    def test_unaligned_range_falls_back_to_4k(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)  # too small for any aligned 512 range
        outcome = kernel.handle_fault(p, vma.start_vpn)
        assert outcome.kind is FaultKind.DEFAULT

    def test_compaction_stall_on_fragmented_memory(self):
        kernel = make_kernel("thp", memory_mb=16)
        hog = kernel.create_process("hog")
        hog_vma = kernel.mmap(hog, 3900)  # nearly all of guest RAM
        # Fragment free memory: fault everything, free every other page.
        for vpn in hog_vma.pages():
            kernel.handle_fault(hog, vpn)
        for i, vpn in enumerate(hog_vma.pages()):
            if i % 2 == 0:
                kernel.munmap(hog, vpn, 1)
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        outcome = kernel.handle_fault(p, base)
        assert outcome.kind is FaultKind.THP_FALLBACK
        assert outcome.cycles > kernel.machine.compaction_stall_cycles
        assert kernel.stats.thp_fallback_faults == 1

    def test_partial_free_splits_huge(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        kernel.munmap(p, base + 10, 1)
        assert kernel.stats.thp_splits == 1
        assert p.rss_pages == HUGE - 1
        # Remaining pages keep their frames.
        assert p.page_table.translate(base + 11) is not None
        assert p.page_table.translate(base + 10) is None

    def test_fork_splits_huge_mappings(self):
        kernel = make_kernel("thp")
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        child = fork(kernel, p)
        assert kernel.stats.thp_splits == 1
        assert child.page_table.translate(base) == p.page_table.translate(base)

    def test_exit_releases_huge_memory(self):
        kernel = make_kernel("thp")
        free_at_boot = kernel.buddy.free_frames
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        kernel.exit_process(p)
        assert kernel.buddy.free_frames == free_at_boot


    def test_split_keeps_neighbouring_huge_mapping(self):
        kernel = make_kernel("thp")
        free_at_boot = kernel.buddy.free_frames
        p = kernel.create_process("app")
        _vma, base = aligned_vma(kernel, p)
        kernel.handle_fault(p, base)
        kernel.handle_fault(p, base + HUGE)
        kernel.munmap(p, base + 10, 1)  # splits the first mapping only
        assert p.page_table.translate(base + HUGE + 1) is not None
        check_page_table(p.page_table)
        kernel.exit_process(p)
        assert kernel.buddy.free_frames == free_at_boot


class TestCaPagingPath:
    def test_contiguity_extended_in_isolation(self):
        kernel = make_kernel("ca")
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 16)
        frames = [kernel.handle_fault(p, vpn).frame for vpn in vma.pages()]
        # Page-table node allocations interleave with the first data
        # frames, so the run may restart once; after that every frame
        # extends the previous one.
        assert kernel.stats.ca_contiguous_faults >= 12
        deltas = [b - a for a, b in zip(frames, frames[1:])]
        assert deltas.count(1) >= 12

    def test_contention_breaks_contiguity(self):
        kernel = make_kernel("ca")
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vma_a = kernel.mmap(a, 16)
        vma_b = kernel.mmap(b, 16)
        for vpn_a, vpn_b in zip(vma_a.pages(), vma_b.pages()):
            kernel.handle_fault(a, vpn_a)
            kernel.handle_fault(b, vpn_b)
        # Both tenants chase the same frontier; at least one loses races.
        assert kernel.stats.ca_fallback_faults >= 2

    def test_fault_kinds_reported(self):
        kernel = make_kernel("ca")
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 8)
        first = kernel.handle_fault(p, vma.start_vpn)
        assert first.kind is FaultKind.CA_FALLBACK  # nothing to extend yet
        # Later faults (after PT-node churn settles) extend contiguity.
        kinds = [
            kernel.handle_fault(p, vpn).kind
            for vpn in list(vma.pages())[1:]
        ]
        assert FaultKind.CA_CONTIGUOUS in kinds


class TestTargetedBuddyAllocation:
    def test_alloc_frame_at_free_frame(self):
        from repro.mem.buddy import BuddyAllocator
        from repro.mem.physical import PhysicalMemory

        buddy = BuddyAllocator(PhysicalMemory(64, "t"))
        assert buddy.alloc_frame_at(37)
        assert not buddy.memory.is_free(37)
        buddy.check_invariants()
        buddy.free(37)
        assert buddy.free_frames == 64
        buddy.check_invariants()

    def test_alloc_frame_at_taken_frame_fails(self):
        from repro.mem.buddy import BuddyAllocator
        from repro.mem.physical import PhysicalMemory

        buddy = BuddyAllocator(PhysicalMemory(64, "t"))
        assert buddy.alloc_frame_at(10)
        assert not buddy.alloc_frame_at(10)
        buddy.check_invariants()

    def test_alloc_frame_at_conserves_frames(self):
        from repro.mem.buddy import BuddyAllocator
        from repro.mem.physical import PhysicalMemory

        buddy = BuddyAllocator(PhysicalMemory(256, "t"))
        for frame in (0, 255, 128, 129, 64):
            assert buddy.alloc_frame_at(frame)
        assert buddy.free_frames == 256 - 5
        buddy.check_invariants()


class TestModeExclusivity:
    def test_config_rejects_multiple_modes(self):
        with pytest.raises(ValueError):
            GuestConfig(ptemagnet_enabled=True, thp_enabled=True)
        with pytest.raises(ValueError):
            GuestConfig(thp_enabled=True, ca_paging_enabled=True)

    def test_with_allocator(self):
        base = GuestConfig()
        assert base.with_allocator("thp").thp_enabled
        assert base.with_allocator("ca").ca_paging_enabled
        assert base.with_allocator("ptemagnet").ptemagnet_enabled
        default = base.with_allocator("thp").with_allocator("default")
        assert not (
            default.thp_enabled
            or default.ca_paging_enabled
            or default.ptemagnet_enabled
        )
        with pytest.raises(ValueError):
            base.with_allocator("bogus")
