"""Tests for the per-CPU page caches."""

import dataclasses

import pytest

from repro.config import GuestConfig, MachineConfig
from repro.errors import OutOfMemoryError
from repro.mem.buddy import BuddyAllocator
from repro.mem.pcp import PerCpuPageCache
from repro.mem.physical import FrameState, PhysicalMemory
from repro.os.kernel import GuestKernel
from repro.units import MB


def make_pcp(frames=1024, cpus=4, batch=8, high=16):
    buddy = BuddyAllocator(PhysicalMemory(frames, "t"))
    return buddy, PerCpuPageCache(buddy, cpus=cpus, batch=batch, high=high)


class TestPcpBasics:
    def test_validation(self):
        buddy = BuddyAllocator(PhysicalMemory(64, "t"))
        with pytest.raises(ValueError):
            PerCpuPageCache(buddy, cpus=0)
        with pytest.raises(ValueError):
            PerCpuPageCache(buddy, cpus=2, batch=8, high=4)

    def test_first_alloc_refills_batch(self):
        buddy, pcp = make_pcp(batch=8)
        pcp.alloc_frame(0)
        assert pcp.stats.refills == 1
        assert pcp.cached_frames(0) == 7
        # Buddy sees batch pages gone (one handed out, 7 cached).
        assert buddy.free_frames == 1024 - 8

    def test_subsequent_allocs_hit_cache(self):
        _buddy, pcp = make_pcp(batch=8)
        pcp.alloc_frame(0)
        for _ in range(7):
            pcp.alloc_frame(0)
        assert pcp.stats.hits == 7
        assert pcp.stats.refills == 1

    def test_batch_frames_are_contiguous_when_memory_fresh(self):
        _buddy, pcp = make_pcp(batch=8)
        frames = [pcp.alloc_frame(0) for _ in range(8)]
        # A fresh buddy serves the refill from one split block: the batch
        # is a contiguous run (LIFO pop reverses it).
        assert sorted(frames) == list(range(min(frames), min(frames) + 8))

    def test_cpus_have_independent_lists(self):
        _buddy, pcp = make_pcp(batch=8)
        pcp.alloc_frame(0)
        assert pcp.cached_frames(0) == 7
        assert pcp.cached_frames(1) == 0
        pcp.alloc_frame(1)
        assert pcp.cached_frames(1) == 7

    def test_free_caches_then_drains(self):
        buddy, pcp = make_pcp(batch=4, high=6)
        frames = [pcp.alloc_frame(0) for _ in range(8)]
        for frame in frames[:6]:
            pcp.free_frame(0, frame)
        assert pcp.stats.drains == 0
        pcp.free_frame(0, frames[6])  # crosses high watermark (7 > 6)
        assert pcp.stats.drains == 1
        buddy.check_invariants()

    def test_drain_all_restores_buddy(self):
        buddy, pcp = make_pcp(batch=8)
        frames = [pcp.alloc_frame(0) for _ in range(3)]
        for frame in frames:
            pcp.free_frame(0, frame)
        pcp.drain_all()
        assert buddy.free_frames == 1024
        buddy.check_invariants()

    def test_oom_propagates(self):
        buddy, pcp = make_pcp(frames=16, batch=8)
        allocated = []
        with pytest.raises(OutOfMemoryError):
            for _ in range(32):
                allocated.append(pcp.alloc_frame(0))

    def test_free_frames_total(self):
        buddy, pcp = make_pcp(batch=8)
        pcp.alloc_frame(0)
        assert pcp.free_frames_total == 1024 - 1

    def test_state_set(self):
        _buddy, pcp = make_pcp()
        frame = pcp.alloc_frame(2, state=FrameState.USER)
        assert pcp.buddy.memory.state_of(frame) is FrameState.USER


class TestKernelWithPcp:
    def make_kernel(self):
        config = dataclasses.replace(
            GuestConfig(memory_bytes=16 * MB), pcp_enabled=True
        )
        return GuestKernel(config, MachineConfig())

    def test_fault_and_free_roundtrip(self):
        kernel = self.make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 64)
        for vpn in vma.pages():
            kernel.handle_fault(p, vpn)
        assert p.rss_pages == 64
        kernel.munmap(p, vma.start_vpn, 64)
        assert p.rss_pages == 0
        kernel.buddy.check_invariants()

    def test_single_process_gets_contiguous_runs(self):
        kernel = self.make_kernel()
        p = kernel.create_process("app")
        vma = kernel.mmap(p, 16)
        frames = [kernel.handle_fault(p, vpn).frame for vpn in vma.pages()]
        deltas = [b - a for a, b in zip(frames, frames[1:])]
        # pcp batches give runs of adjacent frames on a fresh system
        # (direction depends on LIFO order); most steps are +-1.
        assert sum(1 for d in deltas if abs(d) == 1) >= 10

    def test_pcp_recycling_interleaves_under_colocation(self):
        kernel = self.make_kernel()
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        vma_a = kernel.mmap(a, 256)
        vma_b = kernel.mmap(b, 256)
        for vpn_a, vpn_b in zip(vma_a.pages(), vma_b.pages()):
            kernel.handle_fault(a, vpn_a)
            kernel.handle_fault(b, vpn_b)
        # Each process drew from its own pcp list, so short runs stay
        # contiguous even under interleaving -- but runs from the two
        # lists alternate through physical memory.
        frames_a = sorted(
            pte >> 12 for _v, pte in a.page_table.iter_mappings()
        )
        gaps = sum(
            1 for x, y in zip(frames_a, frames_a[1:]) if y - x > 1
        )
        assert gaps >= 10  # a's memory is broken into many runs
