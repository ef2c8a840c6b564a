"""Tests for the host kernel (hypervisor) and the nested 2D walker."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.pwc import PageWalkCache
from repro.config import HostConfig, MachineConfig
from repro.errors import SimulationError
from repro.mem.physical import FrameState
from repro.pagetable.radix import PageTable
from repro.units import CACHE_BLOCK_SHIFT, MB, PT_LEVELS
from repro.virt.hypervisor import HostKernel
from repro.virt.nested import NestedWalker


@pytest.fixture
def host():
    return HostKernel(HostConfig(memory_bytes=64 * MB))


@pytest.fixture
def vm(host):
    return host.create_vm(16 * MB)


class TestHostKernel:
    def test_vm_creation_is_lazy(self, host, vm):
        assert vm.guest_frames == 4096
        assert vm.host_pt.mapped_pages == 0
        assert host.stats.pages_backed == 0

    def test_guest_bigger_than_host_rejected(self, host):
        with pytest.raises(SimulationError):
            host.create_vm(128 * MB)

    def test_ensure_backed_allocates_once(self, host, vm):
        hfn1 = host.ensure_backed(vm, 10)
        hfn2 = host.ensure_backed(vm, 10)
        assert hfn1 == hfn2
        assert host.stats.ept_faults == 1
        assert host.memory.state_of(hfn1) is FrameState.USER

    def test_gfn_out_of_range(self, host, vm):
        with pytest.raises(SimulationError):
            host.ensure_backed(vm, vm.guest_frames)

    def test_unback_releases(self, host, vm):
        hfn = host.ensure_backed(vm, 5)
        free_before = host.buddy.free_frames
        host.unback(vm, 5)
        # The data frame comes back, plus any now-empty PT node frames.
        assert host.buddy.free_frames >= free_before + 1
        assert vm.host_pt.translate(5) is None

    def test_unback_unbacked_is_noop(self, host, vm):
        host.unback(vm, 5)
        assert host.stats.pages_unbacked == 0

    def test_backed_fraction(self, host, vm):
        host.ensure_backed(vm, 0)
        assert host.backed_fraction(vm) == pytest.approx(1 / vm.guest_frames)

    def test_vm_lookup(self, host, vm):
        assert host.vm(vm.vm_id) is vm
        assert host.vm(999) is None

    def test_host_pt_nodes_tagged(self, host, vm):
        host.ensure_backed(vm, 0)
        pt_frames = list(host.memory.frames_in_state(FrameState.PAGE_TABLE))
        assert len(pt_frames) == PT_LEVELS  # one node per level


class GuestFrameSource:
    """Allocates guest PT node frames from a simple counter."""

    def __init__(self, start=1000):
        self.next = start

    def alloc(self):
        frame = self.next
        self.next += 1
        return frame


class HptBlockRecorder(CacheHierarchy):
    """A cache hierarchy that records the block of every hPT access."""

    def __init__(self, config):
        super().__init__(config)
        self.hpt_blocks = set()

    def access(self, addr, stream="data"):
        if stream == "hpt":
            self.hpt_blocks.add(addr >> CACHE_BLOCK_SHIFT)
        return super().access(addr, stream)


def make_nested(host, vm, with_pwc=False, hierarchy=None):
    guest_frames = GuestFrameSource()
    guest_pt = PageTable(guest_frames.alloc)
    if hierarchy is None:
        hierarchy = CacheHierarchy(MachineConfig())
    walker = NestedWalker(
        guest_pt,
        vm,
        host,
        hierarchy,
        guest_pwc=PageWalkCache(8) if with_pwc else None,
        host_pwc=PageWalkCache(8) if with_pwc else None,
    )
    return guest_pt, hierarchy, walker


class TestNestedWalker:
    def test_guest_fault_when_unmapped(self, host, vm):
        _pt, _h, walker = make_nested(host, vm)
        result = walker.walk(0x123)
        assert result.faulted
        assert result.guest_frame is None

    def test_full_translation(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm)
        guest_pt.map(0x123, 77)
        result = walker.walk(0x123)
        assert result.guest_frame == 77
        assert result.host_frame == vm.host_pt.translate(77)
        assert not result.faulted

    def test_backs_guest_frames_on_demand(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm)
        guest_pt.map(0, 5)
        walker.walk(0)
        # Data page and every guest-PT node page must now be host-backed.
        assert vm.host_pt.translate(5) is not None
        assert host.stats.ept_faults >= 1 + PT_LEVELS

    def test_access_counts_without_pwc(self, host, vm):
        guest_pt, hierarchy, walker = make_nested(host, vm)
        guest_pt.map(0x123, 7)
        walker.walk(0x123)  # first walk includes EPT-fault retries
        result = walker.walk(0x123)
        # Warm nested TLB: guest node translations are cached, so only the
        # 4 gPTE accesses plus the final host walk (4 accesses) remain.
        assert result.guest_accesses == PT_LEVELS
        assert result.host_accesses == PT_LEVELS
        total_gpt = hierarchy.counters("gpt").accesses
        assert total_gpt >= 2 * PT_LEVELS

    def test_up_to_24_accesses_cold(self, host, vm):
        guest_pt, hierarchy, walker = make_nested(host, vm)
        guest_pt.map(0x123, 7)
        result = walker.walk(0x123)
        # Cold 2D walk: 4 gPT accesses + up to 5 host walks of 4 accesses
        # (EPT-fault retries may add more, never fewer).
        assert result.guest_accesses == PT_LEVELS
        assert result.host_accesses >= 5 * PT_LEVELS

    def test_host_cycles_subset_of_total(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm)
        guest_pt.map(9, 3)
        result = walker.walk(9)
        assert 0 < result.host_cycles < result.cycles

    def test_pwc_reduces_accesses(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm, with_pwc=True)
        guest_pt.map(0x200, 8)
        guest_pt.map(0x201, 9)
        walker.walk(0x200)
        result = walker.walk(0x201)
        assert result.guest_accesses == 1  # leaf PWC hit
        assert result.host_accesses <= 2

    def test_adjacent_guest_frames_share_hpte_block(self, host, vm):
        """The paper's central mechanism: contiguous guest frames mean the
        final host walks of neighbouring pages touch one hPTE cache block."""
        recorder = HptBlockRecorder(MachineConfig())
        guest_pt, hierarchy, walker = make_nested(
            host, vm, with_pwc=True, hierarchy=recorder
        )
        for i in range(8):
            guest_pt.map(0x300 + i, 800 + i)  # contiguous, aligned gfns
        for i in range(8):
            walker.walk(0x300 + i)
        hierarchy.reset_counters()
        walker.flush_ntlb()
        recorder.hpt_blocks.clear()
        for i in range(8):
            walker.walk(0x300 + i)
        # All eight final-walk leaf hPTE accesses land in one cache block
        # (upper-level node accesses may add a handful more). The lower
        # bound proves the recorder saw the walker's host accesses.
        assert 1 <= len(recorder.hpt_blocks) <= PT_LEVELS + 1

    def test_ntlb_hits_accumulate(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm)
        guest_pt.map(1, 2)
        walker.walk(1)
        walker.walk(1)
        assert walker.ntlb_hits > 0

    def test_stats(self, host, vm):
        guest_pt, _h, walker = make_nested(host, vm)
        guest_pt.map(1, 2)
        walker.walk(1)
        assert walker.walks == 1
        assert walker.total_cycles > 0
        assert walker.total_host_cycles > 0
