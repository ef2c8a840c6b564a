"""Tests for the runtime shadow-state sanitizer (repro.sanitizer).

The sanitizer must (a) stay silent while a healthy kernel is driven
through every real path -- faults, reservations, COW forks, reclaim,
teardown -- and (b) catch each seeded lifecycle bug at the exact call
that introduces it: double-free, free-of-reserved, use-after-free
mapping, intra-process frame aliasing, and reservation/mapping leaks at
process exit.
"""

import pytest

from repro.config import GuestConfig, MachineConfig
from repro.errors import SanitizerViolation
from repro.mem.pcp import PerCpuPageCache
from repro.os.fork import fork
from repro.os.kernel import GuestKernel
from repro.sanitizer import (
    ENV_FLAG,
    FrameLifecycle,
    FrameSanitizer,
    sanitizer_enabled,
)
from repro.units import MB


@pytest.fixture(autouse=True)
def _sanitize(monkeypatch):
    """Every kernel a test here builds is sanitized unless it says not."""
    monkeypatch.setenv(ENV_FLAG, "1")


def make_kernel(ptemagnet=False, **kwargs):
    kwargs.setdefault("memory_bytes", 32 * MB)
    config = GuestConfig(ptemagnet_enabled=ptemagnet, **kwargs)
    return GuestKernel(config, MachineConfig())


def faulted_kernel(ptemagnet=True, pages=64, **kwargs):
    """A sanitized kernel with one process that faulted ``pages`` pages."""
    kernel = make_kernel(ptemagnet=ptemagnet, **kwargs)
    process = kernel.create_process("app")
    vma = kernel.mmap(process, pages)
    for vpn in vma.pages():
        kernel.handle_fault(process, vpn)
    return kernel, process, vma


# ---------------------------------------------------------------------- #
# Healthy lifecycles stay silent
# ---------------------------------------------------------------------- #

class TestCleanRuns:
    @pytest.mark.parametrize("ptemagnet", [False, True])
    def test_fault_free_exit_cycle_is_clean(self, ptemagnet):
        kernel, process, vma = faulted_kernel(ptemagnet=ptemagnet, pages=200)
        kernel.munmap(process, vma.start_vpn, 100)
        kernel.exit_process(process)
        assert kernel.sanitizer.violations == 0

    def test_fork_and_cow_break_are_clean(self):
        kernel, parent, vma = faulted_kernel(ptemagnet=True, pages=32)
        child = fork(kernel, parent)
        # Shared COW frame: mapped by both pids, no alias violation.
        frame = parent.page_table.translate(vma.start_vpn)
        assert kernel.sanitizer.state_of(frame) is FrameLifecycle.MAPPED
        # Write fault in the child copies the page; in the parent it then
        # just drops the COW bit (sole owner).
        kernel.handle_fault(child, vma.start_vpn, write=True)
        kernel.handle_fault(parent, vma.start_vpn, write=True)
        kernel.exit_process(child)
        kernel.exit_process(parent)
        assert kernel.sanitizer.violations == 0

    def test_thp_fault_and_split_are_clean(self):
        kernel = make_kernel(thp_enabled=True)
        process = kernel.create_process("thp")
        vma = kernel.mmap(process, 1024)
        kernel.handle_fault(process, vma.start_vpn)
        kernel.split_huge(process, vma.start_vpn)
        kernel.exit_process(process)
        assert kernel.sanitizer.violations == 0

    def test_pcp_alloc_free_drain_cycle_is_clean(self):
        kernel, process, vma = faulted_kernel(
            ptemagnet=False, pages=128, pcp_enabled=True
        )
        kernel.munmap(process, vma.start_vpn, 128)
        kernel.pcp.drain_all()
        kernel.exit_process(process)
        assert kernel.sanitizer.violations == 0

    def test_reclaim_pass_is_clean(self):
        kernel = make_kernel(
            ptemagnet=True, memory_bytes=8 * MB, reclaim_threshold=0.9
        )
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 512)
        for vpn in vma.pages():
            kernel.handle_fault(process, vpn)
        report = kernel.run_reclaim()
        assert report is not None and report.invoked
        assert kernel.sanitizer.violations == 0

    def test_shadow_tracks_reservation_states(self):
        kernel, process, vma = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        state_of = kernel.sanitizer.state_of
        for frame in reservation.unmapped_frames():
            assert state_of(frame) is FrameLifecycle.RESERVED
        mapped = process.page_table.translate(vma.start_vpn)
        assert state_of(mapped) is FrameLifecycle.MAPPED


# ---------------------------------------------------------------------- #
# Seeded-bug corpus: each corruption is caught at its call site
# ---------------------------------------------------------------------- #

class TestSeededBugs:
    def test_double_free_is_caught(self):
        kernel = make_kernel()
        base = kernel.buddy.alloc(0, owner=1)
        kernel.buddy.free(base)
        with pytest.raises(SanitizerViolation, match="double-free"):
            kernel.buddy.free(base)

    def test_free_of_reserved_frame_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        reserved = reservation.unmapped_frames()[0]
        with pytest.raises(SanitizerViolation, match="free-of-reserved"):
            kernel.buddy.free(reserved)

    def test_free_of_mapped_frame_is_caught(self):
        kernel, process, vma = faulted_kernel(ptemagnet=False, pages=8)
        frame = process.page_table.translate(vma.start_vpn)
        with pytest.raises(SanitizerViolation, match="free-of-mapped"):
            kernel.buddy.free(frame)

    def test_use_after_free_mapping_is_caught(self):
        kernel, process, vma = faulted_kernel(ptemagnet=False, pages=8)
        frame = kernel.buddy.alloc(0, owner=process.pid)
        kernel.buddy.free(frame)
        with pytest.raises(SanitizerViolation, match="use-after-free"):
            process.page_table.map(vma.start_vpn + 100, frame)

    def test_intra_process_alias_is_caught(self):
        kernel, process, vma = faulted_kernel(ptemagnet=False, pages=8)
        frame = process.page_table.translate(vma.start_vpn)
        with pytest.raises(SanitizerViolation, match="aliased-mapping"):
            process.page_table.map(vma.start_vpn + 100, frame)

    def test_reservation_leak_at_exit_is_caught(self):
        kernel, process, vma = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        # Drop the PaRT entry behind the allocator's back: the reserved
        # frames are now unreachable and exit_process cannot release them.
        process.part.remove(reservation.group)
        kernel.munmap(process, vma.start_vpn, vma.npages)
        with pytest.raises(SanitizerViolation, match="reservation-leak"):
            kernel.exit_process(process)

    def test_mapping_leak_at_exit_is_caught(self):
        kernel, process, vma = faulted_kernel(ptemagnet=False, pages=8)
        # Map a page outside any VMA: munmap-driven teardown misses it, so
        # its frame is still referenced when the page tables are destroyed.
        frame = kernel.buddy.alloc(0, owner=process.pid)
        process.page_table.map(vma.end_vpn + 1000, frame)
        with pytest.raises(SanitizerViolation, match="mapping-leak"):
            kernel.exit_process(process)

    def test_free_of_pcp_cached_frame_is_caught(self):
        kernel = make_kernel()
        pcp = PerCpuPageCache(kernel.buddy, cpus=1)
        frame = pcp.alloc_frame(0)
        pcp.free_frame(0, frame)
        with pytest.raises(SanitizerViolation, match="free-of-pcp-cached"):
            kernel.buddy.free(frame)


# ---------------------------------------------------------------------- #
# Direct hook-level transitions
# ---------------------------------------------------------------------- #

class TestHookTransitions:
    def test_cross_process_sharing_is_legal(self):
        san = FrameSanitizer()
        san.on_alloc(5, 1, owner=1)
        san.on_map(1, 0x10, 5)
        san.on_map(2, 0x10, 5)  # second pid: COW sharing, no violation
        san.on_unmap(1, 0x10, 5)
        assert san.state_of(5) is FrameLifecycle.MAPPED
        san.on_unmap(2, 0x10, 5)
        assert san.state_of(5) is FrameLifecycle.HELD

    def test_reserve_requires_held(self):
        san = FrameSanitizer()
        with pytest.raises(SanitizerViolation, match="reserve-of-free"):
            san.on_reserve(7, 1, owner=1)

    def test_pcp_take_requires_cached(self):
        san = FrameSanitizer()
        san.on_alloc(3, 1, owner=None)
        with pytest.raises(SanitizerViolation, match="pcp-take-of-held"):
            san.on_pcp_take(3, 0)

    def test_unreserve_of_mapped_frame_is_caught(self):
        san = FrameSanitizer()
        san.on_alloc(0, 8, owner=1)
        san.on_reserve(0, 8, owner=1)
        san.on_map(1, 0x20, 0)
        with pytest.raises(SanitizerViolation, match="unreserve-of-mapped"):
            san.on_unreserve([0], site="test")


# ---------------------------------------------------------------------- #
# Enablement plumbing
# ---------------------------------------------------------------------- #

class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG)
        kernel = make_kernel()
        assert kernel.sanitizer is None
        assert kernel.buddy.sanitizer is None

    def test_env_flag_attaches_sanitizer(self):
        kernel = make_kernel()
        assert kernel.sanitizer is not None
        assert kernel.buddy.sanitizer is kernel.sanitizer

    def test_env_flag_read_when_kernel_is_built(self, monkeypatch):
        kernel = make_kernel()
        monkeypatch.delenv(ENV_FLAG)
        process = kernel.create_process("app")
        assert process.page_table.sanitizer is kernel.sanitizer is not None
        assert make_kernel().sanitizer is None

    def test_env_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitizer_enabled()
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitizer_enabled()
