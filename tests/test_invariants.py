"""Tests for the runtime invariant contracts (repro.invariants).

The contracts must (a) stay silent on a healthy kernel driven through the
real fault paths, and (b) catch deliberate corruption of each structure
they guard: buddy free lists, PaRT reservations, page-table accounting
and the whole-kernel meminfo identities.
"""

import pytest

from repro.config import GuestConfig, MachineConfig
from repro.errors import InvariantViolation
from repro.invariants import (
    ENV_FLAG,
    FULL_CHECK_INTERVAL,
    check_buddy,
    check_fault_path,
    check_kernel,
    check_page_table,
    check_part,
    invariants_enabled,
)
from repro.mem.physical import FrameState
from repro.os.kernel import GuestKernel
from repro.units import MB


@pytest.fixture
def contracts_on(monkeypatch):
    """Run the contracts after every fault of kernels built in the test."""
    monkeypatch.setenv(ENV_FLAG, "1")


def make_kernel(ptemagnet=False, **kwargs):
    config = GuestConfig(
        memory_bytes=32 * MB, ptemagnet_enabled=ptemagnet, **kwargs
    )
    return GuestKernel(config, MachineConfig())


def faulted_kernel(ptemagnet=True, pages=64, **kwargs):
    """A kernel with one process that has faulted ``pages`` pages."""
    kernel = make_kernel(ptemagnet=ptemagnet, **kwargs)
    process = kernel.create_process("app")
    vma = kernel.mmap(process, pages)
    for vpn in vma.pages():
        kernel.handle_fault(process, vpn)
    return kernel, process, vma


# ---------------------------------------------------------------------- #
# Healthy kernels pass
# ---------------------------------------------------------------------- #

class TestCleanState:
    def test_check_kernel_passes_after_faults(self):
        kernel, _, _ = faulted_kernel(ptemagnet=True, pages=200)
        check_kernel(kernel)

    def test_check_kernel_passes_on_default_allocator(self):
        kernel, _, _ = faulted_kernel(ptemagnet=False, pages=200)
        check_kernel(kernel)

    def test_fault_path_passes_for_every_mapped_page(self):
        kernel, process, vma = faulted_kernel(pages=32)
        for vpn in vma.pages():
            check_fault_path(kernel, process, vpn)

    def test_env_flag_runs_contracts_across_full_sweep_boundary(
        self, contracts_on
    ):
        # Cross FULL_CHECK_INTERVAL so both the path-local and the full
        # periodic sweep execute on the live fault path.
        kernel, _, _ = faulted_kernel(pages=FULL_CHECK_INTERVAL + 64)
        assert kernel._check_invariants
        assert kernel.stats.faults > FULL_CHECK_INTERVAL

    def test_fault_path_flags_unmapped_vpn(self):
        kernel, process, vma = faulted_kernel(pages=8)
        with pytest.raises(InvariantViolation, match="unmapped"):
            check_fault_path(kernel, process, vma.end_vpn + 100)


# ---------------------------------------------------------------------- #
# Buddy allocator corruption
# ---------------------------------------------------------------------- #

class TestBuddyContracts:
    def test_misaligned_free_block_is_caught(self):
        kernel, _, _ = faulted_kernel()
        kernel.buddy._free[1][3] = None  # odd base on the order-1 list
        with pytest.raises(InvariantViolation, match="misaligned"):
            check_buddy(kernel.buddy)

    def test_frame_on_two_free_lists_is_caught(self):
        kernel, process, _ = faulted_kernel(ptemagnet=False)
        order, base = next(
            (o, next(iter(blocks)))
            for o, blocks in enumerate(kernel.buddy._free)
            if blocks
        )
        if order > 0:
            kernel.buddy._free[0][base] = None  # inside the larger block
        else:
            kernel.buddy._free[1][base & ~1] = None  # covers the free frame
        with pytest.raises(InvariantViolation, match="two lists"):
            check_buddy(kernel.buddy)

    def test_free_frame_count_drift_is_caught(self):
        kernel, _, _ = faulted_kernel()
        kernel.buddy._free_frames += 1
        with pytest.raises(InvariantViolation, match="free-frame count"):
            check_buddy(kernel.buddy)

    def test_mapped_frame_on_free_list_fails_fault_path(self):
        kernel, process, vma = faulted_kernel(ptemagnet=False, pages=8)
        outcome = kernel.handle_fault(process, vma.start_vpn)
        kernel.buddy._free[0][outcome.frame] = None
        with pytest.raises(InvariantViolation, match="free block"):
            check_fault_path(kernel, process, vma.start_vpn)


# ---------------------------------------------------------------------- #
# PaRT corruption
# ---------------------------------------------------------------------- #

class TestPartContracts:
    def test_misaligned_reservation_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        reservation.base_frame += 1
        with pytest.raises(InvariantViolation, match="misaligned"):
            check_part(process.part)

    def test_full_reservation_left_in_table_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        reservation.mask = reservation.full_mask
        with pytest.raises(InvariantViolation, match="full"):
            check_part(process.part)

    def test_radix_path_mismatch_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=9)
        reservation = next(process.part.iter_reservations())
        reservation.group += 1
        with pytest.raises(InvariantViolation, match="stored at"):
            check_part(process.part)

    def test_double_reserved_frame_is_caught(self):
        # Two partially-used reservations in distinct groups (faulting a
        # whole group deletes its entry); point one at the other's frames.
        kernel = make_kernel(ptemagnet=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 64)
        kernel.handle_fault(process, vma.start_vpn)
        kernel.handle_fault(process, vma.start_vpn + 8)
        reservations = list(process.part.iter_reservations())
        assert len(reservations) == 2
        first, second = reservations[0], reservations[1]
        second.base_frame = first.base_frame
        with pytest.raises(InvariantViolation, match="reserved by both"):
            check_part(process.part)

    def test_entry_count_drift_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=9)
        process.part.entry_count += 1
        with pytest.raises(InvariantViolation, match="entry_count"):
            check_part(process.part)


# ---------------------------------------------------------------------- #
# Page-table corruption
# ---------------------------------------------------------------------- #

class TestPageTableContracts:
    def test_mapped_pages_drift_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=16)
        process.page_table.mapped_pages += 1
        with pytest.raises(InvariantViolation, match="mapped_pages"):
            check_page_table(process.page_table)

    def test_node_count_drift_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=16)
        process.page_table.node_count += 1
        with pytest.raises(InvariantViolation, match="node_count"):
            check_page_table(process.page_table)

    def test_live_slots_drift_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=16)
        leaf = next(process.page_table.leaf_nodes())
        leaf.live_slots += 1
        with pytest.raises(InvariantViolation, match="live_slots"):
            check_page_table(process.page_table)

    def test_slot_filled_behind_the_counter_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=16)
        leaf = next(process.page_table.leaf_nodes())
        pte = next(pte for pte in leaf.entries if pte)
        empty = next(slot for slot, pte in enumerate(leaf.entries) if not pte)
        leaf.entries[empty] = pte
        with pytest.raises(InvariantViolation, match="live_slots"):
            check_page_table(process.page_table)

    def test_level_corruption_is_caught(self):
        kernel, process, _ = faulted_kernel(pages=16)
        node = next(
            child
            for child in process.page_table.root.children
            if child is not None
        )
        node.level += 1
        with pytest.raises(InvariantViolation, match="level"):
            check_page_table(process.page_table)


# ---------------------------------------------------------------------- #
# Whole-kernel accounting
# ---------------------------------------------------------------------- #

class TestKernelContracts:
    def test_reserved_count_mismatch_is_caught(self):
        kernel, process, vma = faulted_kernel(pages=16)
        outcome = kernel.handle_fault(process, vma.start_vpn)
        kernel.memory.set_state(outcome.frame, FrameState.RESERVED)
        with pytest.raises(InvariantViolation, match="RESERVED"):
            check_kernel(kernel)

    def test_handle_fault_hook_reports_corruption(self, contracts_on):
        kernel = make_kernel(ptemagnet=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8)
        kernel.buddy._free[1][3] = None
        # First fault triggers the full periodic sweep (faults % N == 1).
        with pytest.raises(InvariantViolation):
            kernel.handle_fault(process, vma.start_vpn)

    def test_env_hook_reports_corruption(self, monkeypatch):
        # The switch is read when the kernel is built, not per fault.
        monkeypatch.setenv(ENV_FLAG, "yes")
        kernel = make_kernel(ptemagnet=True)
        monkeypatch.delenv(ENV_FLAG)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8)
        kernel.buddy._free[1][3] = None
        with pytest.raises(InvariantViolation):
            kernel.handle_fault(process, vma.start_vpn)

    def test_hook_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        kernel = make_kernel(ptemagnet=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8)
        kernel.buddy._free[1][3] = None  # corrupt, but contracts are off
        kernel.handle_fault(process, vma.start_vpn)


# ---------------------------------------------------------------------- #
# Periodic full sweep under reclaim pressure
# ---------------------------------------------------------------------- #

class TestFullSweepUnderReclaim:
    def test_full_sweep_stays_silent_while_reclaim_churns(
        self, monkeypatch, contracts_on
    ):
        """The O(live-state) sweep must hold while the reclaim daemon is
        actively stealing reserved pages between faults -- the state it
        checks (buddy lists, PaRT, frame map) churns hardest there."""
        import repro.invariants as invariants_mod

        monkeypatch.setattr(invariants_mod, "FULL_CHECK_INTERVAL", 32)
        sweeps = []
        real_check_kernel = invariants_mod.check_kernel
        monkeypatch.setattr(
            invariants_mod,
            "check_kernel",
            lambda kernel: (sweeps.append(1), real_check_kernel(kernel)),
        )
        kernel = make_kernel(ptemagnet=True, reclaim_threshold=0.9)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 1500)
        for step, vpn in enumerate(vma.pages()):
            kernel.handle_fault(process, vpn)
            if step % 64 == 63:
                kernel.run_reclaim()
        assert kernel.reclaimer.invocations > 0
        assert len(sweeps) >= 2  # several full sweeps crossed reclaim passes
        real_check_kernel(kernel)  # and the final state is still consistent


# ---------------------------------------------------------------------- #
# Enablement plumbing
# ---------------------------------------------------------------------- #

class TestEnablement:
    def test_env_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv("REPRO_INVARIANTS", value)
            assert invariants_enabled()
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv("REPRO_INVARIANTS", value)
            assert not invariants_enabled()
