"""Host kernel: physical memory owner and hypervisor for guest VMs.

Models the KVM arrangement the paper describes in §3.1: the host OS reuses
its normal memory-management machinery for VMs, so a VM is just a process
whose virtual address space covers the guest's physical memory. Host
physical frames are assigned to guest frames lazily, on the first access
("EPT violation" in hardware terms), through the host buddy allocator.

Footnote 1 of the paper notes that fragmentation in *host physical* memory
is irrelevant to walk latency -- hPTE locality stems from contiguity in
host *virtual* (= guest physical) space, because the host PT is indexed by
host virtual addresses. The model reflects this naturally: which host
frame backs a guest frame never affects which cache block the hPTE
occupies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from ..config import HostConfig
from ..errors import SimulationError
from ..mem.buddy import BuddyAllocator
from ..mem.physical import FrameState, PhysicalMemory
from ..pagetable.radix import PageTable
from ..units import PAGE_SHIFT, RESERVED_BASE_FRAMES


@dataclass
class HostStats:
    """Host-side activity counters."""

    ept_faults: int = 0
    pages_backed: int = 0
    pages_unbacked: int = 0


class VmHandle:
    """One virtual machine as seen by the host.

    ``host_pt`` is the VM process' page table in the host: it maps guest
    frame numbers (= host virtual page numbers of the VM process) to host
    physical frames. Its leaf entries are the hPTEs of the paper.
    """

    def __init__(self, vm_id: int, guest_frames: int, host_pt: PageTable) -> None:
        self.vm_id = vm_id
        self.guest_frames = guest_frames
        self.host_pt = host_pt


class HostKernel:
    """The host OS: owns host physical memory, backs VMs lazily."""

    def __init__(self, config: HostConfig) -> None:
        self.config = config
        self.memory = PhysicalMemory(config.frames, name="host")
        self.buddy = BuddyAllocator(
            self.memory, reserved_base_frames=RESERVED_BASE_FRAMES
        )
        self.stats = HostStats()
        self._vms: Dict[int, VmHandle] = {}
        self._next_vm_id = 1

    # ------------------------------------------------------------------ #
    # VM lifecycle
    # ------------------------------------------------------------------ #

    def create_vm(self, guest_memory_bytes: int) -> VmHandle:
        """Register a VM with ``guest_memory_bytes`` of guest RAM.

        No host memory is committed yet -- backing is lazy, as with a real
        KVM guest whose balloon has not been touched.
        """
        from ..units import pages_for_bytes

        guest_frames = pages_for_bytes(guest_memory_bytes)
        if guest_frames > self.memory.num_frames:
            raise SimulationError(
                "guest RAM exceeds host RAM: the host could only back it "
                "with swap, which this model does not include"
            )
        # Callbacks over the allocator, not bound methods of the host: a
        # VM's page table must not lead back to its HostKernel.
        host_pt = PageTable(
            frame_allocator=partial(
                self.buddy.alloc, 0, owner=0, state=FrameState.PAGE_TABLE
            ),
            frame_releaser=self.buddy.free,
            levels=self.config.pt_levels,
        )
        vm = VmHandle(self._next_vm_id, guest_frames, host_pt)
        self._vms[vm.vm_id] = vm
        self._next_vm_id += 1
        return vm

    # ------------------------------------------------------------------ #
    # Lazy backing (EPT-fault handling)
    # ------------------------------------------------------------------ #

    def ensure_backed(self, vm: VmHandle, gfn: int) -> int:
        """Return the host frame backing guest frame ``gfn``.

        Allocates and maps a host frame on first touch (the EPT-violation
        path). Which host frame comes back is whatever the host buddy
        allocator hands out -- per the paper's footnote, that choice cannot
        affect hPTE cache locality.
        """
        if not 0 <= gfn < vm.guest_frames:
            raise SimulationError(
                f"gfn {gfn} outside VM {vm.vm_id} guest RAM ({vm.guest_frames} frames)"
            )
        pte = vm.host_pt.lookup(gfn)
        if pte is not None:
            return pte >> PAGE_SHIFT
        hfn = self.buddy.alloc(0, owner=vm.vm_id, state=FrameState.USER)
        vm.host_pt.map(gfn, hfn)
        self.stats.ept_faults += 1
        self.stats.pages_backed += 1
        return hfn

    def unback(self, vm: VmHandle, gfn: int) -> None:
        """Release the host frame backing ``gfn`` (host-side reclaim)."""
        hfn = vm.host_pt.translate(gfn)
        if hfn is None:
            return
        vm.host_pt.unmap(gfn)
        self.buddy.free(hfn)
        self.stats.pages_unbacked += 1

    def backed_fraction(self, vm: VmHandle) -> float:
        """Fraction of the VM's guest frames currently backed."""
        return vm.host_pt.mapped_pages / vm.guest_frames

    def vm(self, vm_id: int) -> Optional[VmHandle]:
        """Look up a VM by id."""
        return self._vms.get(vm_id)
