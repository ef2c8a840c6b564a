"""Configuration objects for the simulated platform.

The defaults model the paper's evaluation platform (Table 2): a Broadwell
Xeon E5-2630v4 host running QEMU/KVM with a 20-vCPU guest. Capacities are
scaled down (see DESIGN.md) so simulations finish in seconds; latencies,
associativities and all architectural constants are kept realistic because
the paper's effect depends on them, not on absolute capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .units import (
    GB,
    KB,
    MAX_RESERVATION_ORDER,
    MB,
    PAGE_SIZE,
    PT_LEVELS_RANGE,
    RESERVED_BASE_FRAMES,
)


def _require(ok: bool, config: object, name: str, rule: str) -> None:
    """Raise :class:`ConfigError` naming ``config``'s field ``name``, its
    value and the ``rule`` it breaks, unless ``ok``."""
    if not ok:
        value = getattr(config, name)
        raise ConfigError(f"{type(config).__name__}.{name}={value!r}: {rule}")


def _check_memory_and_levels(config) -> None:
    """The checks :class:`HostConfig` and :class:`GuestConfig` share."""
    _require(
        config.memory_bytes > RESERVED_BASE_FRAMES * PAGE_SIZE,
        config,
        "memory_bytes",
        f"must exceed the {RESERVED_BASE_FRAMES} kernel-reserved pages "
        f"({RESERVED_BASE_FRAMES * PAGE_SIZE} bytes)",
    )
    _require(
        config.pt_levels in PT_LEVELS_RANGE,
        config,
        "pt_levels",
        f"must be in [{PT_LEVELS_RANGE.start}, {PT_LEVELS_RANGE.stop - 1}]",
    )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: int

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, self, "size_bytes", "must be positive")
        _require(
            self.associativity > 0, self, "associativity", "must be positive"
        )


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB level (fully parameterised, LRU replacement)."""

    name: str
    entries: int
    associativity: int

    def __post_init__(self) -> None:
        _require(self.entries > 0, self, "entries", "must be positive")
        _require(
            self.associativity > 0, self, "associativity", "must be positive"
        )
        _require(
            self.entries % self.associativity == 0,
            self,
            "entries",
            f"must be a multiple of associativity {self.associativity}",
        )


@dataclass(frozen=True)
class PwcConfig:
    """Page-walk-cache geometry: entries caching intermediate PT nodes."""

    entries_per_level: int = 32

    def __post_init__(self) -> None:
        _require(
            self.entries_per_level >= 0,
            self,
            "entries_per_level",
            "must be non-negative",
        )


@dataclass(frozen=True)
class MachineConfig:
    """The simulated CPU: cache hierarchy, TLBs, PWCs and timing.

    Latencies follow common Broadwell-class estimates: L1 4 cycles, L2 12,
    LLC ~40, DRAM ~200. ``base_cycles_per_access`` models the non-memory
    work (ALU + pipeline) amortised per memory access by the workload; the
    paper's 4-11%-level end-to-end deltas only emerge with a realistic
    compute/memory balance.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 16 * KB, 8, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 128 * KB, 8, 12)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 512 * KB, 16, 42)
    )
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig("L1-DTLB", 32, 4))
    stlb: TlbConfig = field(default_factory=lambda: TlbConfig("L2-STLB", 256, 8))
    pwc: PwcConfig = field(default_factory=lambda: PwcConfig(16))
    memory_latency_cycles: int = 200
    base_cycles_per_access: int = 14
    #: Trap + handler + page zeroing: the dominant, allocator-independent
    #: part of a page fault.
    page_fault_cycles: int = 3000
    #: One buddy-allocator call (freelist pop, possibly splits).
    buddy_call_cycles: int = 150
    #: One PaRT radix look-up or insert (§4.2's fast path).
    part_lookup_cycles: int = 80
    #: Extra cost of a huge-page fault: order-9 allocation + zeroing 2MB.
    thp_alloc_cycles: int = 25000
    #: Direct-compaction stall when no order-9 block exists (the THP
    #: latency spike §2.3 cites).
    compaction_stall_cycles: int = 90000
    #: Targeted-allocation probe of the CA-paging-style baseline.
    ca_search_cycles: int = 120

    def describe(self) -> str:
        """One-line summary used by the Table 2 analog."""
        return (
            f"L1 {self.l1.size_bytes // KB}KB/{self.l1.associativity}w, "
            f"L2 {self.l2.size_bytes // KB}KB/{self.l2.associativity}w, "
            f"LLC {self.llc.size_bytes // KB}KB/{self.llc.associativity}w, "
            f"DTLB {self.dtlb.entries}e, STLB {self.stlb.entries}e, "
            f"DRAM {self.memory_latency_cycles}cy"
        )


@dataclass(frozen=True)
class HostConfig:
    """The host machine: physical memory owned by the host kernel.

    The paper's host has 128GB/socket; we model a scaled-down host of
    ``memory_bytes`` with the same buddy-allocator mechanics.
    ``pt_levels`` selects the host page-table depth (4 today, 5 for la57).
    """

    memory_bytes: int = 512 * MB
    pt_levels: int = 4

    def __post_init__(self) -> None:
        _check_memory_and_levels(self)

    @property
    def frames(self) -> int:
        """Number of host physical frames."""
        return self.memory_bytes // PAGE_SIZE


@dataclass(frozen=True)
class GuestConfig:
    """The guest VM: RAM size and PTEMagnet kernel knobs.

    ``ptemagnet_enabled`` selects the guest kernel's physical allocator:
    ``False`` is the default Linux v4.19 path (one page per fault straight
    from the buddy allocator); ``True`` adds the PTEMagnet reservation path.

    ``reclaim_threshold`` mirrors the paper's swappiness-like knob (§4.3):
    when the fraction of free guest memory drops below it, the reservation
    reclamation daemon starts releasing unused reserved pages.

    ``ptemagnet_memory_limit_bytes`` models the cgroup gate of §4.4: only
    processes whose declared memory limit exceeds the threshold get
    PTEMagnet-backed allocation. ``0`` enables it for every process.
    """

    memory_bytes: int = 256 * MB
    vcpus: int = 20
    ptemagnet_enabled: bool = False
    reclaim_threshold: float = 0.08
    ptemagnet_memory_limit_bytes: int = 0
    #: log2 of the reservation size in pages; 3 (= 8 pages = one PTE cache
    #: block) is the paper's design point, other values for ablations.
    ptemagnet_reservation_order: int = 3
    #: Guest page-table depth: 4 (x86-64 today) or 5 (la57, the migration
    #: §2.5 mentions; deepens every dimension of the 2D walk).
    pt_levels: int = 4
    #: Transparent-huge-pages baseline (§2.3): fault-time 2MB mappings
    #: with compaction stalls and internal fragmentation.
    thp_enabled: bool = False
    #: CA-paging-style baseline (§7): best-effort targeted allocation of
    #: the frame adjacent to the previous fault, no reservation.
    ca_paging_enabled: bool = False
    #: Per-CPU page caches (Linux pcp lists) in front of the buddy core;
    #: off by default, on for the pcp ablation.
    pcp_enabled: bool = False

    def __post_init__(self) -> None:
        _check_memory_and_levels(self)
        _require(self.vcpus > 0, self, "vcpus", "must be positive")
        _require(
            0 <= self.reclaim_threshold <= 1,
            self,
            "reclaim_threshold",
            "must be a fraction in [0, 1]",
        )
        _require(
            0 < self.ptemagnet_reservation_order <= MAX_RESERVATION_ORDER,
            self,
            "ptemagnet_reservation_order",
            f"must be in (0, {MAX_RESERVATION_ORDER}]",
        )
        modes = sum(
            (self.ptemagnet_enabled, self.thp_enabled, self.ca_paging_enabled)
        )
        if modes > 1:
            raise ConfigError(
                "at most one of ptemagnet/thp/ca_paging may be enabled"
            )

    @property
    def frames(self) -> int:
        """Number of guest physical frames."""
        return self.memory_bytes // PAGE_SIZE

    def with_ptemagnet(self, enabled: bool = True) -> "GuestConfig":
        """Return a copy with the allocator switched to PTEMagnet (or the
        default path); any THP/CA baseline mode is cleared."""
        import dataclasses

        return dataclasses.replace(
            self,
            ptemagnet_enabled=enabled,
            thp_enabled=False,
            ca_paging_enabled=False,
        )

    def with_allocator(self, mode: str) -> "GuestConfig":
        """Return a copy using allocator ``mode``: one of ``"default"``,
        ``"ptemagnet"``, ``"thp"``, ``"ca"``."""
        import dataclasses

        if mode not in ("default", "ptemagnet", "thp", "ca"):
            raise ConfigError(f"unknown allocator mode {mode!r}")
        return dataclasses.replace(
            self,
            ptemagnet_enabled=mode == "ptemagnet",
            thp_enabled=mode == "thp",
            ca_paging_enabled=mode == "ca",
        )


@dataclass(frozen=True)
class PlatformConfig:
    """Complete simulated platform: machine + host + guest (Table 2 analog)."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    host: HostConfig = field(default_factory=HostConfig)
    guest: GuestConfig = field(default_factory=GuestConfig)
    seed: int = 42

    def with_ptemagnet(self, enabled: bool = True) -> "PlatformConfig":
        """Return a copy with the guest kernel's PTEMagnet toggled."""
        return PlatformConfig(
            machine=self.machine,
            host=self.host,
            guest=self.guest.with_ptemagnet(enabled),
            seed=self.seed,
        )

    def table2_rows(self) -> list:
        """Rows analogous to the paper's Table 2 (platform parameters)."""
        return [
            ("Processor model", self.machine.describe()),
            ("Host memory", f"{self.host.memory_bytes // MB}MB (scaled from 2x128GB)"),
            ("Hypervisor", "simulated KVM-style lazy host PT"),
            ("Guest memory", f"{self.guest.memory_bytes // MB}MB (scaled from 64GB)"),
            ("Guest vCPUs", str(self.guest.vcpus)),
            ("Guest kernel", "PTEMagnet" if self.guest.ptemagnet_enabled else "default"),
        ]


#: A paper-faithful (unscaled) platform description, for documentation only.
PAPER_PLATFORM_DESCRIPTION = {
    "processor": "Dual Intel Xeon E5-2630v4 (BDW) 2.40GHz, 20 cores, 2 threads/core",
    "memory": f"{128 * GB} bytes/socket",
    "hypervisor": "QEMU 2.11.1",
    "host_os": "Ubuntu 18.04.3, Linux v4.15",
    "guest_os": "Ubuntu 16.04.6, Linux v4.19",
    "guest": "20 vCPUs, 64GB RAM",
}
