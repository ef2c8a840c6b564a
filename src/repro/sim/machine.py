"""Simulated machine assembly: cores, private caches, shared LLC.

The paper pins each application's threads to dedicated cores (§6.1), so
the model gives every workload its own core context -- private L1/L2,
TLBs and page-walk caches -- while all cores share one LLC, the channel
through which co-runner cache contention reaches the measured benchmark
(the Fig 6 vs Fig 7 difference).
"""

from __future__ import annotations

from typing import List

from ..cache.hierarchy import CacheHierarchy
from ..cache.pwc import PageWalkCache
from ..cache.set_assoc import SetAssociativeCache
from ..config import MachineConfig
from ..tlb.tlb import TlbHierarchy


class CoreContext:
    """Per-core translation and caching state for one pinned workload."""

    def __init__(self, config: MachineConfig, shared_llc: SetAssociativeCache) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy(config, shared_llc=shared_llc)
        self.tlb = TlbHierarchy(config.dtlb, config.stlb)
        self.guest_pwc = PageWalkCache(config.pwc.entries_per_level)
        self.host_pwc = PageWalkCache(config.pwc.entries_per_level)

    def invalidate_translation(self, vpn: int) -> None:
        """Shoot down one guest virtual page (TLB + guest PWC)."""
        self.tlb.invalidate(vpn)
        self.guest_pwc.invalidate_vpn(vpn)


class Machine:
    """The whole simulated CPU package: shared LLC plus per-core contexts."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.llc = SetAssociativeCache(config.llc)
        self.cores: List[CoreContext] = []

    def new_core(self) -> CoreContext:
        """Allocate a core context for one pinned workload."""
        core = CoreContext(self.config, self.llc)
        self.cores.append(core)
        return core
