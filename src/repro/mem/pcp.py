"""Per-CPU page caches (Linux "pcp lists").

Linux front-ends the buddy allocator with small per-CPU free-page caches:
order-0 allocations pop from the local CPU's list (refilled in batches
from the buddy core), frees push to it (drained in batches when it grows
past a watermark). The paper's fragmentation story (§2.4) plays out
*through* this layer on real systems: after churn, a refill batch is
assembled from the scrambled global free lists, so the locality a batch
provides decays as the system ages.

Modelled here as an optional layer (``GuestConfig.pcp_enabled``) so the
pcp-vs-fragmentation interaction can be studied as an ablation; the
calibrated default platform keeps it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import OutOfMemoryError
from ..obs.profile import PROFILER
from .buddy import BuddyAllocator
from .physical import FrameState


@dataclass
class PcpStats:
    """Per-CPU cache activity counters."""

    hits: int = 0
    refills: int = 0
    drains: int = 0
    frees_cached: int = 0


class PerCpuPageCache:
    """Per-CPU order-0 page caches over one buddy allocator.

    Parameters
    ----------
    buddy:
        The backing allocator.
    cpus:
        Number of per-CPU lists.
    batch:
        Pages moved per refill/drain (Linux's ``pcp->batch``).
    high:
        Watermark above which a CPU's list drains (Linux's ``pcp->high``).
    """

    def __init__(
        self,
        buddy: BuddyAllocator,
        cpus: int,
        batch: int = 16,
        high: int = 48,
    ) -> None:
        if cpus <= 0 or batch <= 0 or high < batch:
            raise ValueError("need cpus > 0, batch > 0, high >= batch")
        self.buddy = buddy
        self.cpus = cpus
        self.batch = batch
        self.high = high
        self._lists: Dict[int, List[int]] = {cpu: [] for cpu in range(cpus)}
        self.stats = PcpStats()

    def _check_cpu(self, cpu: int) -> int:
        return cpu % self.cpus

    def cached_frames(self, cpu: Optional[int] = None) -> int:
        """Frames currently held in pcp lists (one CPU or all)."""
        if cpu is not None:
            return len(self._lists[self._check_cpu(cpu)])
        return sum(len(entries) for entries in self._lists.values())

    def alloc_frame(self, cpu: int, state: FrameState = FrameState.USER) -> int:
        """Allocate one frame from ``cpu``'s cache (LIFO), refilling on
        demand from the buddy core."""
        cpu = self._check_cpu(cpu)
        entries = self._lists[cpu]
        if not entries:
            self._refill(cpu)
            entries = self._lists[cpu]
        else:
            self.stats.hits += 1
            if PROFILER.enabled:
                PROFILER.add(("alloc", "pcp", "hit"), 0)
        frame = entries.pop()
        san = self.buddy.sanitizer
        if san is not None:
            san.on_pcp_take(frame, cpu)
        self.buddy.memory.set_state(frame, state)
        return frame

    def _refill(self, cpu: int) -> None:
        """Pull up to ``batch`` order-0 pages from the buddy core."""
        entries = self._lists[cpu]
        for _ in range(self.batch):
            try:
                frame = self.buddy.alloc_frame(
                    owner=None, state=FrameState.KERNEL
                )
            except OutOfMemoryError:
                break
            entries.append(frame)
            san = self.buddy.sanitizer
            if san is not None:
                san.on_pcp_fill(frame, cpu)
        if not entries:
            raise OutOfMemoryError(
                f"{self.buddy.memory.name}: pcp refill found no free pages"
            )
        self.stats.refills += 1
        if PROFILER.enabled:
            PROFILER.add(("alloc", "pcp", "refill"), 0, count=len(entries))

    def free_frame(self, cpu: int, frame: int) -> None:
        """Return one frame to ``cpu``'s cache, draining past the
        watermark."""
        cpu = self._check_cpu(cpu)
        self.buddy.memory.set_state(frame, FrameState.KERNEL)
        entries = self._lists[cpu]
        entries.append(frame)
        san = self.buddy.sanitizer
        if san is not None:
            san.on_pcp_fill(frame, cpu)
        self.stats.frees_cached += 1
        if len(entries) > self.high:
            self._drain(cpu)

    def _drain(self, cpu: int) -> None:
        """Push ``batch`` pages from ``cpu``'s cache back to the buddy."""
        entries = self._lists[cpu]
        drained = min(self.batch, len(entries))
        san = self.buddy.sanitizer
        for _ in range(drained):
            frame = entries.pop(0)
            if san is not None:
                san.on_pcp_take(frame, cpu)
            self.buddy.free(frame)
        self.stats.drains += 1
        if PROFILER.enabled:
            PROFILER.add(("alloc", "pcp", "drain"), 0, count=drained)

    def drain_all(self) -> None:
        """Return every cached page to the buddy (offline/teardown)."""
        san = self.buddy.sanitizer
        for cpu, entries in self._lists.items():
            while entries:
                frame = entries.pop()
                if san is not None:
                    san.on_pcp_take(frame, cpu)
                self.buddy.free(frame)

    @property
    def free_frames_total(self) -> int:
        """Free frames counting both the buddy core and pcp caches."""
        return self.buddy.free_frames + self.cached_frames()
