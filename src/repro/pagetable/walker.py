"""Hardware page walker for one-dimensional (native) page walks.

The walker chases the radix tree from the root to the leaf, issuing one
memory access per level. Each access goes to the *physical address of the
PTE slot* and is served by the CPU cache hierarchy; page-walk caches (PWCs)
let the walker skip upper levels it has translated recently, exactly as on
real x86 hardware (§2.5). The nested 2D walker in :mod:`repro.virt.nested`
applies the same rules to both of its dimensions in one fused loop; this
walker stays as their readable 1D reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..obs.profile import PROFILER
from ..units import pte_address
from .pte import pte_frame
from .radix import PageTable

#: Signature of the memory-access callback: (physical_address, stream_tag)
#: -> latency in cycles. The stream tag attributes the access to a counter
#: family ("gpt", "hpt", "data", ...).
MemoryAccessFn = Callable[[int, str], int]


@dataclass
class WalkResult:
    """Outcome of one 1D page walk."""

    #: Translated physical frame, or ``None`` if the walk hit a hole
    #: (not-present entry) -- i.e. a page fault.
    frame: Optional[int]
    #: Total walk latency in cycles (sum of serialized PTE accesses).
    cycles: int
    #: Number of PT memory accesses issued (PWC hits skip accesses).
    accesses: int
    #: Deepest level the walk reached (1 = leaf).
    deepest_level: int
    #: ``(level, pte_physical_address, latency)`` per issued access.
    trace: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        """True if the walk found no present translation."""
        return self.frame is None


class PageWalker:
    """Walks one :class:`~repro.pagetable.radix.PageTable`.

    Parameters
    ----------
    page_table:
        The table to walk.
    memory_access:
        Callback performing one cache-hierarchy access; see
        :data:`MemoryAccessFn`.
    pwc:
        Optional page-walk cache (see :class:`repro.cache.pwc.PageWalkCache`);
        when present, hits skip upper-level accesses.
    stream:
        Tag passed to ``memory_access`` for counter attribution.
    """

    def __init__(
        self,
        page_table: PageTable,
        memory_access: MemoryAccessFn,
        pwc: Optional["object"] = None,
        stream: str = "pt",
    ) -> None:
        self.page_table = page_table
        self.memory_access = memory_access
        self.pwc = pwc
        self.stream = stream
        self.walks = 0
        self.total_cycles = 0
        #: Profiler attribution prefix for this walker's accesses. A 2D
        #: walk composed from this walker rebinds it per step (``("walk",
        #: "hpt", "gl3")`` etc.) so each host access lands in the right
        #: cell of the guest-level x host-level attribution matrix.
        self.profile_context: Tuple[str, ...] = ("walk", stream)
        #: Optional cache hierarchy behind ``memory_access``; when set,
        #: profiled steps are additionally keyed by serving cache level.
        self.hierarchy: Optional["object"] = None

    def walk(self, vpn: int, record_trace: bool = False) -> WalkResult:
        """Translate ``vpn``, issuing PT accesses through the hierarchy."""
        levels = self.page_table.levels
        path, leaf_pte = self.page_table.walk_path_and_pte(vpn)
        start_depth = 0
        if self.pwc is not None:
            hit_level = self.pwc.lookup(vpn)
            if hit_level is not None:
                # A hit at `hit_level` lets the walk start by accessing
                # that node, skipping all levels above it.
                start_depth = min(levels - hit_level, len(path))
        cycles = 0
        accesses = 0
        trace: List[Tuple[int, int, int]] = []
        deepest = path[-1][0] if path else levels
        for level, node_frame, index in path[start_depth:]:
            addr = pte_address(node_frame, index)
            latency = self.memory_access(addr, self.stream)
            cycles += latency
            accesses += 1
            if PROFILER.enabled:
                step = self.profile_context + (f"hl{level}",)
                if self.hierarchy is not None:
                    step += (self.hierarchy.last_outcome.name.lower(),)
                PROFILER.add(step, latency)
            if record_trace:
                trace.append((level, addr, latency))
            if self.pwc is not None:
                self.pwc.fill(vpn, level)
        frame = None
        if leaf_pte is not None:
            frame = pte_frame(leaf_pte)
            deepest = 1
        self.walks += 1
        self.total_cycles += cycles
        return WalkResult(
            frame=frame,
            cycles=cycles,
            accesses=accesses,
            deepest_level=deepest,
            trace=trace,
        )
