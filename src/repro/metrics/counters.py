"""Perf-counter-style measurement records.

:class:`PerfCounters` is the simulator's equivalent of the paper's perf
measurements (Tables 1 and 4): execution time, cache/TLB misses, page-walk
cycles split by dimension, and PT accesses served by main memory. The
simulation engine fills one per measured run; experiment code diffs two of
them with :func:`percent_change`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..obs.histogram import Log2Histogram


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1]).

    Returns 0.0 for an empty sequence. Used for fault/walk latency tails
    -- the "performance anomaly" axis on which THP-style approaches lose
    (§2.3, §7).
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return float(ordered[rank])


@dataclass
class PerfCounters:
    """Counters for one measured run of one application."""

    #: Modelled execution time in cycles.
    cycles: int = 0
    #: Memory accesses issued by the application (instruction proxy).
    accesses: int = 0
    #: Data-stream cache misses (LLC misses to memory).
    data_memory_accesses: int = 0
    #: Complete TLB misses (triggered a 2D page walk).
    tlb_misses: int = 0
    #: Total cycles spent in page walks.
    walk_cycles: int = 0
    #: Cycles of page walks spent traversing the host PT.
    host_walk_cycles: int = 0
    #: Guest-PT entry accesses, total and served by main memory.
    gpt_accesses: int = 0
    gpt_memory_accesses: int = 0
    #: Host-PT entry accesses, total and served by main memory.
    hpt_accesses: int = 0
    hpt_memory_accesses: int = 0
    #: Page faults taken and cycles spent in fault handling.
    faults: int = 0
    fault_cycles: int = 0
    #: Host-PT fragmentation metric at measurement end (§3.2).
    host_pt_fragmentation: float = 0.0
    #: Fraction of groups scattered to 8 distinct hPTE blocks.
    fragmented_group_fraction: float = 0.0
    #: Per-fault handler latency distribution (cycles), for tail
    #: analysis. A bounded log2 histogram -- memory stays O(1) no matter
    #: how many faults a run takes (the raw ``List[int]`` it replaces
    #: grew without bound on long runs).
    fault_latencies: Log2Histogram = field(default_factory=Log2Histogram)

    def fault_latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of fault-handler latency.

        Resolution is one log2 bucket (the histogram returns the bucket
        midpoint), which is ample for the order-of-magnitude tail
        comparisons of §2.3/§7. With zero recorded faults this returns
        0.0 (no latency observed), matching :func:`percentile` on an
        empty sequence.
        """
        return self.fault_latencies.percentile(fraction)

    @property
    def tlb_miss_rate(self) -> float:
        """Misses per application access."""
        return self.tlb_misses / self.accesses if self.accesses else 0.0

    @property
    def gpt_memory_fraction(self) -> float:
        """Fraction of gPT accesses served by main memory."""
        if not self.gpt_accesses:
            return 0.0
        return self.gpt_memory_accesses / self.gpt_accesses

    @property
    def hpt_memory_fraction(self) -> float:
        """Fraction of hPT accesses served by main memory."""
        if not self.hpt_accesses:
            return 0.0
        return self.hpt_memory_accesses / self.hpt_accesses

    @property
    def host_to_guest_memory_miss_ratio(self) -> float:
        """How many times more often walks miss to memory in the hPT than
        the gPT (the paper's headline 4.4x)."""
        if not self.gpt_memory_accesses:
            return float("inf") if self.hpt_memory_accesses else 0.0
        return self.hpt_memory_accesses / self.gpt_memory_accesses


def percent_change(before: float, after: float) -> float:
    """Signed percent change from ``before`` to ``after``.

    Matches the paper's convention: +11% means `after` is 11% larger.
    Returns 0.0 when ``before`` is zero and values are equal.
    """
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    return (after - before) / before * 100.0


@dataclass(frozen=True)
class MetricDelta:
    """One row of a Table-1/Table-4 style comparison."""

    name: str
    before: float
    after: float

    @property
    def change_percent(self) -> float:
        return percent_change(self.before, self.after)

    def formatted(self) -> str:
        sign = "+" if self.change_percent >= 0 else ""
        return f"{self.name}: {sign}{self.change_percent:.0f}%"
