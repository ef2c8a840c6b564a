"""Standard metric collectors: simulator state -> metrics snapshots.

Declares the canonical metric schema (every :class:`PerfCounters` /
``KernelStats`` / meminfo / cache-stream / host-kernel quantity under a
stable dotted name in :data:`~repro.metrics.registry.REGISTRY`) and the
collector functions that fill a :class:`MetricsSnapshot` from live
simulator objects. Experiments, benchmarks and the runner's
``--metrics-out`` all build their snapshot documents through
:func:`snapshot_run_result` / :func:`snapshot_outcome`, so every JSON the
project emits speaks the same schema.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .registry import REGISTRY, MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..cache.hierarchy import CacheHierarchy
    from ..os.kernel import GuestKernel, KernelStats
    from ..sim.results import RunResult
    from ..virt.hypervisor import HostStats
    from .counters import PerfCounters


# ---------------------------------------------------------------------- #
# Canonical schema: one registration per metric, literal dotted names
# (registration rejects any other shape on import).
# ---------------------------------------------------------------------- #

REGISTRY.counter("perf.cycles", "modelled execution time of the measured window", "cycles")
REGISTRY.counter("perf.accesses", "application memory accesses issued", "accesses")
REGISTRY.counter("perf.data_memory_accesses", "data-stream accesses served by main memory", "accesses")
REGISTRY.counter("perf.tlb_misses", "complete TLB misses (triggered a 2D walk)", "misses")
REGISTRY.counter("perf.walk_cycles", "total cycles spent in page walks", "cycles")
REGISTRY.counter("perf.host_walk_cycles", "walk cycles spent traversing the host PT", "cycles")
REGISTRY.counter("perf.gpt_accesses", "guest-PT entry accesses", "accesses")
REGISTRY.counter("perf.gpt_memory_accesses", "guest-PT accesses served by main memory", "accesses")
REGISTRY.counter("perf.hpt_accesses", "host-PT entry accesses", "accesses")
REGISTRY.counter("perf.hpt_memory_accesses", "host-PT accesses served by main memory", "accesses")
REGISTRY.counter("perf.faults", "page faults taken in the measured window", "faults")
REGISTRY.counter("perf.fault_cycles", "cycles spent in fault handling", "cycles")
REGISTRY.gauge("perf.host_pt_fragmentation", "host-PT fragmentation metric at window end")
REGISTRY.gauge("perf.fragmented_group_fraction", "fraction of groups scattered to 8 hPTE blocks")
REGISTRY.gauge("perf.tlb_miss_rate", "TLB misses per application access")
REGISTRY.gauge("perf.gpt_memory_fraction", "fraction of gPT accesses served by memory")
REGISTRY.gauge("perf.hpt_memory_fraction", "fraction of hPT accesses served by memory")
REGISTRY.histogram("perf.fault_latencies", "per-fault handler latency distribution", "cycles")

REGISTRY.counter("kernel.faults", "page faults handled by the guest kernel", "faults")
REGISTRY.counter("kernel.default_faults", "faults served by the default single-page path", "faults")
REGISTRY.counter("kernel.reservation_hit_faults", "faults served from an existing reservation", "faults")
REGISTRY.counter("kernel.reservation_new_faults", "faults that created a reservation", "faults")
REGISTRY.counter("kernel.fallback_faults", "PTEMagnet faults falling back to single pages", "faults")
REGISTRY.counter("kernel.cow_faults", "copy-on-write breaks", "faults")
REGISTRY.counter("kernel.spurious_faults", "faults on already-present pages", "faults")
REGISTRY.counter("kernel.thp_faults", "THP huge-mapping faults", "faults")
REGISTRY.counter("kernel.thp_fallback_faults", "THP faults stalled into 4KB fallback", "faults")
REGISTRY.counter("kernel.thp_splits", "huge mappings demoted to 4KB", "splits")
REGISTRY.counter("kernel.ca_contiguous_faults", "CA-paging faults extending contiguity", "faults")
REGISTRY.counter("kernel.ca_fallback_faults", "CA-paging faults on a taken target frame", "faults")
REGISTRY.counter("kernel.pages_freed", "pages released back by the guest kernel", "pages")
REGISTRY.counter("kernel.fault_cycles", "kernel-wide cycles spent in fault handling", "cycles")
REGISTRY.counter("kernel.reclaim_invocations", "reservation-reclaim daemon passes", "passes")
REGISTRY.counter("kernel.reclaim_pages_released", "reserved pages released under pressure", "pages")
REGISTRY.histogram("kernel.fault_latencies", "kernel-wide fault latency distribution", "cycles")

REGISTRY.gauge("mem.total_pages", "guest physical memory size", "pages")
REGISTRY.gauge("mem.free_pages", "buddy-core free pages", "pages")
REGISTRY.gauge("mem.pcp_cached_pages", "pages held in per-CPU caches", "pages")
REGISTRY.gauge("mem.user_pages", "pages mapped to applications", "pages")
REGISTRY.gauge("mem.page_table_pages", "pages holding guest page-table nodes", "pages")
REGISTRY.gauge("mem.reserved_pages", "PTEMagnet-reserved, unmapped pages", "pages")
REGISTRY.gauge("mem.kernel_pages", "other kernel-owned pages", "pages")
REGISTRY.gauge("mem.free_fraction", "fraction of guest physical memory free")

REGISTRY.counter("host.ept_faults", "EPT violations taken by the host", "faults")
REGISTRY.counter("host.pages_backed", "guest frames backed by the host", "pages")
REGISTRY.counter("host.pages_unbacked", "guest frames released by the host", "pages")

REGISTRY.counter("run.faults_total", "lifetime faults of the measured process", "faults")
REGISTRY.counter("run.reservation_hits", "lifetime reservation hits of the process", "faults")
REGISTRY.counter("run.ops_executed", "workload operations executed", "ops")
REGISTRY.gauge("run.rss_pages", "resident set size at run end", "pages")
REGISTRY.counter("sim.turns", "scheduler turns executed", "turns")

#: Cache streams registered with literal names (others register lazily).
REGISTRY.counter("cache.data.accesses", "data-stream accesses", "accesses")
REGISTRY.counter("cache.data.cycles", "data-stream access cycles", "cycles")
REGISTRY.counter("cache.data.served_l1", "data accesses served by L1", "accesses")
REGISTRY.counter("cache.data.served_l2", "data accesses served by L2", "accesses")
REGISTRY.counter("cache.data.served_llc", "data accesses served by the LLC", "accesses")
REGISTRY.counter("cache.data.served_memory", "data accesses served by main memory", "accesses")
REGISTRY.counter("cache.gpt.accesses", "guest-PT-stream accesses", "accesses")
REGISTRY.counter("cache.gpt.cycles", "guest-PT-stream access cycles", "cycles")
REGISTRY.counter("cache.gpt.served_l1", "gPT accesses served by L1", "accesses")
REGISTRY.counter("cache.gpt.served_l2", "gPT accesses served by L2", "accesses")
REGISTRY.counter("cache.gpt.served_llc", "gPT accesses served by the LLC", "accesses")
REGISTRY.counter("cache.gpt.served_memory", "gPT accesses served by main memory", "accesses")
REGISTRY.counter("cache.hpt.accesses", "host-PT-stream accesses", "accesses")
REGISTRY.counter("cache.hpt.cycles", "host-PT-stream access cycles", "cycles")
REGISTRY.counter("cache.hpt.served_l1", "hPT accesses served by L1", "accesses")
REGISTRY.counter("cache.hpt.served_l2", "hPT accesses served by L2", "accesses")
REGISTRY.counter("cache.hpt.served_llc", "hPT accesses served by the LLC", "accesses")
REGISTRY.counter("cache.hpt.served_memory", "hPT accesses served by main memory", "accesses")


# ---------------------------------------------------------------------- #
# Collectors
# ---------------------------------------------------------------------- #

def collect_perf_counters(
    snapshot: MetricsSnapshot, counters: "PerfCounters"
) -> None:
    """Record every :class:`PerfCounters` field under ``perf.*``."""
    snapshot.set("perf.cycles", counters.cycles)
    snapshot.set("perf.accesses", counters.accesses)
    snapshot.set("perf.data_memory_accesses", counters.data_memory_accesses)
    snapshot.set("perf.tlb_misses", counters.tlb_misses)
    snapshot.set("perf.walk_cycles", counters.walk_cycles)
    snapshot.set("perf.host_walk_cycles", counters.host_walk_cycles)
    snapshot.set("perf.gpt_accesses", counters.gpt_accesses)
    snapshot.set("perf.gpt_memory_accesses", counters.gpt_memory_accesses)
    snapshot.set("perf.hpt_accesses", counters.hpt_accesses)
    snapshot.set("perf.hpt_memory_accesses", counters.hpt_memory_accesses)
    snapshot.set("perf.faults", counters.faults)
    snapshot.set("perf.fault_cycles", counters.fault_cycles)
    snapshot.set("perf.host_pt_fragmentation", counters.host_pt_fragmentation)
    snapshot.set(
        "perf.fragmented_group_fraction", counters.fragmented_group_fraction
    )
    snapshot.set("perf.tlb_miss_rate", counters.tlb_miss_rate)
    snapshot.set("perf.gpt_memory_fraction", counters.gpt_memory_fraction)
    snapshot.set("perf.hpt_memory_fraction", counters.hpt_memory_fraction)
    snapshot.set("perf.fault_latencies", counters.fault_latencies.snapshot())


def collect_kernel_stats(
    snapshot: MetricsSnapshot, stats: "KernelStats"
) -> None:
    """Record guest-kernel activity counters under ``kernel.*``."""
    snapshot.set("kernel.faults", stats.faults)
    snapshot.set("kernel.default_faults", stats.default_faults)
    snapshot.set("kernel.reservation_hit_faults", stats.reservation_hit_faults)
    snapshot.set("kernel.reservation_new_faults", stats.reservation_new_faults)
    snapshot.set("kernel.fallback_faults", stats.fallback_faults)
    snapshot.set("kernel.cow_faults", stats.cow_faults)
    snapshot.set("kernel.spurious_faults", stats.spurious_faults)
    snapshot.set("kernel.thp_faults", stats.thp_faults)
    snapshot.set("kernel.thp_fallback_faults", stats.thp_fallback_faults)
    snapshot.set("kernel.thp_splits", stats.thp_splits)
    snapshot.set("kernel.ca_contiguous_faults", stats.ca_contiguous_faults)
    snapshot.set("kernel.ca_fallback_faults", stats.ca_fallback_faults)
    snapshot.set("kernel.pages_freed", stats.pages_freed)
    snapshot.set("kernel.fault_cycles", stats.fault_cycles)
    invoked = [report for report in stats.reclaim_reports if report.invoked]
    snapshot.set("kernel.reclaim_invocations", len(invoked))
    snapshot.set(
        "kernel.reclaim_pages_released",
        sum(report.pages_released for report in invoked),
    )
    snapshot.set("kernel.fault_latencies", stats.fault_latencies.snapshot())


def collect_meminfo(snapshot: MetricsSnapshot, kernel: "GuestKernel") -> None:
    """Record the meminfo breakdown under ``mem.*``."""
    counts = kernel.meminfo()
    snapshot.set("mem.total_pages", counts["total"])
    snapshot.set("mem.free_pages", counts["free"])
    snapshot.set("mem.pcp_cached_pages", counts["pcp_cached"])
    snapshot.set("mem.user_pages", counts["user"])
    snapshot.set("mem.page_table_pages", counts["page_tables"])
    snapshot.set("mem.reserved_pages", counts["reserved"])
    snapshot.set("mem.kernel_pages", counts["kernel"])
    snapshot.set("mem.free_fraction", kernel.free_fraction)


def collect_host_stats(snapshot: MetricsSnapshot, stats: "HostStats") -> None:
    """Record host-kernel activity under ``host.*``."""
    snapshot.set("host.ept_faults", stats.ept_faults)
    snapshot.set("host.pages_backed", stats.pages_backed)
    snapshot.set("host.pages_unbacked", stats.pages_unbacked)


def collect_cache_streams(
    snapshot: MetricsSnapshot, hierarchy: "CacheHierarchy"
) -> None:
    """Record per-stream served-by-level tallies under ``cache.<stream>.*``.

    The standard streams (data/gpt/hpt) are pre-registered with literal
    names; any other stream tag registers its metrics here (validated at
    registration).
    """
    from ..cache.hierarchy import AccessOutcome

    for stream in sorted(hierarchy.streams):
        counters = hierarchy.streams[stream]
        base = f"cache.{stream}"
        snapshot.registry.counter(f"{base}.accesses")
        snapshot.registry.counter(f"{base}.cycles")
        snapshot.set(f"{base}.accesses", counters.accesses)
        snapshot.set(f"{base}.cycles", counters.cycles)
        for outcome in AccessOutcome:
            name = f"{base}.served_{outcome.name.lower()}"
            snapshot.registry.counter(name)
            snapshot.set(name, counters.served_by[outcome])


# ---------------------------------------------------------------------- #
# High-level snapshot builders
# ---------------------------------------------------------------------- #

def snapshot_run_result(label: str, result: "RunResult") -> MetricsSnapshot:
    """Snapshot one :class:`~repro.sim.results.RunResult`."""
    snapshot = MetricsSnapshot(label)
    collect_perf_counters(snapshot, result.counters)
    snapshot.set("run.rss_pages", result.rss_pages)
    snapshot.set("run.faults_total", result.faults_total)
    snapshot.set("run.reservation_hits", result.reservation_hits)
    snapshot.set("run.ops_executed", result.ops_executed)
    return snapshot


def snapshot_outcome(label: str, outcome) -> MetricsSnapshot:
    """Snapshot one :class:`~repro.experiments.common.ColocationOutcome`.

    Combines the benchmark's perf counters with whole-simulation state
    (kernel stats, meminfo, host stats, shared-cache streams, turns) and
    attaches the outcome's measurement-window profile tree when one was
    recorded (``--profile`` / :data:`~repro.obs.profile.PROFILER`).
    """
    snapshot = snapshot_run_result(label, outcome.benchmark)
    sim = outcome.simulation
    collect_kernel_stats(snapshot, sim.kernel.stats)
    collect_meminfo(snapshot, sim.kernel)
    collect_host_stats(snapshot, sim.host.stats)
    if sim.runs:
        collect_cache_streams(snapshot, sim.runs[0].core.hierarchy)
    snapshot.set("sim.turns", sim.turns)
    profile = getattr(outcome, "profile", None)
    if profile is not None:
        snapshot.profile = profile
    return snapshot


def snapshot_simulation(
    label: str, sim, run_result: Optional["RunResult"] = None
) -> MetricsSnapshot:
    """Snapshot a :class:`~repro.sim.engine.Simulation` directly.

    ``run_result`` (when given) contributes the ``perf.*`` / ``run.*``
    families; otherwise only whole-simulation metrics are recorded.
    """
    if run_result is not None:
        snapshot = snapshot_run_result(label, run_result)
    else:
        snapshot = MetricsSnapshot(label)
    collect_kernel_stats(snapshot, sim.kernel.stats)
    collect_meminfo(snapshot, sim.kernel)
    collect_host_stats(snapshot, sim.host.stats)
    if sim.runs:
        collect_cache_streams(snapshot, sim.runs[0].core.hierarchy)
    snapshot.set("sim.turns", sim.turns)
    return snapshot
