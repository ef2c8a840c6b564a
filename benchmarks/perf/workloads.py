"""The benchmark's four workloads, built from the paper's experiment code.

Each workload is a list of *units*: one call into an experiment function
(``compare_kernels``, ``run_sec62``, ...) under the default engine and the
default :class:`~repro.config.PlatformConfig` (its own seed stays 42; the
workload seed goes to every ``make_*``/``compare_kernels``/``run_*`` call).
A unit returns its modelled outputs as JSON-safe documents, one per
*cell*; the harness digests each cell against ``golden.json`` and checks
it against the workload's invariants, which hold for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.config import PlatformConfig
from repro.experiments.common import (
    OPS_PER_SLICE,
    PRECHURN_TURNS,
    WARMUP_TURNS,
    compare_kernels,
)
from repro.experiments.figure5 import OBJDET_WEIGHT
from repro.experiments.sec62 import run_adversarial_sec62, run_sec62
from repro.experiments.sec64 import run_sec64
from repro.metrics.collect import snapshot_outcome, snapshot_simulation
from repro.sim.engine import Simulation
from repro.workloads.base import WorkloadPhase
from repro.workloads.registry import make_corunner
from repro.workloads.spec import LowPressureSpec

#: cell label -> modelled-output document.
CellDocs = Dict[str, dict]


@dataclass(frozen=True)
class Unit:
    """One experiment-function call and the cells it produces."""

    label: str
    cells: Tuple[str, ...]
    run: Callable[[], CellDocs]


@dataclass(frozen=True)
class Workload:
    """A named set of units plus the invariants its outputs must meet."""

    name: str
    why: str
    units: Callable[[int], List[Unit]]
    #: (cell label, document) -> problems found; empty when correct.
    check: Callable[[str, dict], List[str]]


def _metric(doc: dict, name: str):
    return doc["metrics"][name]["value"]


# ---------------------------------------------------------------------- #
# fig6-colocated: Figure 6 / Table 4 cells, objdet live throughout.
# ---------------------------------------------------------------------- #

FIG6_BENCHMARKS = ("xz", "pagerank")


def _compare(name: str, seed: int) -> CellDocs:
    comparison = compare_kernels(
        PlatformConfig(), name, [("objdet", OBJDET_WEIGHT)], seed=seed
    )
    return {
        f"{name}.default": snapshot_outcome(
            "default", comparison.default
        ).to_dict(),
        f"{name}.ptemagnet": snapshot_outcome(
            "ptemagnet", comparison.ptemagnet
        ).to_dict(),
    }


def _fig6_units(seed: int) -> List[Unit]:
    return [
        Unit(
            f"compare_kernels.{name}",
            (f"{name}.default", f"{name}.ptemagnet"),
            partial(_compare, name, seed),
        )
        for name in FIG6_BENCHMARKS
    ]


def _fig6_check(cell: str, doc: dict) -> List[str]:
    problems = []
    hits = _metric(doc, "kernel.reservation_hit_faults")
    if cell.endswith(".default") and hits != 0:
        problems.append(f"default kernel served {hits} reservation hits")
    if cell.endswith(".ptemagnet"):
        if hits <= 0:
            problems.append("PTEMagnet served no fault from a reservation")
        # Figure 5: PTEMagnet pins host-PT fragmentation near 1.
        fragmentation = _metric(doc, "perf.host_pt_fragmentation")
        if not 1.0 <= fragmentation <= 1.5:
            problems.append(f"host-PT fragmentation {fragmentation}")
    if _metric(doc, "perf.tlb_misses") <= 0:
        problems.append("no TLB misses in a TLB-pressured window")
    return problems


# ---------------------------------------------------------------------- #
# sec62-churn: §6.2 occupancy sampling, all fast-forward.
# ---------------------------------------------------------------------- #

SEC62_BENCHMARKS = ("pagerank", "xz", "mcf", "gcc")


def _sec62(seed: int) -> CellDocs:
    result = run_sec62(PlatformConfig(), benchmarks=SEC62_BENCHMARKS, seed=seed)
    return {"peaks": {"peaks_percent": result.peaks()}}


def _sec62_adversarial(seed: int) -> CellDocs:
    ratio = run_adversarial_sec62(PlatformConfig(), seed=seed)
    return {"adversarial": {"adversarial_ratio": ratio}}


def _sec62_units(seed: int) -> List[Unit]:
    return [
        Unit("run_sec62", ("peaks",), partial(_sec62, seed)),
        Unit(
            "run_adversarial_sec62",
            ("adversarial",),
            partial(_sec62_adversarial, seed),
        ),
    ]


def _sec62_check(cell: str, doc: dict) -> List[str]:
    if cell == "adversarial":
        # Seven unmapped reserved pages per mapped page, by construction.
        ratio = doc["adversarial_ratio"]
        return [] if 6.0 <= ratio <= 7.0 else [f"adversarial ratio {ratio}"]
    peaks = doc["peaks_percent"]
    problems = []
    if sorted(peaks) != sorted(SEC62_BENCHMARKS):
        problems.append(f"sampled {sorted(peaks)}")
    # §6.2: unmapped reserved pages stay a small share of the footprint.
    problems.extend(
        f"{name} peak overhead {peak}%"
        for name, peak in sorted(peaks.items())
        if not 0.0 <= peak <= 5.0
    )
    return problems


# ---------------------------------------------------------------------- #
# sec64-alloc: §6.4 first-touch allocation microbenchmark.
# ---------------------------------------------------------------------- #


def _sec64(seed: int) -> CellDocs:
    result = run_sec64(PlatformConfig(), seed=seed)
    return {
        f"seed{seed}": {
            "default_cycles": result.default_cycles,
            "ptemagnet_cycles": result.ptemagnet_cycles,
            "change_percent": result.change_percent,
        }
    }


def _sec64_units(seed: int) -> List[Unit]:
    return [
        Unit(f"run_sec64.seed{s}", (f"seed{s}",), partial(_sec64, s))
        for s in (seed, seed + 1)
    ]


def _sec64_check(cell: str, doc: dict) -> List[str]:
    # §6.4: reservations never make allocation slower.
    if doc["ptemagnet_cycles"] > doc["default_cycles"]:
        return [f"PTEMagnet allocation slower: {doc['change_percent']}%"]
    return []


# ---------------------------------------------------------------------- #
# tlb-resident: the §6.1 low-pressure control stream, lengthened.
# ---------------------------------------------------------------------- #

TLB_RESIDENT_ACCESSES = 1_200_000
#: The whole stream: mmap, three phase markers, the init sweep and the
#: compute accesses.
TLB_RESIDENT_OPS = 4 + LowPressureSpec().footprint_pages + TLB_RESIDENT_ACCESSES


def _tlb_resident(seed: int) -> CellDocs:
    # run_colocated's procedure, with a lengthened LowPressureSpec in
    # place of the registry's 16k-access leela.
    sim = Simulation(PlatformConfig().with_ptemagnet(True))
    sim.scheduler.ops_per_slice = OPS_PER_SLICE
    corunner = sim.add_workload(
        make_corunner("objdet", seed), weight=OBJDET_WEIGHT
    )
    corunner.fast_forward = True
    for _ in range(PRECHURN_TURNS):
        sim.turn()
    bench = sim.add_workload(
        LowPressureSpec("leela", seed, accesses=TLB_RESIDENT_ACCESSES)
    )
    bench.fast_forward = True
    sim.run_until_phase(bench, WorkloadPhase.COMPUTE)
    bench.fast_forward = False
    sim.stop(corunner)
    for _ in range(WARMUP_TURNS):
        sim.turn()
    bench.start_measurement()
    sim.run_until_finished(bench)
    result = sim.result_for(bench)
    return {"leela": snapshot_simulation("leela", sim, result).to_dict()}


def _tlb_resident_units(seed: int) -> List[Unit]:
    return [Unit("leela", ("leela",), partial(_tlb_resident, seed))]


def _tlb_resident_check(cell: str, doc: dict) -> List[str]:
    problems = []
    ops = _metric(doc, "run.ops_executed")
    if ops != TLB_RESIDENT_OPS:
        problems.append(f"{ops} ops executed, expected {TLB_RESIDENT_OPS}")
    # The footprint fits the STLB reach: misses are cold misses only.
    if _metric(doc, "perf.tlb_miss_rate") > 0.001:
        problems.append(f"TLB miss rate {_metric(doc, 'perf.tlb_miss_rate')}")
    if _metric(doc, "perf.faults") != 0:
        problems.append("faults inside the measurement window")
    return problems


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig6-colocated",
            "Figure 6 / Table 4 cells (xz, pagerank, both kernels) with "
            "objdet live: nested-walk miss residue plus fault churn",
            _fig6_units,
            _fig6_check,
        ),
        Workload(
            "sec62-churn",
            "Section 6.2 runs, all fast-forward: PTEMagnet faults, PaRT, "
            "buddy, frees and reclaim; TLB, walker and caches idle",
            _sec62_units,
            _sec62_check,
        ),
        Workload(
            "sec64-alloc",
            "Section 6.4 first-touch microbenchmark: every access a TLB "
            "miss, a nested walk and a fault, with no frees",
            _sec64_units,
            _sec64_check,
        ),
        Workload(
            "tlb-resident",
            "Section 6.1 low-pressure stream, lengthened: fits the STLB, "
            "so step dispatch and hits dominate; walker and faults idle",
            _tlb_resident_units,
            _tlb_resident_check,
        ),
    )
}
