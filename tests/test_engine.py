"""Integration tests for the simulation engine."""

import hashlib
import json

import pytest

from repro import PlatformConfig, Simulation, SimulationError
from repro.config import GuestConfig, HostConfig
from repro.metrics.collect import snapshot_simulation
from repro.units import MB
from repro.workloads import (
    LowPressureSpec,
    PageRank,
    ScriptedWorkload,
    StressNg,
    WorkloadPhase,
)
from repro.workloads.base import (
    AccessOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    PhaseOp,
    Workload,
)


class TinyWorkload(Workload):
    """Minimal deterministic workload for engine tests."""

    def __init__(self, npages=16, repeat=3, seed=0):
        super().__init__("tiny", seed)
        self.npages = npages
        self.repeat = repeat

    @property
    def footprint_pages(self):
        return self.npages

    def ops(self):
        yield MmapOp("data", self.npages)
        yield PhaseOp(WorkloadPhase.INIT)
        for page in range(self.npages):
            yield AccessOp("data", page, write=True)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for _ in range(self.repeat):
            for page in range(self.npages):
                yield AccessOp("data", page, block=page % 64)
        yield FreeOp("data")
        yield PhaseOp(WorkloadPhase.DONE)


def small_platform(**guest_kwargs):
    return PlatformConfig(
        host=HostConfig(memory_bytes=64 * MB),
        guest=GuestConfig(memory_bytes=32 * MB, **guest_kwargs),
    )


class TestBasicExecution:
    def test_run_to_completion(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        assert run.finished
        assert run.current_phase is WorkloadPhase.DONE

    def test_pages_faulted_and_freed(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=16))
        sim.run_until_finished(run)
        assert run.process.faults == 16
        assert run.process.rss_pages == 0  # FreeOp released everything

    def test_measurement_window(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=16, repeat=2))
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        run.start_measurement()
        sim.run_until_finished(run)
        result = sim.result_for(run)
        # Only compute accesses counted: 2 sweeps of 16 pages.
        assert result.counters.accesses == 32
        assert result.counters.cycles > 0

    def test_unmeasured_run_counts_nothing(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        assert run.counters.accesses == 0

    def test_phase_navigation(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_phase(run, WorkloadPhase.INIT)
        assert run.current_phase is WorkloadPhase.INIT
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        assert run.current_phase is WorkloadPhase.COMPUTE

    def test_stop_run(self):
        sim = Simulation(small_platform())
        primary = sim.add_workload(TinyWorkload())
        co = sim.add_workload(StressNg(seed=1))
        sim.stop(co)
        sim.run_until_finished(primary)
        assert co.finished
        assert primary.finished

    def test_results_bundle(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        results = sim.results()
        assert results.run("tiny") is not None
        assert results.run("absent") is None
        assert results.turns == sim.turns


class TestTranslationPath:
    def test_tlb_warms_up(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8, repeat=4))
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        run.start_measurement()
        sim.run_until_finished(run)
        # After the first compute sweep, the 8 pages live in the TLB.
        assert run.counters.tlb_misses < run.counters.accesses

    def test_walks_translate_to_host_frames(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=4))
        sim.run_until_finished(run)
        assert sim.host.stats.pages_backed >= 4

    def test_fast_forward_skips_timing(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8))
        run.fast_forward = True
        run.start_measurement()
        sim.run_until_finished(run)
        assert run.counters.accesses == 0  # nothing timed
        assert run.process.faults == 8  # but faults happened

    def test_fast_forward_backs_host_frames(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8))
        run.fast_forward = True
        sim.run_until_finished(run)
        assert sim.host.stats.pages_backed >= 8

    def test_access_to_unknown_region_raises(self):
        class Broken(Workload):
            @property
            def footprint_pages(self):
                return 1

            def ops(self):
                yield AccessOp("ghost", 0)

        sim = Simulation(small_platform())
        run = sim.add_workload(Broken("broken"))
        with pytest.raises(SimulationError):
            sim.run_until_finished(run)

    def test_access_beyond_region_raises(self):
        class Broken(Workload):
            @property
            def footprint_pages(self):
                return 1

            def ops(self):
                yield MmapOp("r", 1)
                yield AccessOp("r", 5)

        sim = Simulation(small_platform())
        run = sim.add_workload(Broken("broken"))
        with pytest.raises(SimulationError):
            sim.run_until_finished(run)


class TestColocationEffects:
    def test_colocation_fragments_host_pt(self):
        def fragmentation(colocated):
            sim = Simulation(small_platform())
            sim.scheduler.ops_per_slice = 2
            if colocated:
                co = sim.add_workload(StressNg(seed=1), weight=4)
                co.fast_forward = True
                for _ in range(300):
                    sim.turn()
            bench = sim.add_workload(PageRank(seed=0, scale=0.2))
            sim.run_until_finished(bench)
            from repro.metrics.fragmentation import host_pt_fragmentation

            return host_pt_fragmentation(bench.process)

        isolated = fragmentation(False)
        colocated = fragmentation(True)
        assert colocated > isolated + 1.0

    def test_ptemagnet_pins_fragmentation_to_one(self):
        sim = Simulation(small_platform(ptemagnet_enabled=True))
        sim.scheduler.ops_per_slice = 2
        co = sim.add_workload(StressNg(seed=1), weight=4)
        co.fast_forward = True
        for _ in range(300):
            sim.turn()
        bench = sim.add_workload(PageRank(seed=0, scale=0.2))
        sim.run_until_finished(bench)
        from repro.metrics.fragmentation import host_pt_fragmentation

        assert host_pt_fragmentation(bench.process) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        def run_once():
            sim = Simulation(small_platform())
            run = sim.add_workload(TinyWorkload(npages=16, repeat=2))
            sim.run_until_phase(run, WorkloadPhase.COMPUTE)
            run.start_measurement()
            sim.run_until_finished(run)
            return sim.result_for(run).counters.cycles

        assert run_once() == run_once()


# --------------------------------------------------------------------- #
# Output pin: canonical snapshots of four small scenarios
# --------------------------------------------------------------------- #


def _digest(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def _colocated_snapshot():
    """StressNg churn beside a 64-page leela: walks, L1 DTLB evictions,
    L2 promotions and TLB-hit/L1-hit accesses in one run."""
    sim = Simulation(small_platform())
    churn = sim.add_workload(StressNg(seed=1))
    bench = sim.add_workload(
        LowPressureSpec("leela", 0, accesses=4000, footprint=64)
    )
    bench.start_measurement()
    sim.run_until_finished(bench)
    sim.stop(churn)
    result = sim.result_for(bench)
    return snapshot_simulation("bench", sim, result).to_dict()


def _ptemagnet_reclaim_snapshot():
    """The colocated scenario on a PTEMagnet guest whose reclaim
    watermark sits above its free fraction: the fast-forwarded churn
    faults through the PaRT and frees whole reservations, and the reclaim
    daemon steals reserved pages on 30 of the 67 turns."""
    sim = Simulation(
        small_platform(ptemagnet_enabled=True, reclaim_threshold=0.7)
    )
    churn = sim.add_workload(StressNg(seed=1))
    churn.fast_forward = True
    bench = sim.add_workload(
        LowPressureSpec("leela", 0, accesses=4000, footprint=64)
    )
    bench.start_measurement()
    sim.run_until_finished(bench)
    sim.stop(churn)
    assert len(sim.kernel.stats.reclaim_reports) == 30
    result = sim.result_for(bench)
    return snapshot_simulation("bench", sim, result).to_dict()


def _run_script(script, ops_per_slice=7):
    """Run ``script`` alone; returns (snapshot dict, ops_executed per turn)."""
    sim = Simulation(small_platform())
    sim.scheduler.ops_per_slice = ops_per_slice
    run = sim.add_workload(ScriptedWorkload("scripted", script))
    run.start_measurement()
    per_turn = []
    while not run.finished:
        sim.turn()
        per_turn.append(run.ops_executed)
    result = sim.result_for(run)
    return snapshot_simulation("bench", sim, result).to_dict(), per_turn


def _tlb_pressure_snapshot():
    """48 pages x 6 rounds: the footprint exceeds the 32-entry L1 DTLB,
    so TLB hits that miss the data L1 interleave with evictions."""
    script = [MmapOp("a", 48)]
    for r in range(6):
        script.extend(
            AccessOp("a", page, block=(page * 7 + r * 13) % 64)
            for page in range(48)
        )
    script.append(PhaseOp(WorkloadPhase.DONE))
    return _run_script(script)[0]


def _mixed_write_snapshot():
    """700 mixed loads and stores in 5-op slices."""
    script = [
        MmapOp("a", 8),
        *(
            AccessOp("a", page % 8, block=page % 64, write=bool(page % 3))
            for page in range(700)
        ),
        PhaseOp(WorkloadPhase.DONE),
    ]
    doc, per_turn = _run_script(script, ops_per_slice=5)
    assert per_turn[-1] == len(script)
    return doc


#: sha256 of each scenario's canonical snapshot JSON. Any change to
#: modelled behaviour -- TLB, walker, caches, faults, counters -- moves
#: at least one of these.
PINNED_DIGESTS = {
    "colocated": (
        "f8c7b9f41068a98b0bd5fc1c7ae5d2c6ba45a95d1ee5a0480aa2d44a017eae49"
    ),
    "tlb-pressure": (
        "af4ed43c982f86612267be0250cd077617a1553caa41011c18f3e0ef133aacc8"
    ),
    "mixed-write": (
        "d84167360542f8ae5ae3010e494c3c92fa92e7b4a9562ec025d782c63391082c"
    ),
    "ptemagnet-reclaim": (
        "4a49bd28d50b18a7d4b742d6ced660395cc816f2015d3d10a19a209f0245c687"
    ),
}

SCENARIOS = {
    "colocated": _colocated_snapshot,
    "tlb-pressure": _tlb_pressure_snapshot,
    "mixed-write": _mixed_write_snapshot,
    "ptemagnet-reclaim": _ptemagnet_reclaim_snapshot,
}


class TestOutputPin:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_snapshot_digest_pinned(self, scenario):
        assert _digest(SCENARIOS[scenario]()) == PINNED_DIGESTS[scenario]

    def test_phase_boundary_ends_slice_early(self):
        # A phase op mid-stream ends that slice, so phase-triggered
        # co-runner start/stop stays turn-exact: the first slice is
        # mmap + 5 accesses + the phase op, not the 16-op budget.
        script = [
            MmapOp("a", 8),
            *(AccessOp("a", page % 8, block=0) for page in range(5)),
            PhaseOp(WorkloadPhase.COMPUTE),
            *(AccessOp("a", page % 8, block=0) for page in range(20)),
            PhaseOp(WorkloadPhase.DONE),
        ]
        per_turn = _run_script(script, ops_per_slice=16)[1]
        assert per_turn[0] == 7
