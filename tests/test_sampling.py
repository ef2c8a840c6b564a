"""Tests for turn-cadence sampling through a registered PeriodicSampler."""

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.obs.sampler import PeriodicSampler, TimeSeries
from repro.units import MB
from repro.workloads import ScriptedWorkload


def make_sim():
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
        )
    )


class TestTimeSeries:
    def test_empty(self):
        series = TimeSeries("x")
        assert series.peak == 0.0
        assert series.final == 0.0
        assert series.values() == []

    def test_peak_and_final(self):
        series = TimeSeries("x", [(0, 1.0), (50, 5.0), (100, 2.0)])
        assert series.peak == 5.0
        assert series.final == 2.0


class TestTurnSampler:
    def test_samples_on_cadence(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 400))
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=2))
        sampler.add_probe("rss", lambda s: run.process.rss_pages)
        sampler.run_until(lambda: run.finished)
        series = sampler.series["rss"]
        assert len(series.points) > 2
        assert series.final == 400
        # RSS grows monotonically for a touch-once workload.
        values = series.values()
        assert values == sorted(values)

    def test_multiple_probes(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=1))
        sampler.add_probe("free", lambda s: s.kernel.free_fraction)
        sampler.add_probe("turns", lambda s: s.turns)
        sampler.run_until(lambda: run.finished)
        assert len(sampler.series) == 2
        assert sampler.series["free"].final < 1.0

    def test_final_sample_always_taken(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 8))
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=10_000))
        sampler.add_probe("rss", lambda s: run.process.rss_pages)
        sampler.run_until(lambda: run.finished)
        assert sampler.series["rss"].final == 8
