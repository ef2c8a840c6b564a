"""Tests for repro.obs: histogram, sampler and the ``obs`` CLI.

Covers the bounded latency histogram, turn-cadence sampler determinism,
and the CLI's exit-status contract (bad input exits 2 with one
``error:`` line, distinct from a ``diff --threshold`` breach).
"""

from __future__ import annotations

import pytest

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.metrics.registry import REGISTRY, MetricsSnapshot, write_snapshots
from repro.obs import Log2Histogram, PeriodicSampler
from repro.obs.cli import main as obs_main
from repro.units import MB
from repro.workloads import ScriptedWorkload


def make_sim(seed: int = 0) -> Simulation:
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
            seed=seed,
        )
    )


# ---------------------------------------------------------------------- #
# Log2 histogram
# ---------------------------------------------------------------------- #

class TestLog2Histogram:
    def test_percentile_matches_nearest_rank_on_midpoints(self):
        hist = Log2Histogram()
        for value in (1, 1, 2, 3, 100):
            hist.record(value)
        assert len(hist) == 5
        # Bucket midpoints: value 1 -> bucket 1 (midpoint 1), 2..3 ->
        # bucket 2 (midpoint 2.5), 100 -> bucket 7 (64..127 -> 95.5).
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(0.5) == 2.5
        assert hist.percentile(1.0) == 95.5

    def test_mean_min_max(self):
        hist = Log2Histogram()
        for value in (10, 20, 30):
            hist.record(value)
        assert hist.min == 10
        assert hist.max == 30
        assert hist.mean == pytest.approx(20.0)

    def test_bounded_memory(self):
        hist = Log2Histogram()
        for value in range(10_000):
            hist.record(value)
        assert len(hist.buckets) == Log2Histogram.NUM_BUCKETS
        assert hist.count == 10_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Log2Histogram().record(-1)

    def test_snapshot_delta(self):
        hist = Log2Histogram()
        hist.record(5)
        before = hist.snapshot()
        hist.record(500)
        delta = hist.delta(before)
        assert delta.count == 1
        assert delta.percentile(0.5) == hist.bucket_midpoint(500 .bit_length())

    def test_dict_round_trip(self):
        hist = Log2Histogram()
        for value in (1, 7, 4096):
            hist.record(value)
        clone = Log2Histogram.from_dict(hist.to_dict())
        assert clone == hist

    def test_empty_percentile_is_zero(self):
        assert Log2Histogram().percentile(0.99) == 0.0
        assert Log2Histogram().percentile(0.0) == 0.0
        assert Log2Histogram().mean == 0.0

    def test_merge_disjoint_ranges(self):
        low = Log2Histogram()
        for value in (1, 2, 3):
            low.record(value)
        high = Log2Histogram()
        for value in (4096, 8192):
            high.record(value)
        low.merge(high)
        assert low.count == 5
        assert low.total == 1 + 2 + 3 + 4096 + 8192
        assert low.min == 1
        assert low.max == 8192
        assert sum(low.buckets) == 5
        # Median stays in the low cluster; the tail lands in the high one.
        assert low.percentile(0.5) == Log2Histogram.bucket_midpoint(2)
        assert low.percentile(0.99) == Log2Histogram.bucket_midpoint(14)

    def test_merge_into_empty_adopts_bounds(self):
        empty = Log2Histogram()
        other = Log2Histogram()
        other.record(7)
        empty.merge(other)
        assert (empty.min, empty.max, empty.count) == (7, 7, 1)

    def test_fault_latency_percentile_zero_samples(self):
        from repro.metrics.counters import PerfCounters

        assert PerfCounters().fault_latency_percentile(0.99) == 0.0


# ---------------------------------------------------------------------- #
# Periodic sampler
# ---------------------------------------------------------------------- #

class TestPeriodicSampler:
    def test_turn_cadence(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=2))
        sampler.add_probe("rss", lambda s: run.process.rss_pages)
        sim.run_until_finished(run)
        sampler.sample()
        points = sampler.series["rss"].points
        assert points, "no samples taken"
        # Cadence samples land on even turns (final sample may not).
        assert all(turn % 2 == 0 for turn, _v in points[:-1])
        assert points[-1][1] == 64

    def test_validates_cadence(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            PeriodicSampler(sim, every_turns=0)
        with pytest.raises(ValueError):
            PeriodicSampler(sim, every_turns=-1)

    def test_deterministic_across_identical_runs(self):
        def series_for(seed):
            sim = make_sim(seed)
            run = sim.add_workload(ScriptedWorkload.touch_region("t", 96))
            sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=2))
            sampler.add_probe("rss", lambda s: run.process.rss_pages)
            sampler.add_probe("free", lambda s: s.kernel.free_fraction)
            sim.run_until_finished(run)
            sampler.sample()
            return {
                name: ts.points for name, ts in sampler.series.items()
            }

        assert series_for(0) == series_for(0)
        assert series_for(3) == series_for(3)


@pytest.mark.parametrize(
    "case",
    [
        "diff-missing",
        "diff-list",
    ],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    """Bad input exits 2, distinct from a ``diff --threshold`` breach (1)."""
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]\n")
    argv, message = {
        "diff-missing": (
            ["diff", str(tmp_path / "missing.json"), str(listing)],
            "missing.json",
        ),
        "diff-list": (
            ["diff", str(listing), str(listing)],
            "not a metrics snapshot file",
        ),
    }[case]
    assert obs_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_cli_watch_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        obs_main(["watch", "m.jsonl", "--no-follow"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'watch'" in capsys.readouterr().err


METRIC = "unit.strict_value"
OTHER = "unit.strict_other"


def _snapshot(label, value, metric=METRIC):
    REGISTRY.gauge(metric)
    snapshot = MetricsSnapshot(label)
    snapshot.set(metric, value)
    return snapshot


def test_diff_strict_new_gates_appeared_metrics(tmp_path, capsys):
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    write_snapshots(before, {"unit": _snapshot("unit", 1.0)})
    extra = _snapshot("unit", 1.0)
    REGISTRY.gauge(OTHER)
    extra.set(OTHER, 5.0)
    write_snapshots(after, {"unit": extra})
    # Appeared metrics never trip the plain threshold gate...
    assert (
        obs_main([
            "diff", str(before), str(after), "--threshold", "0",
        ])
        == 0
    )
    capsys.readouterr()
    # ... but do under --strict-new, including github annotations.
    assert (
        obs_main(
            [
                "diff", str(before), str(after),
                "--threshold", "0",
                "--strict-new",
                "--format", "github",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "STRICT-NEW" in out
    assert "::error" in out and OTHER in out


def test_strict_new_requires_threshold(tmp_path):
    before = tmp_path / "before.json"
    write_snapshots(before, {"unit": _snapshot("unit", 1.0)})
    with pytest.raises(SystemExit):
        obs_main(["diff", str(before), str(before), "--strict-new"])
