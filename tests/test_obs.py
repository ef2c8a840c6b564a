"""Tests for repro.obs: tracepoints, sinks, histogram, sampler, export.

Covers the observability contract end to end: enable/disable semantics
(including the all-off default), ring-buffer wraparound, JSONL and
Chrome trace round-trips, sampler determinism, and the guard that a
tracing-disabled run produces counters identical to an uninstrumented
one.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.errors import ReproError
from repro.metrics.registry import REGISTRY, MetricsSnapshot, write_snapshots
from repro.obs import (
    TRACER,
    JsonlSink,
    Log2Histogram,
    PeriodicSampler,
    RingBufferSink,
    TraceEvent,
    capture,
    read_trace,
    standard_sampler,
    summarize,
    to_chrome,
    tracepoint,
)
from repro.obs.cli import main as obs_main
from repro.units import MB
from repro.workloads import ScriptedWorkload


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with tracing fully off."""
    TRACER.reset()
    yield
    TRACER.reset()


def make_sim(seed: int = 0) -> Simulation:
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
            seed=seed,
        )
    )


def run_touch(sim: Simulation, pages: int = 128):
    run = sim.add_workload(ScriptedWorkload.touch_region("t", pages))
    run.start_measurement()
    sim.run_until_finished(run)
    return run


# ---------------------------------------------------------------------- #
# Tracepoint registry and enable/disable semantics
# ---------------------------------------------------------------------- #

class TestTracepoints:
    def test_disabled_by_default(self):
        tp = tracepoint("unit.example")
        assert not tp.enabled
        tp.emit(x=1)  # silently dropped

    def test_registration_is_idempotent(self):
        assert tracepoint("unit.example") is tracepoint("unit.example")

    def test_invalid_names_rejected(self):
        for bad in ("NoDots", "Upper.case", "trailing.", ".leading", "a b.c"):
            with pytest.raises(ReproError):
                tracepoint(bad)

    def test_needs_both_sink_and_category(self):
        tp = tracepoint("unit.example")
        TRACER.enable("unit")
        assert not tp.enabled  # category on, no sink
        sink = RingBufferSink()
        TRACER.attach(sink)
        assert tp.enabled
        TRACER.disable("unit")
        assert not tp.enabled  # sink on, category off
        assert not TRACER.active

    def test_category_mask_is_selective(self):
        tp_a = tracepoint("layera.event")
        tp_b = tracepoint("layerb.event")
        sink = RingBufferSink()
        TRACER.attach(sink)
        TRACER.enable("layera")
        tp_a.emit(n=1)
        tp_b.emit(n=2)
        events = sink.events()
        assert [e.name for e in events] == ["layera.event"]

    def test_star_enables_everything(self):
        tp = tracepoint("unit.example")
        TRACER.attach(RingBufferSink())
        TRACER.enable("*")
        assert tp.enabled

    def test_events_carry_clock_and_sequence(self):
        tp = tracepoint("unit.example")
        sink = RingBufferSink()
        TRACER.attach(sink)
        TRACER.enable("unit")
        TRACER.advance(100)
        tp.emit(a=1)
        TRACER.advance(50)
        tp.emit(a=2)
        first, second = sink.events()
        assert (first.ts, second.ts) == (100, 150)
        assert second.seq == first.seq + 1
        assert first.args == {"a": 1}

    def test_capture_context_manager_restores_state(self):
        tp = tracepoint("unit.example")
        with capture("unit") as sink:
            assert tp.enabled
            tp.emit(x=1)
        assert not tp.enabled
        assert not TRACER.active
        assert len(sink.events()) == 1


# ---------------------------------------------------------------------- #
# Sinks
# ---------------------------------------------------------------------- #

class TestRingBuffer:
    def test_wraparound_keeps_newest(self):
        sink = RingBufferSink(capacity=4)
        tp = tracepoint("unit.example")
        TRACER.attach(sink)
        TRACER.enable("unit")
        for n in range(10):
            tp.emit(n=n)
        events = sink.events()
        assert len(events) == 4
        assert [e.args["n"] for e in events] == [6, 7, 8, 9]
        assert sink.total_events == 10
        assert sink.dropped_events == 6

    def test_clear(self):
        sink = RingBufferSink(capacity=4)
        tp = tracepoint("unit.example")
        TRACER.attach(sink)
        TRACER.enable("unit")
        tp.emit(n=1)
        sink.clear()
        assert len(sink) == 0


class TestJsonl:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "out.trace.jsonl"
        tp = tracepoint("unit.example")
        sink = JsonlSink(path)
        TRACER.attach(sink)
        TRACER.enable("unit")
        tp.emit(n=1, label="x")
        TRACER.advance(7)
        tp.emit(n=2)
        TRACER.detach(sink)
        sink.close()
        assert sink.events_written == 2
        events = read_trace(path)
        assert [e.args.get("n") for e in events] == [1, 2]
        assert events[1].ts == 7
        assert all(isinstance(e, TraceEvent) for e in events)

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts": 0, "turn": 0, "name": "a.b"}\nnot json\n')
        with pytest.raises(ReproError, match="line 2"):
            read_trace(path)


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

    def test_cycle_cadence_needs_active_tracing(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        with capture("sample"):
            sampler = sim.add_sampler(
                PeriodicSampler(sim, every_cycles=10_000)
            )
            sampler.add_probe("rss", lambda s: run.process.rss_pages)
            sim.run_until_finished(run)
        assert sampler.samples_taken > 0

    def test_validates_cadence(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            PeriodicSampler(sim)
        with pytest.raises(ValueError):
            PeriodicSampler(sim, every_turns=0)

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

    def test_standard_sampler_probe_set(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        sampler = sim.add_sampler(standard_sampler(sim, every_cycles=5_000))
        with capture():
            sim.run_until_finished(run)
            sampler.sample()
        for name in (
            "free_fraction",
            "part_entries",
            "part_unmapped_pages",
            "host_pt_fragmentation",
            "run_cycles",
            "rss_pages",
            "free_blocks_order0",
        ):
            assert name in sampler.series, name
            assert sampler.series[name].points

    def test_samples_ride_along_in_trace(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=1))
        sampler.add_probe("rss", lambda s: run.process.rss_pages)
        with capture("sample") as sink:
            sim.run_until_finished(run)
        names = {e.name for e in sink.events()}
        assert names == {"sample.rss"}
        probes = {e.args["probe"] for e in sink.events()}
        assert probes == {"rss"}


# ---------------------------------------------------------------------- #
# Export: summarize + Chrome trace
# ---------------------------------------------------------------------- #

class TestExport:
    def _trace_events(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 64))
        run.start_measurement()
        sampler = sim.add_sampler(PeriodicSampler(sim, every_turns=1))
        sampler.add_probe("rss", lambda s: run.process.rss_pages)
        with capture() as sink:
            sim.run_until_finished(run)
        return sink.events()

    def test_chrome_export_shape(self):
        events = self._trace_events()
        document = to_chrome(events)
        assert document["traceEvents"]
        phases = {entry["ph"] for entry in document["traceEvents"]}
        assert "X" in phases  # cycle-bearing slices (faults, walks)
        assert "C" in phases  # sampler counter tracks
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 1 for e in slices)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert all(set(e["args"]) == {"value"} for e in counters)
        json.dumps(document)  # must be serialisable as-is

    def test_summarize_digest(self):
        events = self._trace_events()
        summary = summarize(events)
        assert summary["events"] == len(events)
        assert summary["by_category"]["fault"] > 0
        assert summary["by_tracepoint"]["fault.enter"] > 0
        assert "rss" in summary["series"]
        assert summary["series"]["rss"]["final"] == 64

    def test_jsonl_chrome_round_trip_through_cli(self, tmp_path, capsys):
        trace_path = tmp_path / "out.trace.jsonl"
        sim_events = self._trace_events()
        with JsonlSink(trace_path) as sink:
            for event in sim_events:
                sink.write(event)
        chrome_path = tmp_path / "out.trace.json"
        assert (
            obs_main(
                ["export", str(trace_path), "-o", str(chrome_path)]
            )
            == 0
        )
        document = json.loads(chrome_path.read_text())
        assert len(document["traceEvents"]) == len(sim_events)
        assert obs_main(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events by tracepoint" in out

    def test_cli_catalog_lists_instrumented_tracepoints(self, capsys):
        assert obs_main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("buddy.split", "fault.enter", "walk.exit", "tlb.miss"):
            assert name in out

    def test_cli_catalog_is_sorted_and_stable(self, capsys):
        assert obs_main(["catalog"]) == 0
        first = capsys.readouterr().out
        names = [
            line.split()[0]
            for line in first.splitlines()
            if "." in line.split()[0]
        ]
        assert names == sorted(names)
        assert obs_main(["catalog"]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "case",
    [
        "diff-missing",
        "diff-list",
        "summarize-malformed",
        "export-malformed",
    ],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    """Bad input exits 2, distinct from a ``diff --threshold`` breach (1)."""
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]\n")
    trace = tmp_path / "bad.trace.jsonl"
    trace.write_text('{"seq": 0, "ts": 0, "turn": 0, "name": "a.b"}\nnot json\n')
    exported = tmp_path / "out.trace.json"
    argv, message = {
        "diff-missing": (
            ["diff", str(tmp_path / "missing.json"), str(listing)],
            "missing.json",
        ),
        "diff-list": (
            ["diff", str(listing), str(listing)],
            "not a metrics snapshot file",
        ),
        "summarize-malformed": (
            ["summarize", str(trace)], "malformed trace line 2"
        ),
        "export-malformed": (
            ["export", str(trace), "-o", str(exported)],
            "malformed trace line 2",
        ),
    }[case]
    assert obs_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not exported.exists()


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


# ---------------------------------------------------------------------- #
# The zero-overhead guarantee: disabled tracing changes nothing
# ---------------------------------------------------------------------- #

class TestDisabledTracingIsInert:
    def test_counters_identical_with_and_without_tracing(self):
        def measured_counters(trace: bool):
            TRACER.reset()
            sim = make_sim()
            run = sim.add_workload(ScriptedWorkload.touch_region("t", 128))
            run.start_measurement()
            if trace:
                with capture():
                    sim.run_until_finished(run)
            else:
                sim.run_until_finished(run)
            run.finalize_measurement()
            return run.counters

        baseline = measured_counters(trace=False)
        traced = measured_counters(trace=True)
        untraced = measured_counters(trace=False)
        # Tracing must observe, never perturb: every counter byte-equal.
        assert untraced == baseline
        assert traced == baseline

    def test_disabled_run_leaves_clock_untouched(self):
        sim = make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 16))
        sim.run_until_finished(run)
        assert TRACER.now == 0
        assert not TRACER.active
