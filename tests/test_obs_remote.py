"""Tests for repro.obs.remote: distributed capture and merge.

Covers the capsule lifecycle (install/finalize/abort around a real
simulation), the deterministic cross-worker mergers (modelled-cycle
interleave, path-wise profile merge, per-cell series), the ``--format
github`` perf-gate annotations, and the headline acceptance criterion: the runner's merged
trace/flamegraph/metrics files are byte-identical at any job count and
across repeated runs.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.errors import ReproError
from repro.obs import PROFILER, TRACER, ProfileNode, to_chrome
from repro.obs.cli import main as obs_main
from repro.obs.export import WORKER_TRACK_EVENT
from repro.obs.remote import (
    CAPSULE_KIND,
    CaptureSpec,
    ObservabilityCapsule,
    capsule_snapshots,
    merge_capsules,
    merge_profile_trees,
    series_from_events,
)
from repro.obs.trace import TraceEvent
from repro.units import MB
from repro.workloads import ScriptedWorkload


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with tracer and profiler fully off."""
    TRACER.reset()
    PROFILER.reset()
    yield
    TRACER.reset()
    PROFILER.reset()


def make_sim(seed: int = 0) -> Simulation:
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
            seed=seed,
        )
    )


def capture_cell(spec: CaptureSpec, seed: int = 0):
    """One capsule-wrapped mini-cell: install, simulate, finalize."""
    capsule = ObservabilityCapsule(spec)
    capsule.install()
    sim = make_sim(seed)
    run = sim.add_workload(ScriptedWorkload.touch_region("t", 128))
    sim.run_until_finished(run)
    return capsule.finalize()


FULL_SPEC = CaptureSpec(
    trace=True, sample_interval_cycles=50_000, profile=True
)


# ---------------------------------------------------------------------- #
# CaptureSpec
# ---------------------------------------------------------------------- #

class TestCaptureSpec:
    def test_inactive_by_default(self):
        assert not CaptureSpec().active
        assert CaptureSpec(trace=True).active
        assert CaptureSpec(profile=True).active

    def test_dict_round_trip(self):
        spec = CaptureSpec(
            trace=True,
            categories=("buddy", "sample"),
            sample_interval_cycles=1000,
            profile=True,
            buffer_events=512,
        )
        assert CaptureSpec.from_dict(spec.to_dict()) == spec

    def test_picklable(self):
        spec = CaptureSpec(trace=True)
        assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------- #
# Capsule lifecycle
# ---------------------------------------------------------------------- #

class TestObservabilityCapsule:
    def test_inactive_spec_is_a_no_op(self):
        for spec in (None, CaptureSpec()):
            capsule = ObservabilityCapsule(spec)
            capsule.install()
            assert not TRACER.active
            assert not PROFILER.enabled
            assert capsule.finalize() is None

    def test_trace_capsule_captures_events_series_and_clock(self):
        doc = capture_cell(FULL_SPEC)
        assert doc["kind"] == CAPSULE_KIND
        assert doc["spec"] == FULL_SPEC.to_dict()
        assert doc["events"], "traced cell captured no events"
        assert doc["dropped_events"] == 0
        assert doc["clock"]["cycles"] > 0
        assert doc["clock"]["turn"] > 0
        # The periodic sampler's series come back per probe.
        assert "host_pt_fragmentation" in doc["series"]
        points = doc["series"]["host_pt_fragmentation"]
        assert all(len(point) == 3 for point in points)

    def test_profile_capsule_captures_attribution_tree(self):
        doc = capture_cell(FULL_SPEC)
        assert "walk" in doc["profile"]["children"]

    def test_capsule_document_is_json_safe(self):
        doc = capture_cell(FULL_SPEC)
        assert json.loads(json.dumps(doc)) == doc

    def test_finalize_tears_observability_down(self):
        capture_cell(FULL_SPEC)
        assert not TRACER.active
        assert not PROFILER.enabled
        assert TRACER.now == 0

    def test_abort_tears_down_without_capturing(self):
        capsule = ObservabilityCapsule(FULL_SPEC)
        capsule.install()
        assert TRACER.active
        capsule.abort()
        assert not TRACER.active
        assert not PROFILER.enabled
        # finalize after abort yields nothing
        assert capsule.finalize() is None

    def test_capture_is_deterministic(self):
        first = capture_cell(FULL_SPEC, seed=3)
        second = capture_cell(FULL_SPEC, seed=3)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_ring_buffer_bounds_capture(self):
        spec = CaptureSpec(trace=True, buffer_events=16)
        doc = capture_cell(spec)
        assert len(doc["events"]) == 16
        assert doc["dropped_events"] > 0


# ---------------------------------------------------------------------- #
# Mergers
# ---------------------------------------------------------------------- #

def _event(seq, ts, name, args=None):
    return TraceEvent(
        seq=seq, ts=ts, turn=0, name=name, args=args or {}
    ).to_dict()


def _doc(events, profile=None, series=None, cycles=0):
    doc = {
        "schema_version": 1,
        "kind": CAPSULE_KIND,
        "spec": CaptureSpec(trace=True).to_dict(),
        "clock": {"cycles": cycles, "turn": 0},
        "events": events,
        "dropped_events": 0,
        "series": series or {},
    }
    if profile is not None:
        doc["profile"] = profile
    return doc


class TestMergeCapsules:
    def test_interleaves_by_cycle_with_submission_order_tiebreak(self):
        merged = merge_capsules(
            [
                ("a", _doc([_event(0, 5, "x.a1"), _event(1, 10, "x.a2")])),
                ("b", _doc([_event(0, 3, "x.b1"), _event(1, 10, "x.b2")])),
            ]
        )
        names = [event.name for event in merged.events]
        assert names == [
            WORKER_TRACK_EVENT,
            WORKER_TRACK_EVENT,
            "x.b1",
            "x.a1",
            "x.a2",  # ts tie at 10: cell 0 before cell 1
            "x.b2",
        ]
        assert [event.seq for event in merged.events] == list(range(6))
        workers = [event.args["worker"] for event in merged.events]
        assert workers == [0, 1, 1, 0, 0, 1]

    def test_cells_without_capsules_are_skipped(self):
        merged = merge_capsules([("a", None), ("b", _doc([]))])
        assert len(merged.provenance) == 1
        assert merged.provenance[0]["cell"] == "b"
        assert merged.provenance[0]["index"] == 1

    def test_rejects_foreign_documents(self):
        with pytest.raises(ReproError, match="not an observability"):
            merge_capsules([("a", {"kind": "something.else"})])
        with pytest.raises(ReproError, match="schema"):
            merge_capsules(
                [("a", {"kind": CAPSULE_KIND, "schema_version": 99})]
            )

    def test_provenance_accounting(self):
        merged = merge_capsules(
            [("a", _doc([_event(0, 1, "x.e")], cycles=42))]
        )
        (row,) = merged.provenance
        assert row["events"] == 1
        assert row["modelled_cycles"] == 42
        assert row["bytes"] > 0
        assert merged.dropped_events == 0

    def test_series_kept_per_cell(self):
        merged = merge_capsules(
            [
                ("a", _doc([], series={"p": [[0, 1, 2.0]]})),
                ("b", _doc([], series={"p": [[0, 1, 5.0]]})),
            ]
        )
        assert merged.series["a"]["p"] == [[0, 1, 2.0]]
        assert merged.series["b"]["p"] == [[0, 1, 5.0]]


class TestMergeProfiles:
    def test_path_wise_sum(self):
        left = ProfileNode("root")
        left.child("walk").child("hpt").cycles = 10
        left.child("walk").child("hpt").count = 2
        right = ProfileNode("root")
        right.child("walk").child("hpt").cycles = 5
        right.child("walk").child("hpt").count = 1
        right.child("fault").cycles = 7
        merged = merge_profile_trees([left, right])
        assert merged.children["walk"].children["hpt"].cycles == 15
        assert merged.children["walk"].children["hpt"].count == 3
        assert merged.children["fault"].cycles == 7
        assert merged.total_cycles() == 22

    def test_merge_from_capsules(self):
        docs = [capture_cell(FULL_SPEC, seed=s) for s in (0, 1)]
        merged = merge_capsules([("a", docs[0]), ("b", docs[1])])
        individual = [
            ProfileNode.from_dict("root", doc["profile"]) for doc in docs
        ]
        expected = sum(tree.total_cycles() for tree in individual)
        assert merged.profile.total_cycles() == expected


class TestSeriesFromEvents:
    def test_extracts_probe_points(self):
        events = [
            TraceEvent(0, 100, 1, "sample.p", {"probe": "p", "value": 1.5}),
            TraceEvent(1, 200, 2, "sample.p", {"probe": "p", "value": 2.5}),
            TraceEvent(2, 200, 2, "x.other", {"value": 9}),
        ]
        assert series_from_events(events) == {
            "p": [[1, 100, 1.5], [2, 200, 2.5]]
        }


# ---------------------------------------------------------------------- #
# Chrome export: worker tracks
# ---------------------------------------------------------------------- #

class TestWorkerTracks:
    def test_track_events_become_process_metadata(self):
        merged = merge_capsules(
            [
                ("cell.zero", _doc([_event(0, 1, "x.e")])),
                ("cell.one", _doc([_event(0, 2, "sample.p",
                                          {"probe": "p", "value": 3})])),
            ]
        )
        chrome = to_chrome(merged.events)
        metadata = [
            entry
            for entry in chrome["traceEvents"]
            if entry.get("ph") == "M"
        ]
        assert [(m["pid"], m["args"]["name"]) for m in metadata] == [
            (0, "cell.zero"),
            (1, "cell.one"),
        ]
        # Ordinary events route to their worker's track; sampler
        # counters split per worker instead of collapsing onto pid 0.
        slices = [
            entry
            for entry in chrome["traceEvents"]
            if entry["name"] == "x.e"
        ]
        assert slices[0]["pid"] == 0
        counters = [
            entry
            for entry in chrome["traceEvents"]
            if entry.get("ph") == "C"
        ]
        assert counters[0]["pid"] == 1

    def test_single_process_traces_unchanged(self):
        events = [TraceEvent(0, 1, 0, "x.e", {"cycles": 5})]
        chrome = to_chrome(events)
        (entry,) = chrome["traceEvents"]
        assert entry["pid"] == 0
        assert entry["ph"] == "X"


# ---------------------------------------------------------------------- #
# Cell snapshots
# ---------------------------------------------------------------------- #

class TestCapsuleSnapshots:
    def test_cell_and_fleet_labels(self):
        merged = merge_capsules(
            [
                ("x.seed0", _doc([_event(0, 1, "x.e")], cycles=10,
                                 series={"p": [[0, 1, 2.0]]})),
                ("x.seed1", _doc([], cycles=20,
                                 series={"p": [[0, 1, 4.0]]})),
            ]
        )
        snapshots = capsule_snapshots(merged)
        assert sorted(snapshots) == ["cell.x.seed0", "cell.x.seed1", "fleet"]
        cell0 = snapshots["cell.x.seed0"]
        assert cell0.get("obs.capsule.trace_events") == 1
        assert cell0.get("obs.capsule.modelled_cycles") == 10
        assert cell0.get("obs.sample.p.final") == 2.0
        fleet = snapshots["fleet"]
        assert fleet.get("obs.fleet.cells") == 2
        assert fleet.get("obs.fleet.modelled_cycles") == 30
        assert fleet.get("obs.sample.p.final_sum") == 6.0
        assert fleet.get("obs.sample.p.final_mean") == 3.0


# ---------------------------------------------------------------------- #
# obs diff --format github (perf-gate annotations)
# ---------------------------------------------------------------------- #

class TestDiffGithubFormat:
    def _write_family(self, path, before_value, after_value):
        from repro.metrics.registry import (
            REGISTRY,
            MetricsSnapshot,
            write_snapshots,
        )

        REGISTRY.gauge("unit.diff_value")
        before = MetricsSnapshot("before")
        before.set("unit.diff_value", before_value)
        after = MetricsSnapshot("after")
        after.set("unit.diff_value", after_value)
        write_snapshots(path, {"before": before, "after": after})

    def test_breaches_emit_workflow_commands(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_family(path, 100.0, 200.0)
        code = obs_main(
            [
                "diff",
                f"{path}#before",
                f"{path}#after",
                "--threshold",
                "10",
                "--format",
                "github",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "::error " in out
        assert "title=perf regression" in out
        assert "unit.diff_value" in out
        assert "REGRESSION" in out

    def test_clean_diff_emits_no_annotations(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_family(path, 100.0, 101.0)
        code = obs_main(
            [
                "diff",
                f"{path}#before",
                f"{path}#after",
                "--threshold",
                "10",
                "--format",
                "github",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "::error" not in out


# ---------------------------------------------------------------------- #
# End-to-end: merged outputs byte-identical at any job count
# ---------------------------------------------------------------------- #

class TestRunnerMergeDeterminism:
    RUNNER_ARGS = [
        "--experiment", "table1",
        "--seeds", "0,1",
        "--trace", "merged.trace.jsonl",
        "--trace-categories", "sample,reservation",
        "--sample-interval", "200000",
        "--profile",
        "--metrics-out", "merged.metrics.json",
        "--flamegraph", "merged.folded",
    ]

    def _run(self, tmp_path, monkeypatch, tag, jobs):
        from repro.experiments.runner import main

        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(self.RUNNER_ARGS + ["--jobs", str(jobs)]) == 0
        return workdir

    def test_jobs4_matches_jobs1_and_repeats_byte_for_byte(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance criterion: merged trace/flamegraph/metrics are
        byte-identical across job counts and across repeated runs."""
        runs = {
            "serial": self._run(tmp_path, monkeypatch, "serial", jobs=1),
            "par_a": self._run(tmp_path, monkeypatch, "par_a", jobs=4),
            "par_b": self._run(tmp_path, monkeypatch, "par_b", jobs=4),
        }
        reference = runs["serial"]
        for name in ("merged.trace.jsonl", "merged.metrics.json",
                     "merged.folded"):
            expected = (reference / name).read_bytes()
            assert expected, f"{name} is empty"
            for tag in ("par_a", "par_b"):
                assert (runs[tag] / name).read_bytes() == expected, (
                    f"{name} differs between jobs 1 and jobs 4 ({tag})"
                )
        # The merged trace carries one labelled track per cell and the
        # metrics family carries per-cell + fleet snapshots that feed
        # straight into the diff CLI (cross-worker comparison).
        trace_lines = (
            (reference / "merged.trace.jsonl").read_text().splitlines()
        )
        tracks = [
            json.loads(line)
            for line in trace_lines
            if json.loads(line)["name"] == WORKER_TRACK_EVENT
        ]
        assert [t["args"]["label"] for t in tracks] == [
            "table1.seed0",
            "table1.seed1",
        ]
        metrics = reference / "merged.metrics.json"
        labels = set(json.loads(metrics.read_text())["snapshots"])
        assert {"cell.table1.seed0", "cell.table1.seed1", "fleet"} <= labels
        assert (
            obs_main(
                [
                    "diff",
                    f"{metrics}#cell.table1.seed0",
                    f"{metrics}#cell.table1.seed1",
                ]
            )
            == 0
        )
        assert "diff: cell.table1.seed0" in capsys.readouterr().out
