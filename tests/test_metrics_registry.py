"""Unit tests for the metrics registry, snapshots, and snapshot files."""

import json

import pytest

from repro.errors import ReproError
from repro.metrics.registry import (
    METRIC_NAME_RE,
    REGISTRY,
    MetricKind,
    MetricsRegistry,
    MetricsSnapshot,
    load_snapshot,
    write_snapshots,
)
from repro.obs.histogram import Log2Histogram
from repro.obs.profile import Profiler


def make_registry():
    reg = MetricsRegistry()
    reg.counter("perf.walk_cycles", help="cycles in page walks", unit="cycles")
    reg.gauge("mem.free_fraction", help="free / total")
    reg.histogram("perf.fault_latencies", help="per-fault latency")
    return reg


class TestRegistry:
    def test_register_and_catalog_sorted(self):
        reg = make_registry()
        assert len(reg) == 3
        assert "perf.walk_cycles" in reg
        assert [spec.name for spec in reg.catalog()] == sorted(
            spec.name for spec in reg.catalog()
        )

    def test_registration_is_idempotent(self):
        reg = make_registry()
        spec = reg.counter("perf.walk_cycles")
        assert spec is reg.get("perf.walk_cycles")
        assert len(reg) == 3

    def test_kind_conflict_rejected(self):
        reg = make_registry()
        with pytest.raises(ReproError, match="already registered"):
            reg.gauge("perf.walk_cycles")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("WalkCycles", "walkcycles", "perf.", "perf.Walk", "9x.y"):
            with pytest.raises(ReproError, match="invalid metric name"):
                reg.counter(bad)
            assert not METRIC_NAME_RE.match(bad)

    def test_canonical_schema_registers_on_import(self):
        import repro.metrics.collect  # noqa: F401

        assert "perf.walk_cycles" in REGISTRY
        assert "kernel.faults" in REGISTRY
        assert "mem.free_pages" in REGISTRY


class TestSnapshot:
    def test_set_validates_registration_and_kind(self):
        snap = MetricsSnapshot("t", registry=make_registry())
        snap.set("perf.walk_cycles", 123)
        with pytest.raises(ReproError, match="not registered"):
            snap.set("perf.unknown_counter", 1)
        with pytest.raises(ReproError, match="is a histogram"):
            snap.set("perf.fault_latencies", 5)
        with pytest.raises(ReproError, match="numeric value"):
            snap.set("mem.free_fraction", "0.5")

    def test_scalar_items_flatten_histograms(self):
        snap = MetricsSnapshot("t", registry=make_registry())
        hist = Log2Histogram()
        for value in (8, 8, 64):
            hist.record(value)
        snap.set("perf.fault_latencies", hist)
        snap.set("perf.walk_cycles", 10)
        items = dict(snap.scalar_items())
        assert items["perf.walk_cycles"] == 10.0
        assert items["perf.fault_latencies.count"] == 3.0
        assert items["perf.fault_latencies.mean"] == hist.mean
        assert items["perf.fault_latencies.p99"] == hist.percentile(0.99)

    def test_dict_round_trip_is_self_describing(self):
        snap = MetricsSnapshot("colocated", registry=make_registry())
        snap.set("perf.walk_cycles", 4242)
        snap.set("mem.free_fraction", 0.25)
        hist = Log2Histogram()
        hist.record(100)
        snap.set("perf.fault_latencies", hist)
        prof = Profiler()
        prof.add(("walk", "hpt", "hl1"), 9)
        snap.profile = prof.root

        clone = MetricsSnapshot.from_dict(snap.to_dict())
        # the clone's registry is rebuilt purely from the JSON
        assert clone.registry is not snap.registry
        assert clone.registry.get("perf.walk_cycles").kind is MetricKind.COUNTER
        assert clone.label == "colocated"
        assert dict(clone.scalar_items()) == dict(snap.scalar_items())
        assert clone.profile.to_dict() == prof.root.to_dict()


class TestSnapshotFiles:
    def _snap(self, label, cycles):
        snap = MetricsSnapshot(label, registry=make_registry())
        snap.set("perf.walk_cycles", cycles)
        return snap

    def test_single_snapshot_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        write_snapshots(path, {"standalone": self._snap("standalone", 5)})
        loaded = load_snapshot(path)
        assert loaded.label == "standalone"
        assert loaded.get("perf.walk_cycles") == 5
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro.metrics.snapshot"

    def test_family_requires_label_fragment(self, tmp_path):
        path = tmp_path / "table1.json"
        write_snapshots(
            path,
            {
                "standalone": self._snap("standalone", 5),
                "colocated": self._snap("colocated", 9),
            },
        )
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro.metrics.snapshots"
        assert load_snapshot(f"{path}#colocated").get("perf.walk_cycles") == 9
        with pytest.raises(ReproError, match="pick one"):
            load_snapshot(path)
        with pytest.raises(ReproError, match="no snapshot labelled"):
            load_snapshot(f"{path}#nope")

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ReproError, match="no snapshots"):
            write_snapshots(tmp_path / "x.json", {})

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ReproError, match="not a metrics snapshot"):
            load_snapshot(path)


class TestMetricsCatalogCli:
    """``python -m repro.obs metrics``: the catalog is deterministic."""

    def _catalog_lines(self, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["metrics"]) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line]

    def test_catalog_is_sorted_and_pinned(self, capsys):
        lines = self._catalog_lines(capsys)
        names = [line.split()[0] for line in lines if "." in line.split()[0]]
        assert names == sorted(names)
        # pin the canonical schema: these names are the stable interface
        # snapshots and CI baselines depend on
        for expected in (
            "perf.cycles",
            "perf.walk_cycles",
            "perf.host_walk_cycles",
            "perf.hpt_memory_accesses",
            "perf.fault_latencies",
            "kernel.faults",
            "mem.free_pages",
            "cache.hpt.served_memory",
            "perf.host_pt_fragmentation",
            "run.faults_total",
        ):
            assert expected in names, expected
        assert lines[-1].endswith("metrics registered")

    def test_catalog_is_stable_across_invocations(self, capsys):
        first = self._catalog_lines(capsys)
        second = self._catalog_lines(capsys)
        assert first == second
