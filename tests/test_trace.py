"""Tests for trace save/replay."""

import pytest

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.errors import WorkloadError
from repro.units import MB
from repro.workloads import PageRank
from repro.workloads.base import AccessOp, BrkOp, FreeOp, MmapOp, PhaseOp, WorkloadPhase
from repro.workloads.trace import (
    TraceWorkload,
    load_trace,
    op_to_record,
    record_to_op,
    save_trace,
)

ALL_OPS = [
    MmapOp("a", 16),
    BrkOp("h", 4),
    PhaseOp(WorkloadPhase.INIT),
    AccessOp("a", 3, 17, True),
    AccessOp("h", 0),
    FreeOp("a", 2, 4),
    FreeOp("h"),
    PhaseOp(WorkloadPhase.DONE),
]


class TestSerialization:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_roundtrip_each_kind(self, op):
        assert record_to_op(op_to_record(op)) == op

    def test_unknown_record_rejected(self):
        with pytest.raises(WorkloadError):
            record_to_op({"op": "teleport"})

    def test_unserializable_rejected(self):
        with pytest.raises(WorkloadError):
            op_to_record(object())


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = save_trace(path, ALL_OPS)
        assert count == len(ALL_OPS)
        assert list(load_trace(path)) == ALL_OPS

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"op": "mmap", "region": "a", "npages": 1}\n\n')
        assert len(list(load_trace(path))) == 1

    def test_bad_json_reported_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not-json\n")
        with pytest.raises(WorkloadError, match=":1:"):
            list(load_trace(path))


#: One malformed record per failure kind, each on line 2 after a valid
#: mmap, paired with a fragment of the expected message.
MALFORMED = {
    "missing-region": ('{"op": "access", "page": 0}', "'region'"),
    "bad-int": ('{"op": "mmap", "region": "a", "npages": "eight"}', "eight"),
    "unknown-phase": ('{"op": "phase", "phase": "teardown"}', "teardown"),
    "non-object": ("[1, 2]", "not an object"),
    "unknown-op": ('{"op": "teleport"}', "unknown trace record"),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_error_names_path_and_line(self, tmp_path, kind):
        line, fragment = MALFORMED[kind]
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"op": "mmap", "region": "a", "npages": 4}\n' + line + "\n"
        )
        # Replay and the footprint pre-scan share one parser.
        for load in (
            lambda: list(TraceWorkload(path, footprint_pages=4).ops()),
            lambda: TraceWorkload(path),
        ):
            with pytest.raises(WorkloadError) as excinfo:
                load()
            message = str(excinfo.value)
            assert message.startswith(f"{path}:2: ")
            assert fragment in message


class TestTraceWorkload:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            TraceWorkload(tmp_path / "absent.jsonl")

    def test_footprint_prescan(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, ALL_OPS)
        workload = TraceWorkload(path)
        assert workload.footprint_pages == 20  # 16 mmap + 4 brk
        assert workload.name == "t"

    def test_frozen_benchmark_replays_identically(self, tmp_path):
        """Freeze a bundled statistical workload, replay it, and check the
        simulation outcome matches the original exactly."""
        path = tmp_path / "pagerank.jsonl"
        original = PageRank(seed=3, scale=0.1)
        save_trace(path, original.ops())
        replay = TraceWorkload(path)

        def run(workload):
            sim = Simulation(
                PlatformConfig(
                    host=HostConfig(memory_bytes=64 * MB),
                    guest=GuestConfig(memory_bytes=32 * MB),
                )
            )
            run = sim.add_workload(workload)
            run.start_measurement()
            sim.run_until_finished(run)
            return sim.result_for(run).counters.cycles

        assert run(original) == run(replay)
