"""Workload traces: save and replay memory-operation streams.

The paper's benchmarks are real binaries whose memory behaviour we model
statistically. For users who *do* have a memory trace (from a pin tool,
a sampled profiler, or another simulator), this module defines a simple
JSON-lines interchange format and a workload that replays it:

    one JSON object per line, e.g.
    {"op": "mmap",   "region": "heap", "npages": 4096}
    {"op": "access", "region": "heap", "page": 17, "block": 3, "write": true}
    {"op": "free",   "region": "heap"}
    {"op": "phase",  "phase": "compute"}

`save_trace` writes any op iterable in this format (useful for freezing
one of the bundled statistical workloads into a shareable artifact), and
`TraceWorkload` streams a file back into the simulator without
materialising it. A malformed line -- invalid JSON, a non-object, an
unknown op, a missing or ill-typed field -- raises
:class:`~repro.errors.WorkloadError` naming ``<path>:<line>``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from ..errors import WorkloadError
from .base import (
    AccessOp,
    BrkOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    PhaseOp,
    Workload,
    WorkloadPhase,
)


def op_to_record(op: MemoryOp) -> dict:
    """Serialize one op to its JSON record."""
    if isinstance(op, MmapOp):
        return {"op": "mmap", "region": op.region, "npages": op.npages}
    if isinstance(op, BrkOp):
        return {"op": "brk", "region": op.region, "grow_pages": op.grow_pages}
    if isinstance(op, AccessOp):
        return {
            "op": "access",
            "region": op.region,
            "page": op.page,
            "block": op.block,
            "write": op.write,
        }
    if isinstance(op, FreeOp):
        return {
            "op": "free",
            "region": op.region,
            "start_page": op.start_page,
            "npages": op.npages,
        }
    if isinstance(op, PhaseOp):
        return {"op": "phase", "phase": op.phase.value}
    raise WorkloadError(f"cannot serialize op {op!r}")


def record_to_op(record: dict) -> MemoryOp:
    """Deserialize one JSON record to its op.

    Raises :class:`WorkloadError` for a record that is not an object,
    names an unknown op, or lacks or mistypes a field.
    """
    if not isinstance(record, dict):
        raise WorkloadError(f"trace record is not an object: {record!r}")
    kind = record.get("op")
    try:
        if kind == "mmap":
            return MmapOp(record["region"], int(record["npages"]))
        if kind == "brk":
            return BrkOp(record["region"], int(record["grow_pages"]))
        if kind == "access":
            return AccessOp(
                record["region"],
                int(record["page"]),
                int(record.get("block", 0)),
                bool(record.get("write", False)),
            )
        if kind == "free":
            return FreeOp(
                record["region"],
                int(record.get("start_page", 0)),
                int(record.get("npages", 0)),
            )
        if kind == "phase":
            return PhaseOp(WorkloadPhase(record["phase"]))
    except KeyError as exc:
        raise WorkloadError(f"{kind} record missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"invalid {kind} record {record!r} ({exc})") from exc
    raise WorkloadError(f"unknown trace record {record!r}")


def save_trace(path: Union[str, Path], ops: Iterable[MemoryOp]) -> int:
    """Write an op stream as JSON lines; returns the number of ops."""
    count = 0
    with open(path, "w") as handle:
        for op in ops:
            handle.write(json.dumps(op_to_record(op)) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> Iterator[MemoryOp]:
    """Stream ops back from a JSON-lines trace file."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(
                    f"{path}:{line_number}: invalid JSON ({exc})"
                ) from exc
            try:
                op = record_to_op(record)
            except WorkloadError as exc:
                raise WorkloadError(f"{path}:{line_number}: {exc}") from exc
            yield op


class TraceWorkload(Workload):
    """Replay a JSON-lines trace file as a workload.

    The file is streamed, not materialised, so arbitrarily long traces
    replay in constant memory. ``footprint_pages`` defaults to the sum of
    mmap/brk sizes discovered by a quick pre-scan (pass it explicitly to
    skip the scan for huge files).
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str = None,
        footprint_pages: int = None,
        seed: int = 0,
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise WorkloadError(f"trace file not found: {self.path}")
        super().__init__(name or self.path.stem, seed)
        if footprint_pages is None:
            footprint_pages = sum(
                op.npages if isinstance(op, MmapOp) else op.grow_pages
                for op in load_trace(self.path)
                if isinstance(op, (MmapOp, BrkOp))
            )
        self._footprint = footprint_pages

    @property
    def footprint_pages(self) -> int:
        return self._footprint

    def ops(self) -> Iterator[MemoryOp]:
        return load_trace(self.path)
