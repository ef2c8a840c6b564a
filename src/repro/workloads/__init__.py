"""Workload models: the benchmarks and co-runners of Table 3.

Real binaries are unavailable in this environment (see DESIGN.md), so each
application is modelled as a generator of memory operations -- mmap,
touch, access, free -- whose footprint, phase structure, spatial locality
and TLB pressure match the qualitative behaviour of the original program.
Page-walk behaviour depends only on that address stream, which is what
preserves the paper's effects.
"""

from .base import (
    AccessOp,
    BrkOp,
    FreeOp,
    MmapOp,
    PhaseOp,
    Workload,
    WorkloadPhase,
)
from .scripted import ScriptedWorkload
from .trace import TraceWorkload, load_trace, save_trace
from .corunners import (
    Chameleon,
    JsonSerdes,
    ObjectDetection,
    PyAes,
    RnnServing,
    StressNg,
)
from .graph import Bfs, ConnectedComponents, GraphWorkload, Nibble, PageRank
from .registry import (
    BENCHMARKS,
    CO_RUNNERS,
    LOW_PRESSURE_BENCHMARKS,
    make_benchmark,
    make_corunner,
    table3_rows,
)
from .spec import Gcc, LowPressureSpec, Mcf, Omnetpp, SpecWorkload, Xz

__all__ = [
    "AccessOp",
    "BENCHMARKS",
    "BrkOp",
    "ScriptedWorkload",
    "TraceWorkload",
    "load_trace",
    "save_trace",
    "Bfs",
    "CO_RUNNERS",
    "Chameleon",
    "ConnectedComponents",
    "FreeOp",
    "Gcc",
    "GraphWorkload",
    "JsonSerdes",
    "LOW_PRESSURE_BENCHMARKS",
    "LowPressureSpec",
    "Mcf",
    "MmapOp",
    "Nibble",
    "ObjectDetection",
    "Omnetpp",
    "PageRank",
    "PhaseOp",
    "PyAes",
    "RnnServing",
    "SpecWorkload",
    "StressNg",
    "Workload",
    "WorkloadPhase",
    "Xz",
    "make_benchmark",
    "make_corunner",
    "table3_rows",
]
