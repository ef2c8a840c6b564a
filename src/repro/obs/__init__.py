"""``repro.obs``: stack-wide observability for the simulated memory stack.

Linux-tracepoint-style instrumentation threaded through every layer of
the model -- buddy allocator, fault path, PaRT lifecycle, TLBs, caches,
2D walks, scheduler turns -- plus time-series sampling and exportable
traces:

* :func:`tracepoint` / :data:`TRACER` -- the zero-overhead-when-disabled
  tracepoint registry (per-category enable mask, guard-check-only fast
  path when off);
* :class:`RingBufferSink` / :class:`JsonlSink` -- bounded in-memory and
  streaming-file sinks;
* :func:`to_chrome` -- Chrome ``trace_event`` / Perfetto export keyed to
  modelled cycles;
* :class:`PeriodicSampler` / :func:`standard_sampler` -- turn-loop-driven
  time series (fragmentation, free lists, PaRT occupancy, ...);
* :class:`Log2Histogram` -- the bounded latency histogram behind
  ``PerfCounters.fault_latencies``;
* :class:`capture` -- context manager for scoped in-test tracing;
* :data:`PROFILER` / :class:`profiling` -- the hierarchical
  cycle-attribution profiler (folded-stack / JSON export, same
  zero-overhead-when-disabled guard discipline as tracepoints);
* :func:`diff_snapshots` / ``python -m repro.obs diff`` -- differential
  analysis of two metrics snapshots with a regression threshold;
* :class:`CaptureSpec` / :class:`ObservabilityCapsule` /
  :func:`merge_capsules` -- distributed capture: per-worker telemetry
  capsules for ``--jobs N`` runs and the deterministic cross-worker
  trace/profile merge (see :mod:`repro.obs.remote`).

Record a trace from the experiment runner and inspect it::

    python -m repro.experiments.runner --experiment figure6 \\
        --trace out.trace.jsonl --sample-interval 100000
    python -m repro.obs summarize out.trace.jsonl
    python -m repro.obs export out.trace.jsonl -o out.trace.json

See docs/internals.md ("Observability") for the tracepoint catalog.
"""

from .diff import SnapshotDiff, diff_snapshots, render_diff
from .export import render_summary, summarize, to_chrome
from .remote import (
    CaptureSpec,
    MergedObservability,
    ObservabilityCapsule,
    capsule_snapshots,
    merge_capsules,
    merge_profile_trees,
)
from .histogram import Log2Histogram
from .profile import (
    PROFILER,
    ProfileNode,
    Profiler,
    profiling,
    rank_delta,
    render_folded,
)
from .sampler import PeriodicSampler, TimeSeries, standard_sampler
from .sinks import JsonlSink, RingBufferSink, iter_trace, read_trace
from .trace import (
    TRACEPOINT_NAME_RE,
    TRACER,
    TraceEvent,
    Tracepoint,
    Tracer,
    capture,
    tracepoint,
)

__all__ = [
    "PROFILER",
    "TRACEPOINT_NAME_RE",
    "TRACER",
    "CaptureSpec",
    "JsonlSink",
    "Log2Histogram",
    "MergedObservability",
    "ObservabilityCapsule",
    "PeriodicSampler",
    "ProfileNode",
    "Profiler",
    "RingBufferSink",
    "SnapshotDiff",
    "TimeSeries",
    "TraceEvent",
    "Tracepoint",
    "Tracer",
    "capsule_snapshots",
    "capture",
    "diff_snapshots",
    "iter_trace",
    "merge_capsules",
    "merge_profile_trees",
    "profiling",
    "rank_delta",
    "read_trace",
    "render_diff",
    "render_folded",
    "render_summary",
    "standard_sampler",
    "summarize",
    "to_chrome",
    "tracepoint",
]
