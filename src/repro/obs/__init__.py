"""``repro.obs``: the instruments that explain the simulator's numbers.

* :data:`PROFILER` / :class:`profiling` -- the hierarchical
  cycle-attribution profiler (folded-stack / JSON export; disabled, every
  call site pays one attribute read). Table 1's nested-walk matrix
  (``walk;hpt;gl<L>;hl<L>;memory``) comes from its tree;
  :func:`merge_profile_trees` sums the trees ``--jobs N`` workers send
  back;
* :class:`PeriodicSampler` -- turn-cadence time series, behind §6.2's
  reservation-occupancy peaks;
* :class:`Log2Histogram` -- the bounded latency histogram behind
  ``PerfCounters.fault_latencies`` (the baselines' fault p99);
* :func:`diff_snapshots` / ``python -m repro.obs diff`` -- differential
  analysis of two metrics snapshots with a regression threshold.

Profile a run and compare two snapshots::

    python -m repro.experiments.runner --experiment table1 \\
        --profile --metrics-out t1.json --flamegraph t1.folded
    python -m repro.obs diff t1.json#standalone t1.json#colocated

See docs/internals.md §10 ("Observability") for the audit that decided
which instruments stay.
"""

from .diff import SnapshotDiff, diff_snapshots, render_diff
from .histogram import Log2Histogram
from .profile import (
    PROFILER,
    ProfileNode,
    Profiler,
    merge_profile_trees,
    profiling,
    rank_delta,
    render_folded,
)
from .sampler import PeriodicSampler, TimeSeries

__all__ = [
    "PROFILER",
    "Log2Histogram",
    "PeriodicSampler",
    "ProfileNode",
    "Profiler",
    "SnapshotDiff",
    "TimeSeries",
    "diff_snapshots",
    "merge_profile_trees",
    "profiling",
    "rank_delta",
    "render_diff",
    "render_folded",
]
