"""The zero-overhead-when-disabled contract of the profiler, measured.

With the profiler disabled, the instrumented simulator must run within 2%
of an uninstrumented one. The instrumentation cost on the disabled path
is exactly one ``PROFILER.enabled`` attribute read per call site, so we
measure it directly:

1. time a reference workload run with the profiler disabled,
2. replay the identical run profiled to count how many events (= taken
   guard reads) the run encounters,
3. microbenchmark that many disabled-guard reads,
4. assert the guard time is <= 2% of the reference run.

Timing uses best-of-k minima so scheduler noise only ever shrinks the
measured overhead ratio's denominator, keeping the test conservative.
Enabling the profiler must also never change what is simulated: a
profiled run's counters equal an unprofiled run's.
"""

import time

from repro.config import GuestConfig, HostConfig, PlatformConfig
from repro.metrics.report import Table
from repro.obs import PROFILER, profiling
from repro.sim.engine import Simulation
from repro.units import MB
from repro.workloads import ScriptedWorkload

MAX_DISABLED_OVERHEAD = 0.02
PAGES = 256
REPEATS = 3


def _make_sim(seed=0):
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
            seed=seed,
        )
    )


def _run_workload():
    sim = _make_sim()
    run = sim.add_workload(ScriptedWorkload.touch_region("bench", PAGES))
    sim.run_until_finished(run)


def _best_of(func, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _measured_counters(profile: bool):
    """Counters of one deterministic run, with/without the profiler."""
    PROFILER.reset()
    if profile:
        PROFILER.enable()
    try:
        sim = _make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("bench", PAGES))
        sim.run_until_finished(run)
        return sim.result_for(run).counters
    finally:
        PROFILER.reset()


def test_disabled_profiler_overhead_within_two_percent():
    """The profiler's disabled path is one ``PROFILER.enabled`` read per
    instrumented site -- hold it to a 2% budget."""
    PROFILER.reset()
    reference_seconds = _best_of(_run_workload)

    # Count attribution events the same run produces when enabled; the
    # disabled path performs at most that many guard reads (enabled-only
    # sub-paths, e.g. serving-level lookups, never run when disabled).
    with profiling():
        _run_workload()
    guard_checks = PROFILER.root.total_count()
    assert guard_checks > 0, "profiled run attributed no events"
    assert not PROFILER.enabled

    def check_guards():
        for _ in range(guard_checks):
            if PROFILER.enabled:
                raise AssertionError("profiler unexpectedly enabled")

    guard_seconds = _best_of(check_guards)
    ratio = guard_seconds / reference_seconds

    table = Table(
        ["Metric", "Value"],
        title="Disabled-profiler overhead (guard checks vs. reference run)",
    )
    table.add_row("reference run", f"{reference_seconds * 1e3:.2f} ms")
    table.add_row("guard checks", f"{guard_checks}")
    table.add_row("guard time", f"{guard_seconds * 1e6:.1f} us")
    table.add_row("overhead", f"{ratio * 100:.3f}%")
    print()
    print(table.render())

    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled-profiler guard overhead {ratio * 100:.2f}% exceeds "
        f"{MAX_DISABLED_OVERHEAD * 100:.0f}% budget"
    )


def test_profiler_only_observes_counters_identical():
    """Enabling the profiler never changes simulated state: the counters
    of a profiled run are byte-identical to an unprofiled one."""
    baseline = _measured_counters(profile=False)
    profiled = _measured_counters(profile=True)
    assert profiled == baseline
