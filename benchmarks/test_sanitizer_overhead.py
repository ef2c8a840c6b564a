"""The zero-overhead-when-disabled contract of repro.sanitizer, measured.

ISSUE acceptance: with the sanitizer off (the default), the instrumented
memory stack must run within 2% of an uninstrumented one, and enabling
it must never change simulated state. The disabled-path cost at every
hook site is exactly one attribute read (``self.sanitizer`` /
``page_table.sanitizer`` is ``None``), so:

1. time a reference workload run with the sanitizer disabled,
2. replay the identical run with a hook-counting sanitizer attached to
   learn how many hook sites the run executes,
3. microbenchmark that many ``is None`` guard reads,
4. assert the guard time is <= 2% of the reference run,
5. assert the counters of a sanitized run are byte-identical to an
   unsanitized one.

Timing uses best-of-k minima so scheduler noise only ever shrinks the
measured overhead ratio's denominator, keeping the test conservative.
"""

import time

import pytest

from repro.config import GuestConfig, HostConfig, PlatformConfig
from repro.metrics.report import Table
from repro.sanitizer import ENV_FLAG, FrameSanitizer
from repro.sim.engine import Simulation
from repro.units import MB
from repro.workloads import ScriptedWorkload

MAX_DISABLED_OVERHEAD = 0.02
PAGES = 256
REPEATS = 3

_HOOKS = (
    "on_alloc",
    "on_free",
    "on_pcp_fill",
    "on_pcp_take",
    "on_reserve",
    "on_unreserve",
    "on_map",
    "on_unmap",
    "on_process_exit",
)


def _make_sim(seed=0):
    return Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB, ptemagnet_enabled=True),
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


class _CountingSanitizer(FrameSanitizer):
    """FrameSanitizer that counts hook invocations (= guard-site hits)."""

    def __init__(self, name="guest"):
        super().__init__(name)
        self.hook_calls = 0


def _make_counting_hook(real):
    def hook(self, *args, **kwargs):
        self.hook_calls += 1
        return real(self, *args, **kwargs)

    return hook


for _name in _HOOKS:
    setattr(
        _CountingSanitizer,
        _name,
        _make_counting_hook(getattr(FrameSanitizer, _name)),
    )


def _count_hook_sites():
    """Hook invocations one reference run executes when sanitized.

    The disabled path performs exactly one ``is None`` attribute read per
    such invocation (sites inside enabled-only branches never run), so
    this bounds the number of disabled-guard checks.
    """
    import repro.os.kernel as kernel_mod

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_mod, "FrameSanitizer", _CountingSanitizer)
        patch.setenv(ENV_FLAG, "1")
        sim = _make_sim()
        run = sim.add_workload(ScriptedWorkload.touch_region("bench", PAGES))
        sim.run_until_finished(run)
        return sim.kernel.sanitizer.hook_calls


def test_disabled_sanitizer_overhead_within_two_percent(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    reference_seconds = _best_of(_run_workload)

    guard_checks = _count_hook_sites()
    assert guard_checks > 0, "sanitized run hit no hook sites"

    class Holder:
        pass

    holder = Holder()
    holder.sanitizer = None

    def check_guards():
        for _ in range(guard_checks):
            if holder.sanitizer is not None:
                raise AssertionError("sanitizer unexpectedly attached")

    guard_seconds = _best_of(check_guards)
    ratio = guard_seconds / reference_seconds

    table = Table(
        ["Metric", "Value"],
        title="Disabled-sanitizer overhead (guard reads vs. reference run)",
    )
    table.add_row("reference run", f"{reference_seconds * 1e3:.2f} ms")
    table.add_row("guard reads", f"{guard_checks}")
    table.add_row("guard time", f"{guard_seconds * 1e6:.1f} us")
    table.add_row("overhead", f"{ratio * 100:.3f}%")
    print()
    print(table.render())

    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled-sanitizer guard overhead {ratio * 100:.2f}% exceeds "
        f"{MAX_DISABLED_OVERHEAD * 100:.0f}% budget"
    )


def _measured_counters(sanitize: bool):
    """Counters of one deterministic run, with/without the sanitizer."""
    with pytest.MonkeyPatch.context() as patch:
        if sanitize:
            patch.setenv(ENV_FLAG, "1")
        else:
            patch.delenv(ENV_FLAG, raising=False)
        sim = _make_sim()
    run = sim.add_workload(ScriptedWorkload.touch_region("bench", PAGES))
    sim.run_until_finished(run)
    if sanitize:
        assert sim.kernel.sanitizer is not None
        assert sim.kernel.sanitizer.violations == 0
    return sim.result_for(run).counters


def test_sanitizer_only_observes_counters_identical():
    """Enabling the sanitizer never changes simulated state: the counters
    of a sanitized run are byte-identical to an unsanitized one."""
    baseline = _measured_counters(sanitize=False)
    sanitized = _measured_counters(sanitize=True)
    assert sanitized == baseline
