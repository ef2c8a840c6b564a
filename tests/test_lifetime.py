"""A finished Simulation is freed by reference counting alone.

The simulation object graph is acyclic (docs/internals.md §13, "Memory
lifetime"): no page table, kernel observer or sampler leads back to the
object that owns it. So a ``Simulation`` dies, with its kernels, page
tables, caches, TLBs and samplers, the moment its last reference drops,
and a process that runs many simulations holds only the live ones.

Each case below builds simulations the way one experiment path does,
with the cycle collector disabled, drops the result, and checks that
every simulation built is already dead and that a full collection then
finds no ``repro`` object in cyclic garbage.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.config import GuestConfig, HostConfig, PlatformConfig
from repro.experiments.common import compare_kernels, run_colocated
from repro.experiments.sec62 import run_adversarial_sec62
from repro.experiments.sec64 import run_sec64
from repro.obs.profile import PROFILER, profiling
from repro.sim.engine import Simulation
from repro.units import MB

PLATFORM = PlatformConfig(
    host=HostConfig(memory_bytes=128 * MB),
    guest=GuestConfig(memory_bytes=64 * MB),
)


def _baseline_mode(mode):
    """One colocated run on a guest allocator of the baselines experiment."""
    platform = dataclasses.replace(
        PLATFORM, guest=PLATFORM.guest.with_allocator(mode)
    )
    return run_colocated(platform, "gcc", [("pyaes", 1)], prechurn_turns=50)


def _profiled():
    """A colocated run under the profiler, as ``run_cell`` runs a cell
    with ``profile=True``."""
    with profiling() as profiler:
        outcome = run_colocated(PLATFORM, "gcc", prechurn_turns=0)
    return outcome, profiler.to_dict()


#: Every way the experiments build a Simulation.
SCENARIOS = {
    # run_colocated under both kernels: figures 5-7, tables 1 and 4,
    # sensitivity.
    "colocated-both-kernels": lambda: compare_kernels(
        PLATFORM, "gcc", [("pyaes", 1)], seed=0
    ),
    "baselines-thp": lambda: _baseline_mode("thp"),
    "baselines-ca": lambda: _baseline_mode("ca"),
    # _run_sampled: a PeriodicSampler whose probes close over the run.
    "sec62-sampled": lambda: run_adversarial_sec62(PLATFORM),
    "sec64": lambda: run_sec64(PLATFORM, npages=3000),
    "profiled": _profiled,
}


@pytest.fixture(autouse=True)
def _profiler_off():
    PROFILER.reset()
    yield
    PROFILER.reset()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every Simulation built during the test."""
    refs = []
    original = Simulation.__init__

    def __init__(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        refs.append(weakref.ref(sim))

    monkeypatch.setattr(Simulation, "__init__", __init__)
    return refs


def _repro_names(objects):
    """Sorted qualified names of the ``repro`` objects among ``objects``."""
    names = set()
    for obj in objects:
        module = getattr(obj, "__module__", None)
        if isinstance(module, str) and module.startswith("repro"):
            names.add(f"{module}.{type(obj).__qualname__}")
    return sorted(names)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulation_freed_without_cycle_collector(scenario, built):
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    try:
        outcome = SCENARIOS[scenario]()
        assert built, "the scenario built no Simulation"
        del outcome
        alive = [ref() for ref in built if ref() is not None]
        assert alive == [], f"{len(alive)} of {len(built)} simulations alive"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert _repro_names(gc.garbage[saved:]) == []
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        gc.enable()
