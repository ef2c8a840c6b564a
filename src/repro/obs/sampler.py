"""Periodic time-series sampling driven by the engine's turn loop.

A :class:`PeriodicSampler` registers named probes (callables over the
simulation) and samples them on a fixed cadence -- every N scheduler
turns, every N modelled cycles of the tracer clock, or both. Samples
land in in-memory :class:`TimeSeries` and, when tracing is enabled, are
also emitted through ``sample.*`` tracepoints so they ride along in the
recorded trace (the Chrome exporter turns them into counter tracks that
Perfetto plots directly).

This is the shared mechanism behind the runner's ``--sample-interval``
flag and the §6.2 occupancy series (:mod:`repro.experiments.sec62`);
it subsumes the older ad-hoc per-experiment sampling loops.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .trace import TRACER, Tracepoint

#: A probe reads one value (usually a number) from the simulation.
Probe = Callable[[object], object]

_PROBE_TOKEN_RE = re.compile(r"[^a-z0-9_]+")


@dataclass
class TimeSeries:
    """Samples of one probe: (turn, value) pairs."""

    name: str
    points: List[Tuple[int, float]] = field(default_factory=list)

    def values(self) -> List[float]:
        return [value for _turn, value in self.points]

    @property
    def peak(self) -> float:
        return max(self.values()) if self.points else 0.0

    @property
    def final(self) -> float:
        return self.points[-1][1] if self.points else 0.0


def probe_tracepoint_name(probe_name: str) -> str:
    """The ``sample.*`` tracepoint name carrying ``probe_name``'s samples."""
    token = _PROBE_TOKEN_RE.sub("_", probe_name.lower()).strip("_") or "probe"
    if not token[0].isalpha():
        token = "p_" + token
    return f"sample.{token}"


class PeriodicSampler:
    """Samples registered probes on a turn and/or cycle cadence.

    Register with :meth:`repro.sim.engine.Simulation.add_sampler` and the
    engine calls :meth:`on_turn` at every turn boundary; take a last
    explicit :meth:`sample` when the run stops (or use :meth:`run_until`,
    which does both).

    Parameters
    ----------
    simulation:
        The simulation to probe (duck-typed: needs ``turns`` and
        ``turn()``). Held through a weak reference: the simulation
        holds its samplers, and a strong reference back would keep both
        alive until a full cycle collection (docs/internals.md §13,
        "Memory lifetime").
    every_turns:
        Sample whenever ``simulation.turns`` is a multiple of this.
    every_cycles:
        Sample whenever the tracer's modelled-cycle clock has advanced
        at least this far since the last sample. The clock only advances
        while tracing is active, so cycle cadence implies an attached
        sink (the runner wires this up for ``--trace``).
    """

    def __init__(
        self,
        simulation,
        every_turns: Optional[int] = None,
        every_cycles: Optional[int] = None,
    ) -> None:
        if every_turns is None and every_cycles is None:
            raise ValueError("need a turn and/or cycle sampling cadence")
        if every_turns is not None and every_turns <= 0:
            raise ValueError("turn cadence must be positive")
        if every_cycles is not None and every_cycles <= 0:
            raise ValueError("cycle cadence must be positive")
        self._simulation = weakref.ref(simulation)
        self.every_turns = every_turns
        self.every_cycles = every_cycles
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0
        self._probes: Dict[str, Probe] = {}
        self._tracepoints: Dict[str, Tracepoint] = {}
        self._last_sample_cycles = TRACER.now

    def add_probe(self, name: str, probe: Probe) -> None:
        """Register a named probe (overwrites an existing name)."""
        self.series[name] = TimeSeries(name)
        self._probes[name] = probe
        self._tracepoints[name] = TRACER.tracepoint(probe_tracepoint_name(name))

    def sample(self) -> None:
        """Take one sample of every probe right now."""
        simulation = self._simulation()
        turn = simulation.turns
        for name, probe in self._probes.items():
            value = probe(simulation)
            self.series[name].points.append((turn, value))
            tp = self._tracepoints[name]
            if tp.enabled:
                tp.emit(probe=name, value=value)
        self.samples_taken += 1

    def on_turn(self) -> None:
        """Engine hook: sample if the cadence says this turn is due."""
        if (
            self.every_turns is not None
            and self._simulation().turns % self.every_turns == 0
        ):
            self.sample()
            self._last_sample_cycles = TRACER.now
            return
        if (
            self.every_cycles is not None
            and TRACER.now - self._last_sample_cycles >= self.every_cycles
        ):
            self._last_sample_cycles = TRACER.now
            self.sample()

    def run_until(
        self, done: Callable[[], bool], max_turns: int = 1_000_000
    ) -> None:
        """Advance the simulation until ``done()``; final sample included.

        The sampler must already be registered on the simulation (via
        ``add_sampler``) for the cadence samples to fire.
        """
        simulation = self._simulation()
        for _ in range(max_turns):
            if done():
                break
            simulation.turn()
        self.sample()


def standard_sampler(simulation, every_cycles: int) -> PeriodicSampler:
    """The default probe set behind the runner's ``--sample-interval``.

    Records the quantities the paper tracks over time: host-PT
    fragmentation (§3.2), the buddy free-list histogram (§2.4), PaRT
    occupancy (§6.2), free memory, and per-run cycle counts.
    """
    from ..mem.buddy import MAX_ORDER

    sampler = PeriodicSampler(simulation, every_cycles=every_cycles)
    sampler.add_probe(
        "free_fraction", lambda sim: sim.kernel.buddy.free_fraction
    )
    for order in range(MAX_ORDER + 1):
        sampler.add_probe(
            f"free_blocks_order{order}",
            lambda sim, _order=order: sim.kernel.buddy.free_blocks(_order),
        )
    sampler.add_probe("part_entries", _part_entries)
    sampler.add_probe("part_unmapped_pages", _part_unmapped_pages)
    sampler.add_probe("host_pt_fragmentation", _mean_fragmentation)
    sampler.add_probe("run_cycles", _total_run_cycles)
    sampler.add_probe("rss_pages", _total_rss_pages)
    return sampler


def _part_entries(sim) -> int:
    return sum(
        process.part.entry_count
        for process in sim.kernel.processes.values()
        if process.part is not None
    )


def _part_unmapped_pages(sim) -> int:
    return sum(
        process.part.unmapped_reserved_pages()
        for process in sim.kernel.processes.values()
        if process.part is not None
    )


def _mean_fragmentation(sim) -> float:
    from ..metrics.fragmentation import host_pt_fragmentation

    values = [
        host_pt_fragmentation(run.process)
        for run in sim.runs
        if run.process.alive
    ]
    values = [value for value in values if value]
    return sum(values) / len(values) if values else 0.0


def _total_run_cycles(sim) -> int:
    return sum(run.counters.cycles for run in sim.runs)


def _total_rss_pages(sim) -> int:
    return sum(run.process.rss_pages for run in sim.runs if run.process.alive)
