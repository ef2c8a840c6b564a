"""Periodic time-series sampling driven by the engine's turn loop.

A :class:`PeriodicSampler` registers named probes (callables over the
simulation) and samples them every N scheduler turns into in-memory
:class:`TimeSeries`.

This is the mechanism behind the §6.2 occupancy series
(:mod:`repro.experiments.sec62`); it subsumes the older ad-hoc
per-experiment sampling loops.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: A probe reads one value (usually a number) from the simulation.
Probe = Callable[[object], object]


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


class PeriodicSampler:
    """Samples registered probes every ``every_turns`` scheduler turns.

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
    """

    def __init__(self, simulation, every_turns: int) -> None:
        if every_turns <= 0:
            raise ValueError("turn cadence must be positive")
        self._simulation = weakref.ref(simulation)
        self.every_turns = every_turns
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0
        self._probes: Dict[str, Probe] = {}

    def add_probe(self, name: str, probe: Probe) -> None:
        """Register a named probe (overwrites an existing name)."""
        self.series[name] = TimeSeries(name)
        self._probes[name] = probe

    def sample(self) -> None:
        """Take one sample of every probe right now."""
        simulation = self._simulation()
        turn = simulation.turns
        for name, probe in self._probes.items():
            self.series[name].points.append((turn, probe(simulation)))
        self.samples_taken += 1

    def on_turn(self) -> None:
        """Engine hook: sample if the cadence says this turn is due."""
        if self._simulation().turns % self.every_turns == 0:
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
