"""Round-robin scheduling of workload runs.

The paper colocates applications inside one VM with threads pinned to
different cores, so all applications make progress concurrently. The
scheduler models that with weighted round-robin time slices: each turn,
every live run executes ``weight * ops_per_slice`` memory operations.
Interleaving granularity is what drives fragmentation -- page faults of
different applications arrive interleaved at the guest buddy allocator.

A slice executes ops one at a time, so it never over- or under-runs
its op budget. Phase boundaries end a slice early, keeping
phase-triggered co-runner start/stop points turn-exact.
"""

from __future__ import annotations

from typing import Iterator, List, Protocol


class Schedulable(Protocol):
    """What the scheduler needs from a run."""

    weight: int
    finished: bool

    def step(self, max_ops: int) -> int: ...


class RoundRobinScheduler:
    """Weighted round-robin over workload runs."""

    def __init__(self, ops_per_slice: int = 64) -> None:
        if ops_per_slice <= 0:
            raise ValueError("ops_per_slice must be positive")
        self.ops_per_slice = ops_per_slice
        self._runs: List[Schedulable] = []

    def add(self, run: Schedulable) -> None:
        """Register a run for scheduling."""
        self._runs.append(run)

    def remove(self, run: Schedulable) -> None:
        """Deschedule a run (e.g. a stopped co-runner)."""
        self._runs.remove(run)

    @property
    def runs(self) -> List[Schedulable]:
        return list(self._runs)

    def live_runs(self) -> List[Schedulable]:
        """Runs that still have operations to execute."""
        return [run for run in self._runs if not run.finished]

    def turn(self) -> int:
        """Give every live run one time slice; returns ops executed.

        Runs found finished are dropped from the rotation: a finished run
        never executes again, so pruning is invisible to scheduling order
        while later turns skip the dead entries (a long tail of turns may
        drive a single live benchmark).
        """
        executed = 0
        finished_runs = None
        ops_per_slice = self.ops_per_slice
        for run in self._runs:
            if run.finished:
                if finished_runs is None:
                    finished_runs = [run]
                else:
                    finished_runs.append(run)
                continue
            executed += run.step(ops_per_slice * run.weight)
        if finished_runs is not None:
            for run in finished_runs:
                self._runs.remove(run)
        return executed

    def turns(self) -> Iterator[int]:
        """Yield per-turn op counts until every run is finished."""
        while self.live_runs():
            yield self.turn()
