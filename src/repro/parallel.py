"""Spawn-safe parallel execution of experiment cells.

``python -m repro.experiments.runner --jobs N`` fans the requested
experiment x seed cells out over worker processes. Experiment cells are
embarrassingly parallel -- every cell builds a complete simulation stack
from its (experiment, seed) coordinates -- so the only work this module
does beyond pool management is keeping parallel output *deterministic*:

* Workers share no state: the pool uses the ``spawn`` start method, so
  each worker imports the package fresh and builds its own
  :class:`~repro.config.PlatformConfig` and simulation stack. Nothing
  leaks between cells even on platforms where ``fork`` is the default.
* A cell's results reach the parent one way: as :func:`run_cell`'s
  return value, a tuple of JSON-safe documents
  (:meth:`~repro.metrics.registry.MetricsSnapshot.to_dict` and the
  cell's profile tree), never pickled model objects, so a worker of one
  build cannot smuggle unstable state into the parent.
* The parent consumes results strictly in submission order, regardless
  of completion order. Files written from a parallel run are therefore
  byte-identical to a ``--jobs 1`` run.

``profile`` ships the parent's ``--profile`` request to every worker:
:func:`run_cell` then runs its cell under a fresh cycle-attribution
profiler and returns the tree as the fifth element of
:data:`CellOutput`, for the parent to merge with
:func:`~repro.obs.profile.merge_profile_trees`.

A worker that dies outright (hard exit, OOM kill) surfaces as
:class:`ParallelExecutionError` naming the cell that was in flight --
never as a hang. Ordinary exceptions raised by experiment code pickle
through the pool and re-raise in the parent unchanged. The parent keeps
at most N cells submitted and unfinished, so once a cell fails no
further cell starts.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from .errors import ReproError

#: What a worker returns: (rendered text, JSON payload, snapshot
#: documents keyed by label, elapsed seconds, profile tree document or
#: None).
CellOutput = Tuple[str, dict, Dict[str, dict], float, Optional[dict]]


class ParallelExecutionError(ReproError):
    """A worker process died before returning its cell's result."""


@dataclass(frozen=True)
class ExperimentCell:
    """One (experiment, seed) unit of schedulable work."""

    experiment: str
    seed: int

    @property
    def label(self) -> str:
        return f"{self.experiment}[seed={self.seed}]"


@dataclass
class CellResult:
    """One executed cell's results, as handed back to the parent."""

    cell: ExperimentCell
    text: str
    payload: dict
    #: label -> snapshot document (see ``MetricsSnapshot.to_dict``).
    snapshot_docs: Dict[str, dict]
    elapsed_seconds: float
    #: The cell's profile tree (``ProfileNode.to_dict``), or None when
    #: the run was not profiled.
    profile: Optional[dict] = None


def run_cell(experiment: str, seed: int, profile: bool = False) -> CellOutput:
    """Execute one cell and return JSON-safe results.

    Top-level so it pickles under the spawn start method; the imports
    happen inside so a fresh worker builds the full stack itself (and so
    importing this module never drags in the whole experiment suite).

    With ``profile`` the cell runs under a freshly reset
    :data:`~repro.obs.profile.PROFILER`, whose tree is returned as the
    fifth output element; the profiler is reset and off again afterwards,
    also when the cell raises, so an in-process cell leaves no switch
    behind for the next one.
    """
    from .config import PlatformConfig
    from .experiments.runner import EXPERIMENTS
    from .obs.profile import PROFILER

    tree = None
    if profile:
        PROFILER.reset()
        PROFILER.enable()
    started = time.perf_counter()
    try:
        text, payload, snapshots = EXPERIMENTS[experiment](
            PlatformConfig(), seed
        )
        elapsed = time.perf_counter() - started
        if profile:
            tree = PROFILER.to_dict()
    finally:
        if profile:
            PROFILER.reset()
    docs = {label: snapshots[label].to_dict() for label in snapshots}
    return text, payload, docs, elapsed, tree


def run_cells(
    cells: Sequence[ExperimentCell],
    jobs: int,
    worker: Callable[..., CellOutput] = run_cell,
    profile: bool = False,
) -> Iterator[CellResult]:
    """Run ``cells``, yielding results in submission order.

    ``jobs == 1`` executes in-process; ``jobs > 1`` fans out over
    ``jobs`` spawned workers. Either way every cell runs as
    ``worker(experiment, seed, profile)`` and results are yielded in
    submission order regardless of completion order, so consumers that
    merge or print them are deterministic by construction.

    At most ``jobs`` cells are submitted and unfinished at any time: a
    cell is submitted only when a worker is free, and none once a
    submitted cell has failed. A failure therefore cancels every cell
    behind it, where a pool holding the whole queue could cancel only
    those it had not yet handed to its workers.
    """
    if jobs < 1:
        raise ReproError("jobs must be >= 1")
    if jobs == 1:
        for cell in cells:
            yield CellResult(cell, *worker(cell.experiment, cell.seed, profile))
        return
    pool = ProcessPoolExecutor(
        max_workers=jobs, mp_context=get_context("spawn")
    )
    queued = iter(cells)
    # Submitted cells not yet yielded, in submission order.
    window = deque()
    try:
        while True:
            running = [future for _, future in window if not future.done()]
            failed = any(
                future.done() and future.exception() is not None
                for _, future in window
            )
            if len(running) < jobs and not failed:
                cell = next(queued, None)
                if cell is not None:
                    future = pool.submit(
                        worker, cell.experiment, cell.seed, profile
                    )
                    window.append((cell, future))
                    continue
            if not window:
                return
            cell, future = window[0]
            if not future.done():
                wait(running, return_when=FIRST_COMPLETED)
                continue
            window.popleft()
            try:
                output = future.result()
            except BrokenProcessPool as exc:
                raise ParallelExecutionError(
                    f"worker process died while running {cell.label}; "
                    "partial results were discarded (worker crash or "
                    "out-of-memory kill)"
                ) from exc
            yield CellResult(cell, *output)
    finally:
        # A consumer that stopped early must not wait for cells it will
        # never read: cancel any not yet started, wait for running ones.
        pool.shutdown(wait=True, cancel_futures=True)
