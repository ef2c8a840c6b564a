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
* Results travel as JSON-safe documents
  (:meth:`~repro.metrics.registry.MetricsSnapshot.to_dict` and the
  observability capsule of :mod:`repro.obs.remote`), never as pickled
  model objects, so a worker of one build cannot smuggle unstable state
  into the parent.
* The parent consumes results strictly in submission order, regardless
  of completion order. Files written from a parallel run are therefore
  byte-identical to a ``--jobs 1`` run.

Observability crosses the process boundary in two channels:

* ``spec`` (a :class:`~repro.obs.remote.CaptureSpec`) ships the
  parent's ``--trace``/``--profile``/``--sample-interval`` request to
  every worker; :func:`run_cell` installs an
  :class:`~repro.obs.remote.ObservabilityCapsule` around the experiment
  and returns the captured telemetry as the fifth element of
  :data:`CellOutput`.
* ``on_event`` receives lifecycle events -- ``submit`` from the parent,
  ``start``/``finish`` heartbeats from workers (via a manager queue),
  ``crash`` on worker death -- powering the runner's ``--watch``
  board and run manifest. A cell's ``finish`` heartbeat is always
  delivered before its result is yielded, so manifest writers observing
  only these callbacks stay deterministic.

A worker that dies outright (hard exit, OOM kill) surfaces as
:class:`ParallelExecutionError` naming the cell that was in flight --
never as a hang. Ordinary exceptions raised by experiment code pickle
through the pool and re-raise in the parent unchanged.
"""

from __future__ import annotations

import queue as queue_module
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from .errors import ReproError

#: What a worker returns: (rendered text, JSON payload, snapshot
#: documents keyed by label, elapsed seconds, observability capsule
#: document or None). Legacy four-element outputs (no capsule) are
#: still accepted from custom workers.
CellOutput = Tuple[str, dict, Dict[str, dict], float, Optional[dict]]

#: How long the parent waits for a finished cell's ``finish`` heartbeat
#: to drain from the manager queue before giving up (the put happens
#: before the worker returns, so this only guards against a dying
#: manager process).
_HEARTBEAT_DRAIN_SECONDS = 5.0


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
    #: Observability capsule document captured by the worker (see
    #: :class:`repro.obs.remote.ObservabilityCapsule`), or None when the
    #: run had no capture spec.
    capsule: Optional[dict] = None


def run_cell(
    experiment: str,
    seed: int,
    spec: Optional[object] = None,
    heartbeat: Optional[object] = None,
) -> CellOutput:
    """Execute one cell and return JSON-safe results.

    Top-level so it pickles under the spawn start method; the imports
    happen inside so a fresh worker builds the full stack itself (and so
    importing this module never drags in the whole experiment suite).

    ``spec`` is the parent's :class:`~repro.obs.remote.CaptureSpec`; an
    :class:`~repro.obs.remote.ObservabilityCapsule` is installed around
    the experiment and its document returned as the fifth output
    element. ``heartbeat`` is a queue-like object receiving one
    ``start`` and one ``finish`` event dict (the ``finish`` put always
    precedes the return, which is what lets the parent order manifest
    rows deterministically).
    """
    from .config import PlatformConfig
    from .experiments.runner import EXPERIMENTS
    from .obs.remote import (
        ObservabilityCapsule,
        heartbeat_finish,
        heartbeat_start,
    )

    if heartbeat is not None:
        heartbeat.put(heartbeat_start(experiment, seed))
    capsule = ObservabilityCapsule(spec)
    capsule.install()
    started = time.perf_counter()
    try:
        text, payload, snapshots = EXPERIMENTS[experiment](
            PlatformConfig(), seed
        )
    except BaseException:
        capsule.abort()
        raise
    elapsed = time.perf_counter() - started
    capsule_doc = capsule.finalize()
    docs = {label: snapshots[label].to_dict() for label in snapshots}
    if heartbeat is not None:
        heartbeat.put(heartbeat_finish(experiment, seed, elapsed))
    return text, payload, docs, elapsed, capsule_doc


class _InlineHeartbeat:
    """Queue-shaped adapter that dispatches events synchronously.

    Used for ``--jobs 1`` so in-process runs emit the same lifecycle
    events as pooled ones, in the same relative order.
    """

    def __init__(self, emit: Callable[[dict], None]) -> None:
        self._emit = emit

    def put(self, event: dict) -> None:
        self._emit(event)


def _to_result(cell: ExperimentCell, output: Sequence[object]) -> CellResult:
    text, payload, docs, elapsed, *rest = output
    capsule = rest[0] if rest else None
    return CellResult(cell, text, payload, docs, elapsed, capsule)


def _drain_heartbeats(
    heartbeats,
    emit: Callable[[dict], None],
    finish_counts: Dict[Tuple[str, int], int],
    timeout: float = 0.0,
) -> None:
    """Relay every queued heartbeat to ``emit`` (at most one blocking
    ``get``, then everything immediately available)."""
    block = timeout > 0
    while True:
        try:
            if block:
                event = heartbeats.get(timeout=timeout)
                block = False
            else:
                event = heartbeats.get_nowait()
        except queue_module.Empty:
            return
        if event.get("event") == "finish":
            key = (str(event.get("experiment")), int(event.get("seed", 0)))
            finish_counts[key] = finish_counts.get(key, 0) + 1
        emit(event)


def run_cells(
    cells: Sequence[ExperimentCell],
    jobs: int,
    worker: Callable[..., CellOutput] = run_cell,
    spec: Optional[object] = None,
    on_event: Optional[Callable[[dict], None]] = None,
) -> Iterator[CellResult]:
    """Run ``cells``, yielding results in submission order.

    ``jobs == 1`` executes in-process; ``jobs > 1`` fans out over
    ``jobs`` spawned workers. Either way results are yielded in
    submission order regardless of completion order, so consumers that
    merge or print them are deterministic by construction.

    ``spec``/``on_event`` (see module docstring) are forwarded to the
    worker only when either is set, so custom two-argument workers keep
    working unchanged.
    """
    if jobs < 1:
        raise ReproError("jobs must be >= 1")
    emit = on_event if on_event is not None else (lambda event: None)
    wants_extras = spec is not None or on_event is not None
    if jobs == 1:
        heartbeat = _InlineHeartbeat(emit) if on_event is not None else None
        for index, cell in enumerate(cells):
            emit(
                {
                    "event": "submit",
                    "experiment": cell.experiment,
                    "seed": cell.seed,
                    "index": index,
                }
            )
            if wants_extras:
                output = worker(cell.experiment, cell.seed, spec, heartbeat)
            else:
                output = worker(cell.experiment, cell.seed)
            yield _to_result(cell, output)
        return
    context = get_context("spawn")
    manager = None
    heartbeats = None
    finish_counts: Dict[Tuple[str, int], int] = {}
    consumed_counts: Dict[Tuple[str, int], int] = {}
    if on_event is not None:
        # A manager-proxy queue: plain multiprocessing.Queue objects do
        # not pickle through ProcessPoolExecutor.submit arguments.
        manager = context.Manager()
        heartbeats = manager.Queue()
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        ) as pool:
            submitted = []
            for index, cell in enumerate(cells):
                if wants_extras:
                    future = pool.submit(
                        worker, cell.experiment, cell.seed, spec, heartbeats
                    )
                else:
                    future = pool.submit(worker, cell.experiment, cell.seed)
                emit(
                    {
                        "event": "submit",
                        "experiment": cell.experiment,
                        "seed": cell.seed,
                        "index": index,
                    }
                )
                submitted.append((cell, future))
            for cell, future in submitted:
                try:
                    if heartbeats is not None:
                        while not future.done():
                            _drain_heartbeats(
                                heartbeats, emit, finish_counts, timeout=0.1
                            )
                    output = future.result()
                except BrokenProcessPool as exc:
                    emit(
                        {
                            "event": "crash",
                            "experiment": cell.experiment,
                            "seed": cell.seed,
                            "error": "worker process died",
                        }
                    )
                    raise ParallelExecutionError(
                        f"worker process died while running {cell.label}; "
                        "partial results were discarded (worker crash or "
                        "out-of-memory kill)"
                    ) from exc
                if heartbeats is not None:
                    # The worker's finish put precedes its return, so
                    # the event is already in the manager queue: drain
                    # until relayed, keeping manifest row order
                    # deterministic (submission order, finish before
                    # yield).
                    key = (cell.experiment, cell.seed)
                    consumed = consumed_counts.get(key, 0) + 1
                    consumed_counts[key] = consumed
                    deadline = time.perf_counter() + _HEARTBEAT_DRAIN_SECONDS
                    while (
                        finish_counts.get(key, 0) < consumed
                        and time.perf_counter() < deadline
                    ):
                        _drain_heartbeats(
                            heartbeats, emit, finish_counts, timeout=0.1
                        )
                yield _to_result(cell, output)
            if heartbeats is not None:
                _drain_heartbeats(heartbeats, emit, finish_counts)
    finally:
        if manager is not None:
            manager.shutdown()
