"""Live run watch: a refreshing terminal board over the run manifest.

A ``--jobs N`` run is visible only after the fact in the manifest,
which is a post-hoc log. This module turns the same event stream into a
*live board*:

* :class:`WatchBoard` -- a pure state machine consuming manifest events
  (``run_start`` / ``submit`` / ``start`` / ``finish`` / ``crash`` /
  ``merge`` / ``run_end``, the :class:`~repro.obs.remote.RunManifest`
  schema) or the runner's in-process heartbeats (same field names), and
  rendering a fixed-width board: cells queued/running/finished, per-cell
  wall time, modelled cycles, application ops/sec and fault-latency p99
  from the :class:`~repro.obs.histogram.Log2Histogram` documents the
  runner streams into ``finish`` rows;
* :func:`iter_manifest_events` -- a tail-follower over a manifest JSONL
  being written by an in-flight run (only complete lines are consumed,
  so a half-flushed row is re-read on the next poll);
* :func:`watch_manifest` -- the ``python -m repro.obs watch`` loop:
  apply events as they land, redraw after each batch, stop at
  ``run_end`` (or EOF when not following).

Watching is strictly read-only: the board renders from the event
stream alone and never touches the run's outputs, which is what makes
``--watch`` byte-identical to a watch-less run by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .histogram import Log2Histogram

#: Cell lifecycle states, in display order.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_FINISHED = "finished"
STATE_CRASHED = "crashed"

#: ANSI sequence repositioning the cursor and clearing the screen, used
#: between frames on a TTY.
CLEAR_FRAME = "\x1b[H\x1b[2J"


def snapshot_rollup(snapshot_docs: Dict[str, dict]) -> Dict[str, object]:
    """Per-cell perf roll-up streamed into manifest ``finish`` rows.

    Sums ``perf.cycles`` / ``perf.accesses`` across the cell's snapshot
    documents and merges the fault-latency histograms
    (``perf.fault_latencies``, falling back to the kernel-wide
    ``kernel.fault_latencies`` when the perf counters carried no
    samples), so a watcher tailing the manifest can derive ops/sec and
    fault-latency percentiles without reading any other run output.
    Purely model-derived, hence identical at any job count.
    """
    cycles = 0
    accesses = 0
    perf_latencies: Optional[Log2Histogram] = None
    kernel_latencies: Optional[Log2Histogram] = None
    seen = False

    def merged(
        acc: Optional[Log2Histogram], entry: Dict[str, object]
    ) -> Log2Histogram:
        histogram = Log2Histogram.from_dict(entry["value"])
        if acc is None:
            return histogram
        acc.merge(histogram)
        return acc

    for label in sorted(snapshot_docs):
        metrics = snapshot_docs[label].get("metrics") or {}
        for name in sorted(metrics):
            entry = metrics[name]
            if name == "perf.cycles":
                cycles += int(entry.get("value") or 0)
                seen = True
            elif name == "perf.accesses":
                accesses += int(entry.get("value") or 0)
                seen = True
            elif name == "perf.fault_latencies":
                perf_latencies = merged(perf_latencies, entry)
            elif name == "kernel.fault_latencies":
                kernel_latencies = merged(kernel_latencies, entry)
    latencies = perf_latencies
    if (latencies is None or not latencies.count) and kernel_latencies:
        latencies = kernel_latencies
    rollup: Dict[str, object] = {}
    if seen:
        rollup["cycles"] = cycles
        rollup["accesses"] = accesses
    if latencies is not None and latencies.count:
        rollup["fault_latencies"] = latencies.to_dict()
    return rollup


@dataclass
class CellView:
    """One cell's row on the board."""

    experiment: str
    seed: int
    index: int = -1
    state: str = STATE_QUEUED
    pid: Optional[int] = None
    started_wall: Optional[float] = None
    wall_seconds: Optional[float] = None
    modelled_cycles: Optional[int] = None
    trace_events: Optional[int] = None
    accesses: Optional[int] = None
    fault_p99: Optional[float] = None
    error: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.experiment}[seed={self.seed}]"

    def wall(self, now: Optional[float] = None) -> Optional[float]:
        """Elapsed wall seconds: final when finished, live when running."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        if (
            self.state == STATE_RUNNING
            and self.started_wall is not None
            and now is not None
        ):
            return max(0.0, now - self.started_wall)
        return None

    def ops_per_sec(self, now: Optional[float] = None) -> Optional[float]:
        wall = self.wall(now)
        if not wall or self.accesses is None:
            return None
        return self.accesses / wall


class WatchBoard:
    """State machine + renderer for the live run board."""

    def __init__(self) -> None:
        self.experiments: List[str] = []
        self.seeds: List[int] = []
        self.jobs: Optional[int] = None
        self.status: Optional[str] = None
        self.merged_events: Optional[int] = None
        self.dropped_events: Optional[int] = None
        self._cells: Dict[Tuple[str, int], CellView] = {}
        self._order: List[Tuple[str, int]] = []
        self.events_applied = 0

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #

    def _cell(self, event: Dict[str, object]) -> CellView:
        key = (str(event.get("experiment")), int(event.get("seed", 0)))
        cell = self._cells.get(key)
        if cell is None:
            cell = CellView(experiment=key[0], seed=key[1])
            self._cells[key] = cell
            self._order.append(key)
        return cell

    def apply(self, event: Dict[str, object]) -> None:
        """Fold one manifest event (or runner heartbeat) into the board."""
        kind = event.get("event")
        self.events_applied += 1
        if kind == "run_start":
            self.experiments = list(event.get("experiments") or [])
            self.seeds = list(event.get("seeds") or [])
            jobs = event.get("jobs")
            self.jobs = int(jobs) if jobs is not None else None
            return
        if kind == "run_end":
            self.status = str(event.get("status") or "")
            return
        if kind == "merge":
            merged = event.get("merged_events")
            self.merged_events = int(merged) if merged is not None else None
            dropped = event.get("dropped_events")
            self.dropped_events = (
                int(dropped) if dropped is not None else None
            )
            return
        if kind not in ("submit", "start", "finish", "crash"):
            return
        cell = self._cell(event)
        if kind == "submit":
            index = event.get("index")
            if index is not None:
                cell.index = int(index)
        elif kind == "start":
            cell.state = STATE_RUNNING
            pid = event.get("pid")
            cell.pid = int(pid) if pid is not None else None
            started = event.get("wall_time")
            if isinstance(started, (int, float)):
                cell.started_wall = float(started)
        elif kind == "finish":
            cell.state = STATE_FINISHED
            wall = event.get("wall_seconds")
            if isinstance(wall, (int, float)):
                cell.wall_seconds = float(wall)
            cycles = event.get("modelled_cycles")
            if cycles is not None:
                cell.modelled_cycles = int(cycles)
            events = event.get("trace_events")
            if events is not None:
                cell.trace_events = int(events)
            perf = event.get("perf")
            if isinstance(perf, dict):
                if perf.get("cycles") is not None:
                    # Modelled cycles from the snapshot roll-up; the
                    # capsule clock (above) wins when both are present.
                    if cell.modelled_cycles is None:
                        cell.modelled_cycles = int(perf["cycles"])
                if perf.get("accesses") is not None:
                    cell.accesses = int(perf["accesses"])
                latencies = perf.get("fault_latencies")
                if latencies is not None:
                    histogram = Log2Histogram.from_dict(latencies)
                    cell.fault_p99 = histogram.percentile(0.99)
        elif kind == "crash":
            cell.state = STATE_CRASHED
            cell.error = str(event.get("error") or "")

    # ------------------------------------------------------------------ #
    # Queries & rendering
    # ------------------------------------------------------------------ #

    @property
    def cells(self) -> List[CellView]:
        return [self._cells[key] for key in self._order]

    def counts(self) -> Dict[str, int]:
        counts = {
            STATE_QUEUED: 0,
            STATE_RUNNING: 0,
            STATE_FINISHED: 0,
            STATE_CRASHED: 0,
        }
        for cell in self.cells:
            counts[cell.state] += 1
        return counts

    @property
    def done(self) -> bool:
        """True once a ``run_end`` event arrived."""
        return self.status is not None

    def render(self, now: Optional[float] = None) -> str:
        """The board as fixed-width text (one frame)."""
        counts = self.counts()
        header = "run"
        if self.experiments:
            header += " " + ",".join(self.experiments)
        if self.seeds:
            header += " seeds=" + ",".join(str(s) for s in self.seeds)
        if self.jobs is not None:
            header += f" jobs={self.jobs}"
        total = len(self.cells)
        header += f"  [{counts[STATE_FINISHED]}/{total} cells"
        if self.status is not None:
            header += f", {self.status}"
        header += "]"
        columns = ["cell", "state", "wall", "Mcycles", "ops/s", "p99 fault"]
        rows: List[List[str]] = []
        for cell in self.cells:
            wall = cell.wall(now)
            ops = cell.ops_per_sec(now)
            rows.append(
                [
                    cell.label,
                    cell.state
                    + (f" ({cell.error})" if cell.error else ""),
                    f"{wall:.1f}s" if wall is not None else "-",
                    (
                        f"{cell.modelled_cycles / 1e6:.1f}"
                        if cell.modelled_cycles is not None
                        else "-"
                    ),
                    _format_rate(ops),
                    (
                        f"{cell.fault_p99:.0f}"
                        if cell.fault_p99 is not None
                        else "-"
                    ),
                ]
            )
        widths = [
            max([len(columns[col])] + [len(row[col]) for row in rows])
            for col in range(len(columns))
        ]
        lines = [header]
        lines.append(
            "  ".join(
                columns[col].ljust(widths[col])
                for col in range(len(columns))
            ).rstrip()
        )
        for row in rows:
            lines.append(
                "  ".join(
                    row[col].ljust(widths[col])
                    for col in range(len(columns))
                ).rstrip()
            )
        footer = (
            f"queued {counts[STATE_QUEUED]} | "
            f"running {counts[STATE_RUNNING]} | "
            f"finished {counts[STATE_FINISHED]} | "
            f"crashed {counts[STATE_CRASHED]}"
        )
        if self.merged_events is not None:
            footer += f" | merged events {self.merged_events}"
            if self.dropped_events:
                footer += f" (dropped {self.dropped_events})"
        lines.append(footer)
        return "\n".join(lines)


def _format_rate(rate: Optional[float]) -> str:
    if rate is None:
        return "-"
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


# ---------------------------------------------------------------------- #
# Manifest tailing
# ---------------------------------------------------------------------- #

def iter_manifest_events(
    path: Union[str, Path],
    follow: bool = True,
    interval: float = 0.5,
    timeout: Optional[float] = None,
    sleep: Optional[Callable[[float], None]] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Iterator[Dict[str, object]]:
    """Yield manifest events as their lines land on disk.

    Consumes only lines terminated by a newline -- the manifest writer
    flushes whole rows, so a partially visible row is left for the next
    poll. With ``follow`` the iterator waits for the file to appear and
    then polls every ``interval`` seconds until a ``run_end`` event (or
    ``timeout`` seconds, measured by ``clock``, elapse); without it the
    iterator drains the current file contents and stops. ``sleep`` and
    ``clock`` default to :func:`time.sleep` / :func:`time.monotonic`
    and exist for deterministic tests.
    """
    import time as _time

    sleep = sleep if sleep is not None else _time.sleep
    clock = clock if clock is not None else _time.monotonic
    path = Path(path)
    deadline = clock() + timeout if timeout is not None else None

    def out_of_time() -> bool:
        return deadline is not None and clock() >= deadline

    while not path.exists():
        if not follow or out_of_time():
            return
        sleep(interval)
    position = 0
    while True:
        with open(path, "r", encoding="utf-8") as handle:
            handle.seek(position)
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith("\n"):
                    # A row still being flushed: re-read next poll.
                    break
                position = handle.tell()
                text = line.strip()
                if not text:
                    continue
                try:
                    event = json.loads(text)
                except ValueError:
                    continue
                yield event
                if event.get("event") == "run_end":
                    return
        if not follow or out_of_time():
            return
        sleep(interval)


def write_frame(stream, frame: str, ansi: bool) -> None:
    """Write one board frame (ANSI screen-clear between frames on TTYs)."""
    if ansi:
        stream.write(CLEAR_FRAME + frame + "\n")
    else:
        stream.write(frame + "\n\n")
    stream.flush()


def watch_manifest(
    path: Union[str, Path],
    stream,
    follow: bool = True,
    interval: float = 0.5,
    timeout: Optional[float] = None,
    ansi: Optional[bool] = None,
    now: Optional[Callable[[], float]] = None,
) -> int:
    """Tail ``path`` and render the board after every event batch.

    Returns 0 when the run ended cleanly (or the manifest was drained
    without a terminal event), 1 when the run ended in error or any
    cell crashed.
    """
    import time as _time

    board = WatchBoard()
    if ansi is None:
        isatty = getattr(stream, "isatty", None)
        ansi = bool(isatty()) if callable(isatty) else False
    if now is None:
        # Presentation-only wall clock for the "running" elapsed
        # column; never model state.
        now = _time.time  # simlint: disable=wall-clock
    rendered = 0
    for event in iter_manifest_events(
        path, follow=follow, interval=interval, timeout=timeout
    ):
        board.apply(event)
        write_frame(stream, board.render(now()), ansi)
        rendered += 1
    if rendered == 0:
        write_frame(stream, board.render(), ansi)
    counts = board.counts()
    if board.status not in (None, "ok") or counts[STATE_CRASHED]:
        return 1
    return 0
