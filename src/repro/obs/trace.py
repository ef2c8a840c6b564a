"""Tracepoint registry and the global tracer.

Modeled on Linux tracepoints/ftrace: emit sites are declared once at
module import time (``_TP_SPLIT = tracepoint("buddy.split")``) and fire
only when their *category* (the part before the first dot) is enabled
AND at least one sink is attached. The disabled fast path is a single
attribute read (``tp.enabled``), so instrumentation threaded through the
simulator's hot layers costs nothing measurable when tracing is off --
enforced by ``benchmarks/test_obs_overhead.py``.

Timestamps are *modelled cycles*: the simulation engine advances the
tracer clock by the cycles of every executed memory operation while
tracing is active, so exported traces render walks and faults on the
same timeline the paper's figures reason about. Scheduler turns are
tracked alongside as a coarse second axis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError

#: Tracepoint names are dotted lower-case paths: ``layer.event`` (one or
#: more dots), checked when the tracepoint is registered.
TRACEPOINT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@dataclass
class TraceEvent:
    """One recorded event: where on the modelled timeline, what, and why.

    ``ts`` is the tracer's modelled-cycle clock at emit time, ``turn``
    the scheduler turn, ``seq`` a per-tracer monotone sequence number
    that totally orders events sharing a timestamp.
    """

    seq: int
    ts: int
    turn: int
    name: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def category(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "turn": self.turn,
            "name": self.name,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceEvent":
        return cls(
            seq=int(payload["seq"]),
            ts=int(payload["ts"]),
            turn=int(payload["turn"]),
            name=str(payload["name"]),
            args=dict(payload.get("args") or {}),
        )


class Tracepoint:
    """One named emit site.

    ``enabled`` is pre-computed by the tracer whenever sinks or category
    masks change, so emit sites pay only ``if tp.enabled:`` when tracing
    is off. Always guard the call site itself -- building the kwargs
    dict is the expensive part::

        if _TP_SPLIT.enabled:
            _TP_SPLIT.emit(base=base, order=order)
    """

    __slots__ = ("name", "category", "enabled", "_tracer")

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self.category = name.split(".", 1)[0]
        self.enabled = False
        self._tracer = tracer

    def emit(self, **args: object) -> None:
        """Record one event (no-op while the tracepoint is disabled)."""
        if self.enabled:
            self._tracer.record(self.name, args)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Tracepoint({self.name!r}, {state})"


class Tracer:
    """Registry of tracepoints plus the modelled-cycle clock and sinks."""

    def __init__(self) -> None:
        self._tracepoints: Dict[str, Tracepoint] = {}
        self._enabled_categories: List[str] = []
        self._sinks: List[object] = []
        #: True iff at least one sink is attached and one category is
        #: enabled; the engine's per-access clock advance is guarded on
        #: this single attribute.
        self.active = False
        #: Modelled-cycle clock (advanced by the simulation engine).
        self.now = 0
        #: Current scheduler turn (set by the simulation engine).
        self.turn = 0
        #: When non-zero, every new :class:`~repro.sim.engine.Simulation`
        #: auto-attaches the standard periodic sampler at this cycle
        #: interval (the runner's ``--sample-interval`` knob).
        self.sample_interval_cycles = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def tracepoint(self, name: str) -> Tracepoint:
        """Create-or-get the tracepoint called ``name``.

        Names must be dotted lower-case paths (``layer.event``); the
        category is the first component. Registration is idempotent so
        module reloads and dynamic sites (the sampler) share instances.
        """
        existing = self._tracepoints.get(name)
        if existing is not None:
            return existing
        if not TRACEPOINT_NAME_RE.match(name):
            raise ReproError(
                f"invalid tracepoint name {name!r}; use dotted lower-case "
                "'layer.event' naming"
            )
        tp = Tracepoint(name, self)
        tp.enabled = self._category_enabled(tp.category) and bool(self._sinks)
        self._tracepoints[name] = tp
        return tp

    def catalog(self) -> Dict[str, bool]:
        """Mapping of every registered tracepoint name -> enabled, sorted."""
        return {
            name: self._tracepoints[name].enabled
            for name in sorted(self._tracepoints)
        }

    # ------------------------------------------------------------------ #
    # Enable masks and sinks
    # ------------------------------------------------------------------ #

    def _category_enabled(self, category: str) -> bool:
        return "*" in self._enabled_categories or category in self._enabled_categories

    def _refresh(self) -> None:
        self.active = bool(self._sinks) and bool(self._enabled_categories)
        has_sinks = bool(self._sinks)
        for tp in self._tracepoints.values():
            tp.enabled = has_sinks and self._category_enabled(tp.category)

    def enable(self, *categories: str) -> None:
        """Enable tracing for ``categories`` (``"*"`` = everything)."""
        for category in categories:
            if category not in self._enabled_categories:
                self._enabled_categories.append(category)
        self._refresh()

    def disable(self, *categories: str) -> None:
        """Disable ``categories``; with no arguments, disable everything."""
        if not categories:
            self._enabled_categories.clear()
        else:
            for category in categories:
                if category in self._enabled_categories:
                    self._enabled_categories.remove(category)
        self._refresh()

    def enabled_categories(self) -> Tuple[str, ...]:
        return tuple(self._enabled_categories)

    def attach(self, sink: object) -> None:
        """Add a sink; every recorded event is written to all sinks."""
        if sink not in self._sinks:
            self._sinks.append(sink)
        self._refresh()

    def detach(self, sink: object) -> None:
        """Remove a previously attached sink (no-op if absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)
        self._refresh()

    # ------------------------------------------------------------------ #
    # Clock + recording
    # ------------------------------------------------------------------ #

    def advance(self, cycles: int) -> None:
        """Advance the modelled-cycle clock (engine hot path, guarded)."""
        self.now += cycles

    def record(self, name: str, args: Dict[str, object]) -> None:
        """Stamp and fan an event out to every sink."""
        event = TraceEvent(
            seq=self._seq, ts=self.now, turn=self.turn, name=name, args=args
        )
        self._seq += 1
        for sink in self._sinks:
            sink.write(event)

    def reset(self) -> None:
        """Detach sinks, disable all categories, and zero the clock.

        Registered tracepoints survive (module-level emit sites keep
        their bound objects); they are all switched off.
        """
        self._sinks.clear()
        self._enabled_categories.clear()
        self.now = 0
        self.turn = 0
        self._seq = 0
        self.sample_interval_cycles = 0
        self._refresh()


#: The process-wide tracer every emit site binds to.
TRACER = Tracer()


def tracepoint(name: str) -> Tracepoint:
    """Declare (or fetch) a tracepoint on the global tracer."""
    return TRACER.tracepoint(name)


class capture:
    """Context manager: capture events into a sink, restoring state after.

    ::

        from repro.obs import capture, RingBufferSink

        with capture("buddy", "fault") as sink:
            sim.run_until_finished(run)
        events = sink.events()

    With no categories, everything (``"*"``) is captured. A custom sink
    (e.g. a :class:`~repro.obs.sinks.JsonlSink`) can be supplied.
    """

    def __init__(self, *categories: str, sink: Optional[object] = None) -> None:
        from .sinks import RingBufferSink

        self.categories: Iterable[str] = categories or ("*",)
        self.sink = sink if sink is not None else RingBufferSink()
        self._prior_categories: Tuple[str, ...] = ()

    def __enter__(self):
        self._prior_categories = TRACER.enabled_categories()
        TRACER.attach(self.sink)
        TRACER.enable(*self.categories)
        return self.sink

    def __exit__(self, exc_type, exc, tb) -> None:
        TRACER.detach(self.sink)
        TRACER.disable()
        if self._prior_categories:
            TRACER.enable(*self._prior_categories)
