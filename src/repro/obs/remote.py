"""Distributed observability: per-worker capture capsules and mergers.

The tracer, profiler and sampler are process-global singletons, which
made ``--trace``/``--profile``/``--sample-interval`` single-process
features: the moment ``--jobs N`` fanned experiment cells out over
spawn workers, the parent went blind. This module closes that gap:

* :class:`CaptureSpec` -- a small picklable description of what to
  capture (trace categories, sampling cadence, profiler), shipped from
  the parent to every worker;
* :class:`ObservabilityCapsule` -- the worker-side lifecycle: installed
  around :func:`repro.parallel.run_cell`, it arms a ring-buffer sink,
  the profiler and the periodic sampler per the spec, then serializes
  the captured trace slice, attribution tree and sampler series into a
  JSON-safe *capsule* document returned inside the cell output;
* :func:`merge_capsules` -- the parent-side merge: trace events from
  all cells interleaved by modelled cycle (submission order breaks
  ties, so the merge is deterministic at any job count), profile trees
  merged path-wise, sampler series kept per cell, plus per-cell
  provenance (event/drop/byte counts);
* :func:`capsule_snapshots` -- per-cell metrics snapshots tagged
  ``cell.<label>`` (plus a ``fleet`` aggregate) so ``python -m
  repro.obs diff`` can compare any worker against any other.

Merged traces tag every event with a ``worker`` argument (the cell's
submission index) and prepend one ``capsule.track`` event per cell;
the Chrome exporter turns these into per-worker Perfetto tracks
(pid/tid = cell index) with the cell label as the track name.

Capsules capture into a bounded ring (:attr:`CaptureSpec.buffer_events`
events per worker, oldest dropped first); drops are counted in the
capsule, reported by the runner's ``--trace`` warning and carried by
the ``obs.capsule.dropped_events`` gauges, never silent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from .export import WORKER_TRACK_EVENT
from .profile import PROFILER, ProfileNode
from .sinks import RingBufferSink
from .trace import TRACER, TraceEvent

#: Schema stamped into capsule documents (bump on incompatible change).
CAPSULE_SCHEMA_VERSION = 1
CAPSULE_KIND = "repro.obs.capsule"

#: Sample points are ``[turn, cycles, value]`` triples.
SeriesPoint = List[Union[int, float]]


@dataclass(frozen=True)
class CaptureSpec:
    """What each worker's capsule captures. Picklable and JSON-safe.

    ``trace`` arms the tracer with ``categories`` enabled and buffers up
    to ``buffer_events`` events; ``sample_interval_cycles`` additionally
    auto-attaches the standard periodic sampler to every simulation the
    cell builds (the engine reads ``TRACER.sample_interval_cycles``);
    ``profile`` arms the cycle-attribution profiler.
    """

    trace: bool = False
    categories: Tuple[str, ...] = ("*",)
    sample_interval_cycles: int = 0
    profile: bool = False
    buffer_events: int = 1 << 20

    @property
    def active(self) -> bool:
        return self.trace or self.profile

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace,
            "categories": list(self.categories),
            "sample_interval_cycles": self.sample_interval_cycles,
            "profile": self.profile,
            "buffer_events": self.buffer_events,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CaptureSpec":
        return cls(
            trace=bool(payload.get("trace")),
            categories=tuple(payload.get("categories") or ("*",)),
            sample_interval_cycles=int(
                payload.get("sample_interval_cycles") or 0
            ),
            profile=bool(payload.get("profile")),
            buffer_events=int(payload.get("buffer_events") or (1 << 20)),
        )


class ObservabilityCapsule:
    """Worker-side capture lifecycle around one experiment cell.

    :meth:`install` resets the process-global tracer/profiler (each cell
    starts at modelled cycle 0, so merges are identical at any job
    count) and arms them per the spec; :meth:`finalize` tears them back
    down and returns the JSON-safe capsule document. Mutating the
    ``TRACER``/``PROFILER`` singletons here is spawn-safe by design:
    every worker owns a private re-imported copy and the captured data
    travels back by return value.
    """

    def __init__(self, spec: Optional[CaptureSpec]) -> None:
        self.spec = spec
        self._sink: Optional[RingBufferSink] = None
        self._installed = False

    def install(self) -> None:
        """Arm tracer/profiler/sampler per the spec (no-op when inactive)."""
        spec = self.spec
        if spec is None or not spec.active:
            return
        TRACER.reset()
        PROFILER.reset()
        if spec.trace:
            self._sink = RingBufferSink(spec.buffer_events)
            TRACER.attach(self._sink)
            TRACER.enable(*(spec.categories or ("*",)))
            TRACER.sample_interval_cycles = spec.sample_interval_cycles
        if spec.profile:
            PROFILER.enable()
        self._installed = True

    def finalize(self) -> Optional[Dict[str, object]]:
        """Capture results, tear observability down, return the capsule."""
        spec = self.spec
        if spec is None or not spec.active or not self._installed:
            return None
        doc: Dict[str, object] = {
            "schema_version": CAPSULE_SCHEMA_VERSION,
            "kind": CAPSULE_KIND,
            "spec": spec.to_dict(),
            "clock": {"cycles": TRACER.now, "turn": TRACER.turn},
        }
        if self._sink is not None:
            events = self._sink.events()
            doc["events"] = [event.to_dict() for event in events]
            doc["dropped_events"] = self._sink.dropped_events
            doc["series"] = series_from_events(events)
        if spec.profile:
            doc["profile"] = PROFILER.to_dict()
        self.abort()
        return doc

    def abort(self) -> None:
        """Tear observability down without capturing (failure path)."""
        if not self._installed:
            return
        TRACER.reset()
        PROFILER.reset()
        self._sink = None
        self._installed = False


def series_from_events(
    events: Sequence[TraceEvent],
) -> Dict[str, List[SeriesPoint]]:
    """Per-probe sampler series recovered from ``sample.*`` events.

    The periodic sampler mirrors every probe value onto a ``sample.*``
    tracepoint, so the trace slice already carries the full time series;
    this keys them by probe name as ``[turn, cycles, value]`` triples.
    """
    series: Dict[str, List[SeriesPoint]] = {}
    for event in events:
        if event.category != "sample":
            continue
        value = event.args.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        probe = str(event.args.get("probe", event.name))
        series.setdefault(probe, []).append([event.turn, event.ts, value])
    return series


def capsule_nbytes(doc: Dict[str, object]) -> int:
    """Canonical serialized size of a capsule document, in bytes."""
    return len(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# ---------------------------------------------------------------------- #
# Parent-side merge
# ---------------------------------------------------------------------- #

@dataclass
class MergedObservability:
    """Everything :func:`merge_capsules` produced, ready for export."""

    #: All cells' events interleaved by (modelled cycle, cell index,
    #: per-cell sequence), re-sequenced; each tagged ``worker=<index>``,
    #: preceded by one ``capsule.track`` naming event per cell.
    events: List[TraceEvent] = field(default_factory=list)
    #: Path-wise sum of every cell's attribution tree (None when no
    #: capsule carried a profile).
    profile: Optional[ProfileNode] = None
    #: Per-cell sampler series: label -> probe -> [turn, cycles, value].
    series: Dict[str, Dict[str, List[SeriesPoint]]] = field(
        default_factory=dict
    )
    #: One provenance row per merged cell, in submission order: index,
    #: label, event/drop/byte counts, modelled cycles and turns.
    provenance: List[Dict[str, object]] = field(default_factory=list)

    @property
    def dropped_events(self) -> int:
        return sum(int(row["dropped_events"]) for row in self.provenance)


def merge_profile_trees(trees: Sequence[ProfileNode]) -> ProfileNode:
    """Path-wise merge: self cycles/counts summed at every path.

    The merged tree behaves exactly like a single-process one --
    ``total_cycles`` aggregates subtrees, ``rank_delta`` and the folded
    flamegraph export consume it unchanged.
    """
    merged = ProfileNode("root")
    for tree in trees:
        _accumulate_profile(merged, tree)
    return merged


def _accumulate_profile(into: ProfileNode, tree: ProfileNode) -> None:
    into.cycles += tree.cycles
    into.count += tree.count
    for name, child in sorted(tree.children.items()):
        _accumulate_profile(into.child(name), child)


def _check_capsule(label: str, doc: Dict[str, object]) -> None:
    if doc.get("kind") != CAPSULE_KIND:
        raise ReproError(
            f"cell {label!r}: not an observability capsule "
            f"(kind={doc.get('kind')!r})"
        )
    version = doc.get("schema_version")
    if version != CAPSULE_SCHEMA_VERSION:
        raise ReproError(
            f"cell {label!r}: capsule schema {version!r} != "
            f"{CAPSULE_SCHEMA_VERSION}"
        )


def merge_capsules(
    entries: Sequence[Tuple[str, Optional[Dict[str, object]]]],
) -> MergedObservability:
    """Merge per-cell capsules, in submission order, deterministically.

    ``entries`` are ``(cell label, capsule document)`` pairs exactly as
    the parent consumed them (submission order); cells without a capsule
    (``None``) are skipped. Events interleave by ``(modelled cycle, cell
    index, per-cell seq)`` -- every cell's clock starts at zero, so the
    merged ordering depends only on the cells' own behaviour, never on
    scheduling -- and the merged sequence numbers are reassigned to be
    globally monotone.
    """
    merged = MergedObservability()
    keyed: List[Tuple[int, int, int, TraceEvent]] = []
    profiles: List[ProfileNode] = []
    for index, (label, doc) in enumerate(entries):
        if doc is None:
            continue
        _check_capsule(label, doc)
        clock = dict(doc.get("clock") or {})
        events = [
            TraceEvent.from_dict(payload)
            for payload in (doc.get("events") or [])
        ]
        track = TraceEvent(
            seq=-1,
            ts=0,
            turn=0,
            name=WORKER_TRACK_EVENT,
            args={"worker": index, "label": label},
        )
        keyed.append((0, index, -1, track))
        for event in events:
            event.args["worker"] = index
            keyed.append((event.ts, index, event.seq, event))
        profile = doc.get("profile")
        if profile is not None:
            profiles.append(ProfileNode.from_dict("root", profile))
        series = doc.get("series") or {}
        if series:
            merged.series[label] = {
                probe: [list(point) for point in points]
                for probe, points in sorted(series.items())
            }
        merged.provenance.append(
            {
                "index": index,
                "cell": label,
                "events": len(events),
                "dropped_events": int(doc.get("dropped_events") or 0),
                "bytes": capsule_nbytes(doc),
                "modelled_cycles": int(clock.get("cycles") or 0),
                "turns": int(clock.get("turn") or 0),
                "profile": profile is not None,
            }
        )
    keyed.sort(key=lambda item: item[:3])
    for seq, (_, _, _, event) in enumerate(keyed):
        event.seq = seq
        merged.events.append(event)
    if profiles:
        merged.profile = merge_profile_trees(profiles)
    return merged


def capsule_snapshots(merged: MergedObservability):
    """Per-cell metrics snapshots (``cell.<label>``) plus a ``fleet``
    aggregate, for ``--metrics-out`` families.

    Each cell's snapshot carries its capsule accounting
    (``obs.capsule.*`` gauges) and the final/peak value of every sampler
    probe (``obs.sample.<probe>.*``); the fleet snapshot sums the
    accounting and aggregates probe finals across cells, so ``python -m
    repro.obs diff out.json#cell.a out.json#cell.b`` compares workers
    and ``...#fleet`` watches the whole run.
    """
    # Imported here: repro.metrics imports repro.obs submodules at init,
    # so a module-level import would cycle (see repro.obs.diff).
    from ..metrics.registry import REGISTRY, MetricsSnapshot

    def gauge(snapshot: MetricsSnapshot, name: str, value: float) -> None:
        REGISTRY.gauge(name)
        snapshot.set(name, value)

    snapshots: Dict[str, MetricsSnapshot] = {}
    fleet = MetricsSnapshot("fleet")
    finals: Dict[str, List[float]] = {}
    totals = {"events": 0, "dropped_events": 0, "bytes": 0,
              "modelled_cycles": 0}
    for row in merged.provenance:
        label = f"cell.{row['cell']}"
        snapshot = MetricsSnapshot(label)
        gauge(snapshot, "obs.capsule.trace_events", row["events"])
        gauge(snapshot, "obs.capsule.dropped_events", row["dropped_events"])
        gauge(snapshot, "obs.capsule.bytes", row["bytes"])
        gauge(snapshot, "obs.capsule.modelled_cycles", row["modelled_cycles"])
        gauge(snapshot, "obs.capsule.turns", row["turns"])
        for key in totals:
            totals[key] += int(row[key])
        cell_series = merged.series.get(str(row["cell"]), {})
        for probe, points in sorted(cell_series.items()):
            if not points:
                continue
            values = [point[2] for point in points]
            gauge(snapshot, f"obs.sample.{probe}.final", values[-1])
            gauge(snapshot, f"obs.sample.{probe}.peak", max(values))
            gauge(snapshot, f"obs.sample.{probe}.samples", len(values))
            finals.setdefault(probe, []).append(values[-1])
        snapshots[label] = snapshot
    gauge(fleet, "obs.fleet.cells", len(merged.provenance))
    gauge(fleet, "obs.fleet.trace_events", totals["events"])
    gauge(fleet, "obs.fleet.dropped_events", totals["dropped_events"])
    gauge(fleet, "obs.fleet.bytes", totals["bytes"])
    gauge(fleet, "obs.fleet.modelled_cycles", totals["modelled_cycles"])
    for probe in sorted(finals):
        values = finals[probe]
        gauge(fleet, f"obs.sample.{probe}.final_sum", sum(values))
        gauge(
            fleet, f"obs.sample.{probe}.final_mean", sum(values) / len(values)
        )
    snapshots["fleet"] = fleet
    return snapshots
