"""Named, typed, self-describing metrics: the registry and snapshots.

Before this module, the simulator's measurements lived in ad-hoc
dataclass fields (:class:`~repro.metrics.counters.PerfCounters`,
``KernelStats``, per-stream cache tallies) with no shared naming scheme,
so every consumer -- experiments, the sampler, the profiler, CI -- spoke
a different dialect. The registry gives each measurement a stable dotted
lower-case name (``perf.walk_cycles``, ``kernel.faults``,
``cache.hpt.memory``), a kind (counter / gauge / histogram) and help
text.

* :class:`MetricsRegistry` / :data:`REGISTRY` -- the process-wide schema:
  declare metrics once, list them with :meth:`MetricsRegistry.catalog`.
* :class:`MetricsSnapshot` -- one labelled set of values for registered
  metrics, with JSON round-trip. Snapshots are *self-describing*: the
  JSON embeds kind/help, so ``python -m repro.obs diff`` can compare
  files from different builds.
* Snapshot files hold either one snapshot or a labelled family
  (:func:`write_snapshots` / :func:`load_snapshot`, which accepts
  ``path#label`` to pick one member).

Metric names are validated here at registration, so a malformed
literal name fails on import.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ReproError
from ..obs.histogram import Log2Histogram
from ..obs.profile import ProfileNode

#: Metric names are dotted lower-case paths (``family.metric`` with one
#: or more dots).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Schema version stamped into snapshot JSON (bump on incompatible change).
SNAPSHOT_SCHEMA_VERSION = 1

#: ``kind`` discriminators of the two snapshot-file layouts.
SNAPSHOT_KIND = "repro.metrics.snapshot"
SNAPSHOT_FAMILY_KIND = "repro.metrics.snapshots"

#: A scalar metric value. Histogram metrics carry a full Log2Histogram.
Scalar = Union[int, float]


class MetricKind(enum.Enum):
    """What a metric measures and how it may be aggregated."""

    #: Monotonically accumulated total (events, cycles).
    COUNTER = "counter"
    #: Point-in-time level (fractions, occupancy, percentages).
    GAUGE = "gauge"
    #: Log2-bucketed sample distribution (:class:`Log2Histogram`).
    HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: name, kind, and documentation."""

    name: str
    kind: MetricKind
    help: str = ""
    unit: str = ""


class MetricsRegistry:
    """Registry of metric declarations, keyed by dotted name."""

    def __init__(self) -> None:
        self._specs: Dict[str, MetricSpec] = {}

    def register(
        self,
        name: str,
        kind: MetricKind,
        help: str = "",
        unit: str = "",
    ) -> MetricSpec:
        """Declare (or re-fetch) a metric; idempotent for matching kinds.

        Re-registering an existing name with a different kind raises --
        a name means one thing forever, which is what makes snapshot
        diffs across builds trustworthy.
        """
        existing = self._specs.get(name)
        if existing is not None:
            if existing.kind is not kind:
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind.value}, not {kind.value}"
                )
            return existing
        if not METRIC_NAME_RE.match(name):
            raise ReproError(
                f"invalid metric name {name!r}; use dotted lower-case "
                "'family.metric' naming"
            )
        spec = MetricSpec(name=name, kind=kind, help=help, unit=unit)
        self._specs[name] = spec
        return spec

    def counter(self, name: str, help: str = "", unit: str = "") -> MetricSpec:
        return self.register(name, MetricKind.COUNTER, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> MetricSpec:
        return self.register(name, MetricKind.GAUGE, help, unit)

    def histogram(self, name: str, help: str = "", unit: str = "") -> MetricSpec:
        return self.register(name, MetricKind.HISTOGRAM, help, unit)

    def get(self, name: str) -> Optional[MetricSpec]:
        return self._specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def catalog(self) -> List[MetricSpec]:
        """Every registered spec, sorted by name (deterministic output)."""
        return [self._specs[name] for name in sorted(self._specs)]


#: The process-wide registry all standard collectors declare into.
REGISTRY = MetricsRegistry()


class MetricsSnapshot:
    """One labelled valuation of registered metrics (plus, optionally,
    a profiler attribution tree).

    Values are set through :meth:`set`, which validates the name against
    the registry and the value against the metric kind; unregistered
    names are rejected so every recorded number has a declaration.
    """

    def __init__(
        self,
        label: str,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.label = label
        self.registry = registry if registry is not None else REGISTRY
        self.metrics: Dict[str, Union[Scalar, Log2Histogram]] = {}
        #: Optional cycle-attribution tree (see :mod:`repro.obs.profile`).
        self.profile: Optional[ProfileNode] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def set(self, name: str, value: Union[Scalar, Log2Histogram]) -> None:
        """Record ``value`` for the registered metric ``name``."""
        spec = self.registry.get(name)
        if spec is None:
            raise ReproError(
                f"metric {name!r} is not registered; declare it via "
                "MetricsRegistry.counter/gauge/histogram first"
            )
        if spec.kind is MetricKind.HISTOGRAM:
            if not isinstance(value, Log2Histogram):
                raise ReproError(
                    f"metric {name!r} is a histogram; got {type(value).__name__}"
                )
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReproError(
                f"metric {name!r} needs a numeric value; got "
                f"{type(value).__name__}"
            )
        self.metrics[name] = value

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Union[Scalar, Log2Histogram, None]:
        return self.metrics.get(name)

    def scalar_items(self) -> Iterator[Tuple[str, float]]:
        """``(name, value)`` for every non-histogram metric, sorted.

        Histogram metrics are flattened into derived ``.count`` /
        ``.mean`` / ``.p99`` scalars so comparisons (``repro.obs diff``)
        can treat everything uniformly.
        """
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if isinstance(value, Log2Histogram):
                yield f"{name}.count", float(value.count)
                yield f"{name}.mean", value.mean
                yield f"{name}.p99", value.percentile(0.99)
            else:
                yield name, float(value)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        metrics: Dict[str, object] = {}
        for name in sorted(self.metrics):
            value = self.metrics[name]
            spec = self.registry.get(name)
            entry: Dict[str, object] = {"kind": spec.kind.value}
            if spec.help:
                entry["help"] = spec.help
            if spec.unit:
                entry["unit"] = spec.unit
            if isinstance(value, Log2Histogram):
                entry["value"] = value.to_dict()
            else:
                entry["value"] = value
            metrics[name] = entry
        payload: Dict[str, object] = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "kind": SNAPSHOT_KIND,
            "label": self.label,
            "metrics": metrics,
        }
        if self.profile is not None:
            payload["profile"] = self.profile.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MetricsSnapshot":
        """Rebuild a snapshot from its JSON dict.

        The embedded kind/help information reconstructs a private
        registry, so loading never depends on what the current process
        has registered -- snapshots from older builds stay comparable.
        """
        if payload.get("kind") != SNAPSHOT_KIND:
            raise ReproError(
                f"not a metrics snapshot (kind={payload.get('kind')!r})"
            )
        registry = MetricsRegistry()
        snapshot = cls(str(payload.get("label", "")), registry=registry)
        for name, entry in sorted(dict(payload.get("metrics") or {}).items()):
            kind = MetricKind(entry["kind"])
            registry.register(
                name,
                kind,
                help=str(entry.get("help", "")),
                unit=str(entry.get("unit", "")),
            )
            if kind is MetricKind.HISTOGRAM:
                snapshot.set(name, Log2Histogram.from_dict(entry["value"]))
            else:
                snapshot.set(name, entry["value"])
        profile = payload.get("profile")
        if profile is not None:
            snapshot.profile = ProfileNode.from_dict("root", profile)
        return snapshot


# ---------------------------------------------------------------------- #
# Snapshot files
# ---------------------------------------------------------------------- #

def snapshots_to_document(
    snapshots: Dict[str, MetricsSnapshot]
) -> Dict[str, object]:
    """The JSON document for one or several labelled snapshots."""
    if len(snapshots) == 1:
        (snapshot,) = snapshots.values()
        return snapshot.to_dict()
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "kind": SNAPSHOT_FAMILY_KIND,
        "snapshots": {
            label: snapshots[label].to_dict() for label in sorted(snapshots)
        },
    }


def write_snapshots(
    path: Union[str, Path], snapshots: Dict[str, MetricsSnapshot]
) -> None:
    """Write a snapshot document (single or labelled family) to ``path``."""
    if not snapshots:
        raise ReproError("no snapshots to write")
    document = snapshots_to_document(snapshots)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_snapshot(spec: Union[str, Path]) -> MetricsSnapshot:
    """Load one snapshot from ``path`` or ``path#label``.

    A bare path resolves to the file's only snapshot; for a labelled
    family with several members the ``#label`` fragment picks one
    (``table1.json#colocated``).
    """
    spec = str(spec)
    path, _, label = spec.partition("#")
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ReproError(
            f"{path}: not a metrics snapshot file "
            f"(top-level JSON {type(payload).__name__}, expected an object)"
        )
    kind = payload.get("kind")
    if kind == SNAPSHOT_KIND:
        return MetricsSnapshot.from_dict(payload)
    if kind != SNAPSHOT_FAMILY_KIND:
        raise ReproError(
            f"{path}: not a metrics snapshot file (kind={kind!r})"
        )
    members = dict(payload.get("snapshots") or {})
    if label:
        if label not in members:
            raise ReproError(
                f"{path}: no snapshot labelled {label!r} "
                f"(have: {', '.join(sorted(members))})"
            )
        return MetricsSnapshot.from_dict(members[label])
    if len(members) == 1:
        (entry,) = members.values()
        return MetricsSnapshot.from_dict(entry)
    raise ReproError(
        f"{path} holds {len(members)} snapshots; pick one with "
        f"'{path}#<label>' (have: {', '.join(sorted(members))})"
    )
