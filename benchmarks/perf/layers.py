"""Per-layer host-time attribution, measured from outside the simulator.

:class:`LayerTracer` replaces the public entry points of each simulator
layer (table :data:`LAYERS`) with timing wrappers for the lifetime of one
traced run, then restores the original class attributes. Nothing under
``src/`` knows it is being measured.

Each wrapped call opens a span on a stack. A span's *self* time is its
duration minus the durations of the spans it directly encloses, so the
self times of all layers partition the time spent inside the outermost
spans. A call into a layer that already has an open span (a re-entry,
e.g. ``BuddyAllocator.alloc_frame`` calling ``alloc``) opens no new span:
its time stays with the innermost open span.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, class, public entry points timed).
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.turn", "repro.sim.engine", "Simulation", ("turn",)),
    ("sim.step", "repro.sim.engine", "WorkloadRun", ("step",)),
    ("workloads.emit", "repro.workloads.base", "Workload", ("ops_batched",)),
    (
        "tlb",
        "repro.tlb.tlb",
        "TlbHierarchy",
        ("lookup", "insert", "invalidate", "invalidate_many"),
    ),
    (
        "cache",
        "repro.cache.hierarchy",
        "CacheHierarchy",
        ("access", "access_block", "access_data"),
    ),
    ("cache.pwc", "repro.cache.pwc", "PageWalkCache", ("lookup", "fill")),
    ("pagetable.walk", "repro.pagetable.walker", "PageWalker", ("walk",)),
    ("virt.walk", "repro.virt.nested", "NestedWalker", ("walk",)),
    (
        "virt.backing",
        "repro.virt.hypervisor",
        "HostKernel",
        ("ensure_backed", "unback"),
    ),
    ("os.fault", "repro.os.kernel", "GuestKernel", ("handle_fault",)),
    (
        "core.alloc",
        "repro.core.allocator",
        "PTEMagnetAllocator",
        ("fault", "free_page"),
    ),
    (
        "mem.buddy",
        "repro.mem.buddy",
        "BuddyAllocator",
        ("alloc", "alloc_frame", "alloc_frame_at", "free"),
    ),
    ("os.munmap", "repro.os.kernel", "GuestKernel", ("munmap",)),
    ("os.reclaim", "repro.os.kernel", "GuestKernel", ("run_reclaim",)),
    ("obs.sample", "repro.obs.sampler", "PeriodicSampler", ("on_turn",)),
)

#: Host time spent outside every span: experiment set-up, Simulation
#: construction, snapshotting, and the harness itself.
OTHER = "experiments.other"

#: Every reported layer, in table order, :data:`OTHER` last.
LAYER_NAMES: Tuple[str, ...] = tuple(row[0] for row in LAYERS) + (OTHER,)

#: The layer whose entry point returns an iterator: its spans time each
#: ``next()`` on that iterator, not the call that creates it.
_EMIT = "workloads.emit"


def _owners(cls: type, name: str) -> Iterator[type]:
    """``cls`` and every subclass that defines its own ``name``."""
    pending = [cls]
    seen = set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if name in vars(klass):
            yield klass
        pending.extend(klass.__subclasses__())


def layer_classes() -> List[Tuple[str, type, str]]:
    """(layer, owning class, attribute) for every wrapped entry point."""
    sites = []
    for layer, module, class_name, methods in LAYERS:
        cls = getattr(importlib.import_module(module), class_name)
        for method in methods:
            for owner in _owners(cls, method):
                sites.append((layer, owner, method))
    return sites


class _TimedIterator:
    """An iterator whose every ``next()`` is one ``workloads.emit`` span."""

    __slots__ = ("_iterator", "_next")

    def __init__(self, iterator, timed_next: Callable) -> None:
        self._iterator = iterator
        self._next = timed_next

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._next(self._iterator)


class LayerTracer:
    """Span stack and per-layer totals for one traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original class attribute.
    """

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[layer, seconds in child spans]``.
        self._stack: List[list] = []
        self._open: Dict[str, bool] = dict.fromkeys(LAYER_NAMES, False)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYER_NAMES, 0)
        #: (layer, parent layer or None) -> [spans, total s, self s].
        self.edges: Dict[Tuple[str, Optional[str]], list] = {}
        #: Seconds inside outermost spans (the sum of all self times).
        self.root_s = 0.0
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each non-re-entrant call is one span."""
        stack = self._stack
        is_open = self._open
        self_s = self.self_s
        calls = self.calls
        edges = self.edges

        def span(*args, **kwargs):
            if is_open[layer]:
                return fn(*args, **kwargs)
            is_open[layer] = True
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                is_open[layer] = False
                own = elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (layer, parent[0])
                else:
                    self.root_s += elapsed
                    key = (layer, None)
                self_s[layer] += own
                calls[layer] += 1
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed, own]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += own

        span.__wrapped__ = fn
        return span

    def _emitting(self, fn: Callable) -> Callable:
        timed_next = self.timed(_EMIT, next)

        def ops_batched(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), timed_next)

        ops_batched.__wrapped__ = fn
        return ops_batched

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` on its class."""
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for layer, owner, method in layer_classes():
            original = vars(owner)[method]
            self._saved.append((owner, method, original))
            if layer == _EMIT:
                setattr(owner, method, self._emitting(original))
            else:
                setattr(owner, method, self.timed(layer, original))

    def uninstall(self) -> None:
        """Put every original class attribute back."""
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, spans) so far, :data:`OTHER` excluded."""
        return {
            layer: (self.self_s[layer], self.calls[layer])
            for layer in LAYER_NAMES
            if layer != OTHER
        }

    def tree(self) -> List[Dict[str, object]]:
        """The (layer, parent) edges with their span counts and times."""
        return [
            {
                "layer": layer,
                "parent": parent,
                "spans": spans,
                "total_s": total,
                "self_s": own,
            }
            for (layer, parent), (spans, total, own) in sorted(
                self.edges.items(), key=lambda item: (item[0][0], item[0][1] or "")
            )
        ]
