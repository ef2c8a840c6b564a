"""Hierarchical cycle-attribution profiler.

Answers "where do the modelled cycles go?" -- the question the paper's
Table 1 and §3 answer by splitting page-walk cycles into gPT vs hPT
accesses per nested-walk step and per serving cache level. Call sites in
the hot layers attribute modelled cycles (and event counts) to *paths* in
a tree::

    if PROFILER.enabled:
        PROFILER.add(("walk", "hpt", "gl2", "hl3", "memory"), latency)

The tree's leaves are the paper's 24-step nested-walk matrix (guest level
x host level x serving cache level) plus fault-kind, data-access and
allocator buckets. The disabled fast path is a single attribute read
(``PROFILER.enabled``), held to <= 2% of a run by
``benchmarks/test_obs_overhead.py``; the profiler only *observes*, so
enabling it never changes simulated state or counters.

Export formats:

* :meth:`Profiler.to_dict` -- nested JSON tree (embedded in metrics
  snapshots, diffed by ``python -m repro.obs diff``);
* :meth:`Profiler.to_folded` -- Brendan-Gregg folded-stack lines
  (``walk;hpt;gl2;hl3;memory 1234``) that flamegraph.pl or speedscope
  render directly.

:func:`merge_profile_trees` sums the trees that ``--jobs N`` workers
send back into one, path by path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Separator used in folded-stack output and diff path rendering.
PATH_SEPARATOR = ";"


class ProfileNode:
    """One node of the attribution tree.

    ``cycles``/``count`` are *self* totals attributed directly to this
    path; subtree aggregates come from :meth:`total_cycles` /
    :meth:`total_count`, so a parent can carry its own cost without
    double-counting its children.
    """

    __slots__ = ("name", "cycles", "count", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycles = 0
        self.count = 0
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, name: str) -> "ProfileNode":
        """Get-or-create the child called ``name``."""
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node

    def total_cycles(self) -> int:
        """Cycles of this node plus its whole subtree."""
        return self.cycles + sum(
            child.total_cycles() for child in self.children.values()
        )

    def total_count(self) -> int:
        """Counts of this node plus its whole subtree."""
        return self.count + sum(
            child.total_count() for child in self.children.values()
        )

    def walk(
        self, prefix: Tuple[str, ...] = ()
    ) -> Iterator[Tuple[Tuple[str, ...], "ProfileNode"]]:
        """Yield ``(path, node)`` for every descendant, sorted by name."""
        for name in sorted(self.children):
            child = self.children[name]
            path = prefix + (name,)
            yield path, child
            yield from child.walk(path)

    def snapshot(self) -> "ProfileNode":
        """Independent deep copy (for measurement-window marks)."""
        out = ProfileNode(self.name)
        out.cycles = self.cycles
        out.count = self.count
        out.children = {
            name: child.snapshot() for name, child in self.children.items()
        }
        return out

    def delta(self, earlier: "ProfileNode") -> "ProfileNode":
        """Attribution recorded since the ``earlier`` snapshot.

        ``earlier`` must be a prefix of this node's history (a
        :meth:`snapshot` taken from the same profiler earlier in the run).
        """
        out = ProfileNode(self.name)
        out.cycles = self.cycles - earlier.cycles
        out.count = self.count - earlier.count
        if out.cycles < 0 or out.count < 0:
            raise ReproError(
                f"profile delta against a non-prefix snapshot at "
                f"{self.name!r}"
            )
        for name, child in self.children.items():
            before = earlier.children.get(name)
            piece = child.delta(before) if before is not None else child.snapshot()
            if piece.cycles or piece.count or piece.children:
                out.children[name] = piece
        return out

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "cycles": self.cycles,
            "count": self.count,
        }
        if self.children:
            payload["children"] = {
                name: self.children[name].to_dict()
                for name in sorted(self.children)
            }
        return payload

    @classmethod
    def from_dict(
        cls, name: str, payload: Dict[str, object]
    ) -> "ProfileNode":
        out = cls(name)
        out.cycles = int(payload.get("cycles") or 0)
        out.count = int(payload.get("count") or 0)
        children = payload.get("children") or {}
        out.children = {
            child_name: cls.from_dict(child_name, child_payload)
            for child_name, child_payload in sorted(children.items())
        }
        return out

    def __repr__(self) -> str:
        return (
            f"ProfileNode({self.name!r}, cycles={self.cycles}, "
            f"count={self.count}, children={len(self.children)})"
        )


class Profiler:
    """The attribution-tree accumulator behind :data:`PROFILER`.

    Off by default; call sites guard on :attr:`enabled` so disabled runs
    pay one attribute read per site, nothing more.
    """

    def __init__(self) -> None:
        #: Guard read by every call site. Flip via :meth:`enable` /
        #: :meth:`disable` (or the :class:`profiling` context manager).
        self.enabled = False
        self.root = ProfileNode("root")

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def add(
        self, path: Sequence[str], cycles: int, count: int = 1
    ) -> None:
        """Attribute ``cycles`` (and ``count`` events) to ``path``."""
        node = self.root
        for part in path:
            node = node.child(part)
        node.cycles += cycles
        node.count += count

    # ------------------------------------------------------------------ #
    # Control
    # ------------------------------------------------------------------ #

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded attribution and switch off."""
        self.root = ProfileNode("root")
        self.enabled = False

    # ------------------------------------------------------------------ #
    # Windows
    # ------------------------------------------------------------------ #

    def mark(self) -> ProfileNode:
        """Snapshot the tree (open a measurement window)."""
        return self.root.snapshot()

    def since(self, mark: ProfileNode) -> ProfileNode:
        """The attribution recorded since ``mark`` (close the window)."""
        return self.root.delta(mark)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        return self.root.to_dict()

    def to_folded(self, root: Optional[ProfileNode] = None) -> str:
        """Folded-stack (flamegraph) rendering of the tree."""
        return render_folded(root if root is not None else self.root)


def render_folded(root: ProfileNode) -> str:
    """Folded-stack lines (``a;b;c cycles``), one per cycle-bearing path.

    Only *self* cycles are emitted per path (flamegraph tooling sums
    children into parents itself); count-only nodes are omitted.
    """
    lines = [
        f"{PATH_SEPARATOR.join(path)} {node.cycles}"
        for path, node in root.walk()
        if node.cycles
    ]
    return "\n".join(lines)


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


def rank_delta(
    before: ProfileNode, after: ProfileNode
) -> List[Dict[str, object]]:
    """Rank attribution paths by absolute cycle delta, largest first.

    Compares two *independent* trees (e.g. baseline vs colocated runs,
    not snapshots of one run); every path present in either tree yields
    one row with its self cycles/counts on both sides. Count-only rows
    (zero cycles on both sides, e.g. allocator event tallies) rank by
    count delta after all cycle-bearing rows.
    """
    rows: Dict[Tuple[str, ...], Dict[str, object]] = {}
    for path, node in before.walk():
        rows[path] = {
            "path": PATH_SEPARATOR.join(path),
            "before_cycles": node.cycles,
            "after_cycles": 0,
            "before_count": node.count,
            "after_count": 0,
        }
    for path, node in after.walk():
        row = rows.get(path)
        if row is None:
            row = {
                "path": PATH_SEPARATOR.join(path),
                "before_cycles": 0,
                "after_cycles": 0,
                "before_count": 0,
                "after_count": 0,
            }
            rows[path] = row
        row["after_cycles"] = node.cycles
        row["after_count"] = node.count
    out = []
    for path in sorted(rows):
        row = rows[path]
        row["delta_cycles"] = row["after_cycles"] - row["before_cycles"]
        row["delta_count"] = row["after_count"] - row["before_count"]
        out.append(row)
    out.sort(
        key=lambda row: (
            -abs(row["delta_cycles"]),
            -abs(row["delta_count"]),
            row["path"],
        )
    )
    return out


#: The process-wide profiler every instrumented layer binds to.
PROFILER = Profiler()


class profiling:
    """Context manager: enable the global profiler, restoring state after.

    ::

        from repro.obs import PROFILER, profiling

        with profiling() as prof:
            sim.run_until_finished(run)
        print(prof.to_folded())

    Entering resets any previously accumulated tree so the captured
    window is self-contained; exiting restores the prior enabled flag
    but keeps the recorded tree readable.
    """

    def __init__(self, profiler: Optional[Profiler] = None) -> None:
        self.profiler = profiler if profiler is not None else PROFILER
        self._was_enabled = False

    def __enter__(self) -> Profiler:
        self._was_enabled = self.profiler.enabled
        self.profiler.root = ProfileNode("root")
        self.profiler.enabled = True
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.enabled = self._was_enabled
