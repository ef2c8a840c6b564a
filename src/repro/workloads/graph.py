"""GPOP-style graph-analytics benchmark models (Table 3).

The paper's big-memory benchmarks come from the GPOP graph framework
(pagerank, cc, bfs, nibble) on a 16GB Twitter-scaled dataset. The model
captures the memory shape that matters for page walks: a vertex array
accessed with a skewed random pattern (power-law degree distribution) and
an edge array streamed sequentially, repeated over iterations. Footprints
are scaled down ~300x with the VM (DESIGN.md) but stay far beyond TLB
reach, so walk pressure is preserved.
"""

from __future__ import annotations

from typing import Iterator

from .base import AccessOp, MemoryOp, MmapOp, PhaseOp, Workload, WorkloadPhase
from .synth import local_runs, sequential_touch, zipf_page_sequence


class GraphWorkload(Workload):
    """Common structure of the GPOP benchmark models.

    Parameters
    ----------
    vertex_pages / edge_pages:
        Region sizes in pages.
    iterations:
        Number of compute iterations (pagerank sweeps, BFS levels, ...).
    vertex_accesses / edge_accesses:
        Random vertex-array and sequential edge-array accesses per
        iteration.
    alpha:
        Zipf skew of vertex accesses (higher = hotter hot set = fewer TLB
        misses).
    locality_run:
        Pages per spatially-local vertex gather: GPOP processes vertices
        partition by partition, so a gather touches a short run of
        adjacent vertex pages (§2.6's spatial locality).
    """

    def __init__(
        self,
        name: str,
        vertex_pages: int,
        edge_pages: int,
        iterations: int,
        vertex_accesses: int,
        edge_accesses: int,
        alpha: float,
        locality_run: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(name, seed)
        if min(vertex_pages, edge_pages, iterations, locality_run) <= 0:
            raise ValueError("graph workload sizes must be positive")
        self.vertex_pages = vertex_pages
        self.edge_pages = edge_pages
        self.iterations = iterations
        self.vertex_accesses = vertex_accesses
        self.edge_accesses = edge_accesses
        self.alpha = alpha
        self.locality_run = locality_run

    @property
    def footprint_pages(self) -> int:
        return self.vertex_pages + self.edge_pages

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("vertices", self.vertex_pages)
        yield MmapOp("edges", self.edge_pages)
        yield PhaseOp(WorkloadPhase.INIT)
        # Initialisation: populate both arrays. This is the window in
        # which interleaved co-runner faults fragment guest physical
        # memory (§3.3).
        yield from sequential_touch("vertices", self.vertex_pages)
        yield from sequential_touch("edges", self.edge_pages)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        edge_cursor = 0
        for _ in range(self.iterations):
            # Vertex gathers: Zipf-picked bases expanded into short runs of
            # adjacent pages (partition-local processing).
            num_runs = max(1, self.vertex_accesses // self.locality_run)
            bases = zipf_page_sequence(
                rng, self.vertex_pages, num_runs, self.alpha
            )
            vertex_ops = list(
                local_runs(
                    "vertices",
                    iter(bases),
                    self.vertex_pages,
                    self.locality_run,
                    rng,
                    write_every=3,
                )
            )
            pick_idx = 0
            # Interleave the streaming edge scan with the vertex gathers,
            # as a push/pull iteration does.
            interleave_every = max(
                1, self.edge_accesses // max(1, len(vertex_ops))
            )
            for i in range(self.edge_accesses):
                yield AccessOp("edges", edge_cursor, block=(i % 64))
                if i % 16 == 0:
                    edge_cursor = (edge_cursor + 1) % self.edge_pages
                if i % interleave_every == 0 and pick_idx < len(vertex_ops):
                    yield vertex_ops[pick_idx]
                    pick_idx += 1
            yield from vertex_ops[pick_idx:]
        yield PhaseOp(WorkloadPhase.DONE)


class PageRank(GraphWorkload):
    """GPOP pagerank: repeated rank propagation over the full edge list."""

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        super().__init__(
            "pagerank",
            vertex_pages=int(3000 * scale),
            edge_pages=int(6000 * scale),
            iterations=4,
            vertex_accesses=4000,
            edge_accesses=6000,
            alpha=0.8,
            locality_run=4,
            seed=seed,
        )


class ConnectedComponents(GraphWorkload):
    """GPOP cc: label propagation; similar shape, fewer iterations."""

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        super().__init__(
            "cc",
            vertex_pages=int(2800 * scale),
            edge_pages=int(5600 * scale),
            iterations=3,
            vertex_accesses=3600,
            edge_accesses=5600,
            alpha=0.9,
            locality_run=4,
            seed=seed,
        )


class Bfs(GraphWorkload):
    """GPOP bfs: frontier expansion; bursty, moderately skewed gathers."""

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        super().__init__(
            "bfs",
            vertex_pages=int(2600 * scale),
            edge_pages=int(5200 * scale),
            iterations=3,
            vertex_accesses=3000,
            edge_accesses=4600,
            alpha=1.0,
            locality_run=2,
            seed=seed,
        )


class Nibble(GraphWorkload):
    """GPOP nibble: partition-local processing; best locality of the four."""

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        super().__init__(
            "nibble",
            vertex_pages=int(2400 * scale),
            edge_pages=int(5000 * scale),
            iterations=3,
            vertex_accesses=2400,
            edge_accesses=5000,
            alpha=1.1,
            locality_run=8,
            seed=seed,
        )
