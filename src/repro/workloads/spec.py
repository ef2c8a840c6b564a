"""SPEC CPU 2017 benchmark models (Table 3).

Four TLB-pressured SPECint benchmarks are modelled with the memory shape
the literature attributes to them: mcf is a pointer-chasing network
optimiser with near-uniform random page access over a large footprint; xz
streams a large dictionary window with random look-ups inside it (the
paper's best case at 9%); gcc and omnetpp have medium footprints and more
locality. :class:`LowPressureSpec` stands in for the remaining SPECint
programs the paper uses to show PTEMagnet never slows anything down
(0-1% change): small footprint, high locality, near-zero TLB misses.
"""

from __future__ import annotations

from typing import Iterator

from .base import AccessOp, MemoryOp, MmapOp, PhaseOp, Workload, WorkloadPhase
from .synth import (
    local_runs,
    random_pages,
    sequential_touch,
    windowed_stream,
    zipf_page_sequence,
)


class SpecWorkload(Workload):
    """Shared skeleton: mmap + init sweep + compute accesses + done."""

    def __init__(self, name: str, footprint: int, seed: int = 0) -> None:
        super().__init__(name, seed)
        if footprint <= 0:
            raise ValueError("footprint must be positive")
        self._footprint = footprint

    @property
    def footprint_pages(self) -> int:
        return self._footprint

    def ops(self) -> Iterator[MemoryOp]:
        yield MmapOp("data", self._footprint)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("data", self._footprint)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        yield from self.compute_ops()
        yield PhaseOp(WorkloadPhase.DONE)

    def compute_ops(self) -> Iterator[MemoryOp]:
        """Benchmark-specific compute-phase accesses."""
        raise NotImplementedError


class Mcf(SpecWorkload):
    """605.mcf: network simplex; uniform pointer chasing over ~4GB (scaled)."""

    def __init__(self, seed: int = 0, accesses: int = 26000) -> None:
        super().__init__("mcf", footprint=9000, seed=seed)
        self.accesses = accesses

    def compute_ops(self) -> Iterator[MemoryOp]:
        # Network-simplex arcs are laid out in arrays: each pivot touches a
        # random arc plus its neighbours, giving short 2-page runs.
        rng = self.rng()
        bases = random_pages(rng, self._footprint, self.accesses // 2)
        yield from local_runs(
            "data", iter(bases), self._footprint, 2, rng, write_every=5
        )


class Xz(SpecWorkload):
    """657.xz: LZMA compression; sliding dictionary window with random
    match look-ups inside it."""

    def __init__(self, seed: int = 0, accesses: int = 30000) -> None:
        super().__init__("xz", footprint=8000, seed=seed)
        self.accesses = accesses

    def compute_ops(self) -> Iterator[MemoryOp]:
        # LZMA matches are contiguous byte ranges: 8-page runs at random
        # window offsets. The strongest adjacent-page locality of the set,
        # which is why xz is the paper's best case (9%).
        rng = self.rng()
        yield from windowed_stream(
            "data",
            self._footprint,
            window_pages=4800,
            accesses=self.accesses,
            rng=rng,
            run_pages=8,
        )


class Gcc(SpecWorkload):
    """602.gcc: compiler; medium footprint, skewed IR traversal."""

    def __init__(self, seed: int = 0, accesses: int = 20000) -> None:
        super().__init__("gcc", footprint=3200, seed=seed)
        self.accesses = accesses

    def compute_ops(self) -> Iterator[MemoryOp]:
        # IR trees are bump-allocated per function: traversals touch runs
        # of adjacent pages around skewed hot functions.
        rng = self.rng()
        bases = zipf_page_sequence(
            rng, self._footprint, self.accesses // 6, alpha=1.1
        )
        yield from local_runs("data", iter(bases), self._footprint, 6, rng)


class Omnetpp(SpecWorkload):
    """620.omnetpp: discrete-event network simulation; scattered event
    objects with a moderately hot scheduler core."""

    def __init__(self, seed: int = 0, accesses: int = 22000) -> None:
        super().__init__("omnetpp", footprint=4200, seed=seed)
        self.accesses = accesses

    def compute_ops(self) -> Iterator[MemoryOp]:
        # Event objects are slab-allocated: handling one event touches the
        # event page plus adjacent slab neighbours (3-page runs).
        rng = self.rng()
        bases = zipf_page_sequence(
            rng, self._footprint, self.accesses // 3, alpha=0.95
        )
        yield from local_runs(
            "data", iter(bases), self._footprint, 3, rng, write_every=3
        )


class LowPressureSpec(SpecWorkload):
    """Stand-in for low-TLB-pressure SPECint programs (leela, x264, ...).

    Small footprint (fits comfortably in TLB reach) and strong locality:
    the control group for the paper's "PTEMagnet never hurts" claim.
    ``footprint`` tunes how hard the working set presses on the TLB; the
    default reproduces the figure6 streams byte-for-byte.
    """

    def __init__(
        self,
        name: str = "leela",
        seed: int = 0,
        accesses: int = 16000,
        footprint: int = 220,
    ) -> None:
        super().__init__(name, footprint=footprint, seed=seed)
        self.accesses = accesses

    def compute_ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        pages = zipf_page_sequence(
            rng, self._footprint, self.accesses, alpha=1.3
        )
        # Draw the block index with getrandbits rejection sampling -- the
        # same draws randrange(64) makes (7 bits, retry on >= 64), minus
        # two call layers per op. The stream is part of the workload's
        # determinism contract, so the expansion is spelled out here.
        getrandbits = rng.getrandbits
        for page in pages:
            block = getrandbits(7)
            while block >= 64:
                block = getrandbits(7)
            yield AccessOp("data", page, block)
