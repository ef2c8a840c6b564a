"""Co-runner models (Table 3).

Co-runners are the applications sharing the VM with the measured
benchmark. Their defining property for this paper is their *allocation
behaviour*: how often they fault in and free pages, because interleaved
faults are what fragment guest physical memory. All co-runner streams are
infinite; the simulation engine runs them until the primary benchmark
finishes (or, per experiment methodology, stops them at a phase marker).

* ``stress-ng`` (§3.3's antagonist): 12 threads continuously allocating
  and freeing memory -- maximum churn.
* ``objdet`` (MLPerf SSD-MobileNet): the highest page-fault rate of the
  §6.1 co-runner set -- per-inference activation tensors are allocated,
  used and freed, against a persistent weight region.
* ``chameleon``, ``pyaes``, ``json_serdes``, ``rnn_serving``: lighter
  serverless-style co-runners from the paper's list (gcc and xz reuse the
  SPEC models in :mod:`repro.workloads.spec`).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .base import AccessOp, FreeOp, MemoryOp, MmapOp, PhaseOp, Workload, WorkloadPhase
from .synth import sequential_touch, zipf_page_sequence


class CoRunner(Workload):
    """Base class for infinite co-runner streams."""

    @property
    def footprint_pages(self) -> int:
        return self.steady_footprint_pages

    #: Subclasses override: approximate steady-state resident pages.
    steady_footprint_pages = 0


class StressNg(CoRunner):
    """stress-ng memory churner: threads allocating and freeing nonstop.

    Parameters
    ----------
    threads:
        Modelled thread count (paper: 12); scales how many regions are in
        flight at once, i.e. how aggressively faults interleave.
    """

    steady_footprint_pages = 4000

    def __init__(self, seed: int = 0, threads: int = 12) -> None:
        super().__init__("stress-ng", seed)
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.threads = threads

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield PhaseOp(WorkloadPhase.COMPUTE)
        live: list = []
        for round_id in itertools.count():
            region = f"churn-{round_id}"
            npages = rng.randrange(32, 512)
            yield MmapOp(region, npages)
            yield from sequential_touch(region, npages)
            live.append(region)
            # Keep roughly one region per thread in flight; free the
            # oldest beyond that, from a random age to vary hole sizes.
            while len(live) > self.threads:
                victim = live.pop(rng.randrange(len(live) // 2 + 1))
                yield FreeOp(victim)


class ObjectDetection(CoRunner):
    """MLPerf objdet (SSD-MobileNet): per-inference tensor churn against
    persistent weights; the highest page-fault rate of the co-runner set."""

    steady_footprint_pages = 2600

    def __init__(self, seed: int = 0, weight_pages: int = 1800, activation_pages: int = 420) -> None:
        super().__init__("objdet", seed)
        self.weight_pages = weight_pages
        self.activation_pages = activation_pages

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("weights", self.weight_pages)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("weights", self.weight_pages)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for inference in itertools.count():
            region = f"act-{inference}"
            yield MmapOp(region, self.activation_pages)
            # Interleave activation writes with streaming weight reads.
            weight_cursor = rng.randrange(self.weight_pages)
            for page in range(self.activation_pages):
                yield AccessOp(region, page, block=page % 64, write=True)
                weight_cursor = (weight_cursor + 3) % self.weight_pages
                yield AccessOp("weights", weight_cursor, block=page % 64)
            yield FreeOp(region)


class Chameleon(CoRunner):
    """Chameleon HTML table rendering: short-lived template buffers."""

    steady_footprint_pages = 300

    def __init__(self, seed: int = 0) -> None:
        super().__init__("chameleon", seed)

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("templates", 200)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("templates", 200)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for request in itertools.count():
            region = f"render-{request}"
            npages = rng.randrange(20, 60)
            yield MmapOp(region, npages)
            for page in range(npages):
                yield AccessOp(region, page, block=rng.randrange(64), write=True)
                yield AccessOp("templates", rng.randrange(200), block=rng.randrange(64))
            yield FreeOp(region)


class PyAes(CoRunner):
    """pyaes block-cipher encryption: tiny footprint, compute-bound."""

    steady_footprint_pages = 48

    def __init__(self, seed: int = 0) -> None:
        super().__init__("pyaes", seed)

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("buffers", 48)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("buffers", 48)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        while True:
            for page in range(48):
                yield AccessOp("buffers", page, block=rng.randrange(64), write=True)


class JsonSerdes(CoRunner):
    """JSON serialization/deserialization: string-buffer churn."""

    steady_footprint_pages = 260

    def __init__(self, seed: int = 0) -> None:
        super().__init__("json_serdes", seed)

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("documents", 160)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("documents", 160)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for request in itertools.count():
            region = f"buf-{request}"
            npages = rng.randrange(30, 100)
            yield MmapOp(region, npages)
            for page in range(npages):
                yield AccessOp(region, page, block=rng.randrange(64), write=True)
                if page % 3 == 0:
                    yield AccessOp("documents", rng.randrange(160), block=rng.randrange(64))
            yield FreeOp(region)


class RnnServing(CoRunner):
    """RNN name-generation serving (PyTorch): per-request hidden-state
    tensors plus random embedding-table look-ups."""

    steady_footprint_pages = 1100

    def __init__(self, seed: int = 0) -> None:
        super().__init__("rnn_serving", seed)

    def ops(self) -> Iterator[MemoryOp]:
        rng = self.rng()
        yield MmapOp("embeddings", 900)
        yield PhaseOp(WorkloadPhase.INIT)
        yield from sequential_touch("embeddings", 900)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for request in itertools.count():
            region = f"hidden-{request}"
            npages = rng.randrange(100, 200)
            yield MmapOp(region, npages)
            picks = list(zipf_page_sequence(rng, 900, npages, alpha=1.0))
            for page in range(npages):
                yield AccessOp(region, page, block=rng.randrange(64), write=True)
                yield AccessOp("embeddings", picks[page], block=rng.randrange(64))
            yield FreeOp(region)
