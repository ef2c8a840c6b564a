"""Workload abstraction and the memory-operation event model.

A workload is a deterministic (seeded) generator of :class:`MemoryOp`
events that the simulation engine executes against a guest process:

* :class:`MmapOp` -- eagerly allocate a contiguous virtual region.
* :class:`AccessOp` -- touch one page of a region (faults in lazily).
* :class:`FreeOp` -- munmap a region (or part of it).
* :class:`PhaseOp` -- marker separating workload phases; experiment
  harnesses use these to start/stop co-runners and measurement windows,
  mirroring the paper's methodology (e.g. §3.3 stops stress-ng when
  pagerank finishes initialising).
"""

from __future__ import annotations

import abc
import enum
import random
import zlib
from typing import Iterator, NamedTuple, Union


class WorkloadPhase(enum.Enum):
    """Canonical phase markers emitted by the bundled workloads."""

    #: Virtual allocation done; physical population (faults) begins.
    INIT = "init"
    #: All data structures populated; the compute loop begins. The paper's
    #: measurement windows start here.
    COMPUTE = "compute"
    #: Compute finished.
    DONE = "done"


# Ops are NamedTuples rather than frozen dataclasses: workloads construct
# one object per simulated memory operation, and tuple construction is a
# single C-level call where a frozen dataclass pays one object.__setattr__
# per field. The public shape (field names, defaults, immutability,
# equality) is unchanged.


class MmapOp(NamedTuple):
    """Allocate ``npages`` of contiguous virtual memory as region ``region``."""

    region: str
    npages: int


class AccessOp(NamedTuple):
    """Access one page of a region.

    Attributes
    ----------
    region:
        Region tag from a previous :class:`MmapOp`.
    page:
        Page index within the region.
    block:
        Cache-block index within the page (0..63); lets workloads express
        intra-page locality.
    write:
        Whether the access is a store (relevant for COW).
    """

    region: str
    page: int
    block: int = 0
    write: bool = False


class BrkOp(NamedTuple):
    """Grow the heap by ``grow_pages`` pages; the new range becomes
    region ``region`` (heap growth is eager-virtual, like mmap)."""

    region: str
    grow_pages: int


class FreeOp(NamedTuple):
    """Unmap ``npages`` of a region starting at ``start_page``.

    ``npages == 0`` means the whole region.
    """

    region: str
    start_page: int = 0
    npages: int = 0


class PhaseOp(NamedTuple):
    """Phase boundary marker."""

    phase: WorkloadPhase


MemoryOp = Union[MmapOp, BrkOp, AccessOp, FreeOp, PhaseOp]


class Workload(abc.ABC):
    """Base class for all workload models.

    Subclasses define :meth:`ops`, a generator of :class:`MemoryOp` events.
    Determinism contract: two workloads constructed with the same
    parameters and the same seed produce identical event streams, so the
    default-kernel and PTEMagnet runs of an experiment see the same memory
    behaviour (the paper's paired-run methodology).
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed

    def rng(self) -> random.Random:
        """A fresh deterministic RNG for one generation of the stream.

        Seeded from a stable hash of the workload name (crc32, not
        ``hash()``, which is randomized per process) so streams reproduce
        across runs and machines.
        """
        return random.Random(zlib.crc32(self.name.encode()) ^ self.seed)

    @abc.abstractmethod
    def ops(self) -> Iterator[MemoryOp]:
        """Yield the workload's memory-operation stream."""

    @property
    @abc.abstractmethod
    def footprint_pages(self) -> int:
        """Approximate resident footprint in pages once initialised."""

    @property
    def description(self) -> str:
        """One-line description for the Table 3 analog."""
        return self.__class__.__doc__.strip().splitlines()[0] if self.__class__.__doc__ else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r}, seed={self.seed})"
