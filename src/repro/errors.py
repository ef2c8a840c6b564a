"""Exception hierarchy for the PTEMagnet reproduction library.

All library-specific failures derive from :class:`ReproError`, so callers
can catch one base class. Subclasses map to the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class OutOfMemoryError(ReproError):
    """A physical-memory allocation could not be satisfied.

    Raised by the buddy allocator when no free block of the requested order
    (or larger) exists, mirroring a failed ``alloc_pages()`` in Linux.
    """


class InvalidAddressError(ReproError):
    """An address is outside the range managed by the component."""


class SegmentationFault(ReproError):
    """A process accessed a virtual address with no backing VMA.

    Corresponds to the SIGSEGV a real OS would deliver.
    """


class ProtectionFault(ReproError):
    """A process accessed a mapped address with insufficient permissions."""


class AllocationError(ReproError):
    """A virtual-memory request (mmap/brk) could not be satisfied."""


class PageTableError(ReproError):
    """Inconsistent page-table state (e.g. remapping a present PTE)."""


class ReservationError(ReproError):
    """Inconsistent PTEMagnet reservation state (PaRT invariant violated)."""


class InvariantViolation(ReproError):
    """A runtime invariant contract failed (see :mod:`repro.invariants`).

    Raised by the debug-mode consistency checks over the buddy allocator,
    the PaRT, and per-process page tables; a violation means simulator
    state has silently drifted and every downstream figure is suspect.
    """


class SanitizerViolation(ReproError):
    """The runtime shadow-state sanitizer caught a lifecycle bug.

    Raised by :mod:`repro.sanitizer` when a physical frame makes an
    illegal lifecycle transition -- double-free, free of a PaRT-reserved
    frame, mapping a free frame, one process aliasing a frame at two
    VPNs, or a reservation/mapping leak at process exit.
    """


class ConfigError(ReproError, ValueError):
    """A configuration value is out of range.

    Raised when the config object is built, with a message that names
    the field and its value, so a bad platform fails before any
    simulator component sees it. Also a ``ValueError``, which is what
    out-of-range arguments raised before this type existed.
    """


class SimulationError(ReproError):
    """The simulation driver was configured or advanced incorrectly."""


class WorkloadError(ReproError):
    """A workload model was configured with impossible parameters."""
