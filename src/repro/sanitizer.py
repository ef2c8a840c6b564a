"""Runtime shadow-state sanitizer for the guest memory stack.

ASan/KASAN-style checker: while enabled it mirrors the lifecycle of
every guest physical frame in a shadow map, advanced by hooks at each
ownership-transfer point of the stack (buddy allocator, per-CPU page
caches, PTEMagnet reservations, page tables). Any transition the real
kernel would consider a memory-corruption bug raises
:class:`~repro.errors.SanitizerViolation` at the exact call that caused
it, instead of silently skewing Table 1 / Figure 6 numbers.

Frame lifecycle state machine::

                 buddy.alloc                    part reserve
        FREE  ---------------->  HELD  ----------------------> RESERVED
          ^                     |  ^  ^                           |
          |     buddy.free      |  |  |     pcp fill / take       |
          +---------------------+  |  +--------------- PCP        |
                                   |                              |
                                   |   page-table map/unmap       |
                                   +---------- MAPPED <-----------+
                                                 (slot fault)

Detected violations: double-free, free of a PaRT-reserved frame, free
of a mapped or pcp-cached frame, mapping a free frame (use-after-free),
two VPNs of one process mapping the same frame (COW sharing between
processes stays legal), and -- at process exit -- leaked reservations or
mappings.

Enablement mirrors :mod:`repro.invariants`: export ``REPRO_SANITIZE=1``
before the kernel is built. When disabled the cost at every hook site is a
single attribute read (``sanitizer is None``), held to a <= 2% budget
by ``benchmarks/test_sanitizer_overhead.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional

from .errors import SanitizerViolation

ENV_FLAG = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizer_enabled() -> bool:
    """True when new kernels should attach a :class:`FrameSanitizer`."""
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


class FrameLifecycle(Enum):
    """Shadow state of one physical frame."""

    FREE = "free"  # on the buddy free lists
    HELD = "held"  # allocated, not yet mapped / reserved / cached
    PCP = "pcp"  # sitting in a per-CPU page cache
    RESERVED = "reserved"  # PaRT-reserved for a future fault, unmapped
    MAPPED = "mapped"  # referenced by at least one page-table entry


@dataclass
class ShadowFrame:
    """Everything the sanitizer knows about one frame."""

    state: FrameLifecycle = FrameLifecycle.FREE
    owner: Optional[int] = None
    #: Label of the call that put the frame in its current state.
    site: str = ""
    #: pid -> vpn for every live page-table reference to the frame.
    mappers: Dict[int, int] = field(default_factory=dict)


class FrameSanitizer:
    """Shadow-state checker for one guest kernel's physical frames.

    The kernel creates one instance when sanitizing is enabled and
    attaches it to its buddy allocator and each process page table; the
    instrumented components call the ``on_*`` hooks below. Hooks raise
    :class:`~repro.errors.SanitizerViolation` on any illegal transition.
    """

    def __init__(self, name: str = "guest") -> None:
        self.name = name
        self._frames: Dict[int, ShadowFrame] = {}
        self.violations = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def state_of(self, frame: int) -> FrameLifecycle:
        """Current shadow state of ``frame``."""
        shadow = self._frames.get(frame)
        return FrameLifecycle.FREE if shadow is None else shadow.state

    def _shadow(self, frame: int) -> ShadowFrame:
        shadow = self._frames.get(frame)
        if shadow is None:
            shadow = ShadowFrame()
            self._frames[frame] = shadow
        return shadow

    def _violation(self, kind: str, frame: int, detail: str) -> None:
        self.violations += 1
        raise SanitizerViolation(
            f"{self.name}: {kind}: frame {frame}: {detail}"
        )

    # ------------------------------------------------------------------ #
    # Buddy allocator
    # ------------------------------------------------------------------ #

    def on_alloc(
        self,
        base: int,
        count: int,
        owner: Optional[int],
        site: str = "buddy.alloc",
    ) -> None:
        """A block of ``count`` frames left the free lists."""
        for frame in range(base, base + count):
            shadow = self._shadow(frame)
            if shadow.state is not FrameLifecycle.FREE:
                self._violation(
                    "alloc-of-live-frame",
                    frame,
                    f"allocator handed out a frame in state "
                    f"{shadow.state.value} (last site: {shadow.site})",
                )
            shadow.state = FrameLifecycle.HELD
            shadow.owner = owner
            shadow.site = site
            shadow.mappers.clear()

    def on_free(self, base: int, order: Optional[int]) -> None:
        """``buddy.free(base)`` was called; ``order`` is the live
        allocation's order, or ``None`` when the allocator has no record
        of ``base`` (the shadow state then names the actual bug)."""
        if order is None:
            self._free_violation(base, self._shadow(base))
        for frame in range(base, base + (1 << order)):
            shadow = self._shadow(frame)
            if shadow.state is not FrameLifecycle.HELD:
                self._free_violation(frame, shadow)
            shadow.state = FrameLifecycle.FREE
            shadow.owner = None
            shadow.site = "buddy.free"
            shadow.mappers.clear()

    def _free_violation(self, frame: int, shadow: ShadowFrame) -> None:
        """Raise the violation of freeing ``frame`` in its shadow state
        (HELD only when ``frame`` is no allocation base)."""
        kind, detail = {
            FrameLifecycle.FREE: (
                "double-free",
                "frame is already on the free lists "
                f"(freed at: {shadow.site or 'initial state'})",
            ),
            FrameLifecycle.RESERVED: (
                "free-of-reserved",
                f"frame is PaRT-reserved for pid {shadow.owner}; "
                "reservations must be released before their frames "
                "are freed",
            ),
            FrameLifecycle.MAPPED: (
                "free-of-mapped",
                f"frame is still mapped by {sorted(shadow.mappers.items())}",
            ),
            FrameLifecycle.PCP: (
                "free-of-pcp-cached",
                f"frame sits in a per-CPU cache ({shadow.site})",
            ),
            FrameLifecycle.HELD: (
                "free-of-non-base",
                "frame is allocated but is not an allocation base",
            ),
        }[shadow.state]
        self._violation(kind, frame, detail)

    # ------------------------------------------------------------------ #
    # Per-CPU page caches
    # ------------------------------------------------------------------ #

    def on_pcp_fill(self, frame: int, cpu: int) -> None:
        """A frame entered a per-CPU list (refill batch or cached free)."""
        shadow = self._shadow(frame)
        if shadow.state is not FrameLifecycle.HELD:
            self._violation(
                "pcp-fill-of-" + shadow.state.value,
                frame,
                f"only buddy-held frames may enter a pcp list; frame is "
                f"{shadow.state.value} (last site: {shadow.site})",
            )
        shadow.state = FrameLifecycle.PCP
        shadow.owner = None
        shadow.site = f"pcp[{cpu}]"

    def on_pcp_take(self, frame: int, cpu: int) -> None:
        """A frame left a per-CPU list (allocation or drain)."""
        shadow = self._shadow(frame)
        if shadow.state is not FrameLifecycle.PCP:
            self._violation(
                "pcp-take-of-" + shadow.state.value,
                frame,
                f"frame left pcp list {cpu} but its shadow state is "
                f"{shadow.state.value} (last site: {shadow.site})",
            )
        shadow.state = FrameLifecycle.HELD
        shadow.site = f"pcp[{cpu}].take"

    # ------------------------------------------------------------------ #
    # PaRT reservations
    # ------------------------------------------------------------------ #

    def on_reserve(
        self,
        base: int,
        count: int,
        owner: Optional[int],
        site: str = "part.reserve",
    ) -> None:
        """``count`` frames became PaRT-reserved for ``owner``."""
        for frame in range(base, base + count):
            shadow = self._shadow(frame)
            if shadow.state is not FrameLifecycle.HELD:
                self._violation(
                    "reserve-of-" + shadow.state.value,
                    frame,
                    f"only buddy-held frames may be reserved; frame is "
                    f"{shadow.state.value} (last site: {shadow.site})",
                )
            shadow.state = FrameLifecycle.RESERVED
            shadow.owner = owner
            shadow.site = site

    def on_unreserve(self, frames: Iterable[int], site: str) -> None:
        """Reserved frames are being released back toward the buddy.

        Callers (allocator completion, reclaim daemon, process exit)
        invoke this *before* freeing the frames, so ordering-insensitive
        RESERVED -> HELD -> FREE transitions are observed everywhere.
        """
        for frame in frames:
            shadow = self._shadow(frame)
            if shadow.state is not FrameLifecycle.RESERVED:
                self._violation(
                    "unreserve-of-" + shadow.state.value,
                    frame,
                    f"releasing a reservation whose frame is "
                    f"{shadow.state.value} (last site: {shadow.site})",
                )
            shadow.state = FrameLifecycle.HELD
            shadow.site = site

    # ------------------------------------------------------------------ #
    # Page tables
    # ------------------------------------------------------------------ #

    def on_map(self, pid: Optional[int], vpn: int, frame: int) -> None:
        """A page-table entry of ``pid`` now references ``frame``."""
        shadow = self._shadow(frame)
        if shadow.state is FrameLifecycle.FREE:
            self._violation(
                "use-after-free-map",
                frame,
                f"pid {pid} mapped vpn {vpn:#x} to a frame on the free "
                f"lists (last site: {shadow.site or 'initial state'})",
            )
        if shadow.state is FrameLifecycle.PCP:
            self._violation(
                "map-of-pcp-cached",
                frame,
                f"pid {pid} mapped vpn {vpn:#x} to a frame sitting in a "
                f"per-CPU cache ({shadow.site})",
            )
        if pid is not None:
            known = shadow.mappers.get(pid)
            if known is not None and known != vpn:
                self._violation(
                    "aliased-mapping",
                    frame,
                    f"pid {pid} mapped the frame at both vpn {known:#x} "
                    f"and vpn {vpn:#x}; intra-process frame sharing is "
                    "a refcounting bug (cross-process COW is legal)",
                )
            shadow.mappers[pid] = vpn
        shadow.state = FrameLifecycle.MAPPED
        shadow.site = f"map(pid={pid})"

    def on_unmap(self, pid: Optional[int], vpn: int, frame: int) -> None:
        """A page-table entry of ``pid`` dropped its reference."""
        shadow = self._shadow(frame)
        if shadow.state is not FrameLifecycle.MAPPED:
            self._violation(
                "unmap-of-" + shadow.state.value,
                frame,
                f"pid {pid} unmapped vpn {vpn:#x} but the frame's shadow "
                f"state is {shadow.state.value} (last site: {shadow.site})",
            )
        if pid is not None:
            shadow.mappers.pop(pid, None)
        if not shadow.mappers:
            shadow.state = FrameLifecycle.HELD
            shadow.site = f"unmap(pid={pid})"

    # ------------------------------------------------------------------ #
    # Process teardown
    # ------------------------------------------------------------------ #

    def on_process_exit(self, pid: int) -> None:
        """Check that an exiting process leaked nothing.

        Called after the kernel tore the process down: no frame may stay
        PaRT-reserved for ``pid`` and no page-table reference of ``pid``
        may survive.
        """
        leaked_reserved: List[int] = []
        leaked_mapped: List[int] = []
        for frame, shadow in self._frames.items():
            if (
                shadow.state is FrameLifecycle.RESERVED
                and shadow.owner == pid
            ):
                leaked_reserved.append(frame)
            if pid in shadow.mappers:
                leaked_mapped.append(frame)
        if leaked_reserved:
            self._violation(
                "reservation-leak",
                leaked_reserved[0],
                f"pid {pid} exited with {len(leaked_reserved)} frame(s) "
                f"still PaRT-reserved: {leaked_reserved[:8]}",
            )
        if leaked_mapped:
            self._violation(
                "mapping-leak",
                leaked_mapped[0],
                f"pid {pid} exited with {len(leaked_mapped)} frame(s) "
                f"still mapped: {leaked_mapped[:8]}",
            )
