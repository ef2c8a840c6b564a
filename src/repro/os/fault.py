"""Page-fault outcome types and the default (non-PTEMagnet) fault path.

The default path models Linux/x86 v4.19 behaviour as §2.2 describes it:
each fault requests exactly one page from the buddy allocator and installs
one PTE. Dispatch between this path and PTEMagnet happens in
:class:`repro.os.kernel.GuestKernel`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..mem.buddy import BuddyAllocator
from ..mem.physical import FrameState
from ..obs.profile import PROFILER


class FaultKind(enum.Enum):
    """How a page fault was resolved."""

    #: One page from the buddy allocator (default kernel path).
    DEFAULT = "default"
    #: Served from an existing PTEMagnet reservation (PaRT fast path).
    RESERVATION_HIT = "reservation_hit"
    #: Created a new PTEMagnet reservation (order-3 buddy call).
    RESERVATION_NEW = "reservation_new"
    #: PTEMagnet enabled but no order-3 block available; single page.
    FALLBACK = "fallback"
    #: Copy-on-write break after fork.
    COW = "cow"
    #: The page was already present (raced/spurious fault).
    SPURIOUS = "spurious"
    #: THP baseline: 2MB huge mapping installed at fault time.
    THP = "thp"
    #: THP baseline: no order-9 block; compaction stalled, 4KB fallback.
    THP_FALLBACK = "thp_fallback"
    #: CA-paging baseline: targeted allocation extended contiguity.
    CA_CONTIGUOUS = "ca_contiguous"
    #: CA-paging baseline: target frame taken; plain buddy page.
    CA_FALLBACK = "ca_fallback"


class FaultOutcome(NamedTuple):
    """Result of one page fault delivered back to the simulator."""

    #: Guest physical frame now backing the page.
    frame: int
    #: Handler cost in cycles (trap + allocation work).
    cycles: int
    kind: FaultKind


def default_alloc(buddy: BuddyAllocator, owner: int) -> int:
    """The stock Linux fault-path allocation: one order-0 frame."""
    if PROFILER.enabled:
        # Event-count attribution; the cycle cost of buddy calls is
        # modelled in the fault outcome, not here.
        PROFILER.add(("alloc", "buddy"), 0)
    return buddy.alloc_frame(owner=owner, state=FrameState.USER)
