"""Page-table entry encoding.

A PTE is modelled, as on x86-64, as a single integer: the physical frame
number shifted left by 12 bits, OR-ed with flag bits in the low 12 bits.
Functions here pack and unpack that encoding; keeping PTEs as plain ints
keeps page tables compact and the walker fast.
"""

from __future__ import annotations

import enum

from ..units import PAGE_SHIFT


class PteFlags(enum.IntFlag):
    """x86-style PTE flag bits (subset relevant to the simulation)."""

    NONE = 0
    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 5
    DIRTY = 1 << 6
    #: Page-size bit (PS): set on a level-2 entry mapping a 2MB huge page.
    HUGE = 1 << 7
    #: Software bit: page is shared copy-on-write after fork().
    COW = 1 << 9


#: Plain-int masks of the flags the fault and walk paths test. ``pte &
#: PRESENT`` is one integer AND; the same test against a ``PteFlags``
#: member runs ``Flag.__and__`` and builds an enum member on every call.
PRESENT = int(PteFlags.PRESENT)
HUGE = int(PteFlags.HUGE)
COW = int(PteFlags.COW)

#: Mask selecting the flag bits of an encoded PTE.
FLAGS_MASK = (1 << PAGE_SHIFT) - 1


def make_pte(frame: int, flags: PteFlags = PteFlags.PRESENT) -> int:
    """Encode ``frame`` and ``flags`` into a PTE integer."""
    if frame < 0:
        raise ValueError("frame must be non-negative")
    return (frame << PAGE_SHIFT) | int(flags)


def pte_frame(pte: int) -> int:
    """Physical frame number stored in ``pte``."""
    return pte >> PAGE_SHIFT


def pte_flags(pte: int) -> PteFlags:
    """Flag bits stored in ``pte``."""
    return PteFlags(pte & FLAGS_MASK)


def pte_present(pte: int) -> bool:
    """True if ``pte`` has the PRESENT bit set."""
    return (pte & PRESENT) != 0


def pte_set_flags(pte: int, flags: PteFlags) -> int:
    """Return ``pte`` with ``flags`` additionally set."""
    return pte | int(flags)


def pte_clear_flags(pte: int, flags: PteFlags) -> int:
    """Return ``pte`` with ``flags`` cleared."""
    return pte & ~int(flags)
