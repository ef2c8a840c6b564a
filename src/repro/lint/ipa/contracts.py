"""Mirror-coherence contracts: "mutators of X must reach invalidator Y".

The simulator keeps mirrored state whose coherence is purely
conventional: the ``FrameSanitizer`` shadow states mirror frame
ownership, and the TLBs and page-walk caches mirror guest page-table
content, so every guest page-table mutation must fan out through
``GuestKernel._notify_unmap``. Each :class:`MirrorContract` states one
such obligation declaratively; the ``mirror-coherence`` rule checks them
over the whole-program call graph, so the obligation holds even when the
mutation is delegated through helpers.

A contract is violated at the site where the mirrored object is
*concretely named*: either a direct mutator call on a matching receiver,
or a call that binds a matching object into a callee parameter the
summaries prove is mutated. The enclosing function must then
*transitively* reach one of the contract's invalidators -- pairing the
mutation inside a helper satisfies callers automatically, because the
helper's invalidator call is reachable from them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..flow import HOST_RECEIVER_TOKENS
from .facts import CallFact


@dataclass(frozen=True)
class CallPattern:
    """A set of method names, optionally guarded by receiver tokens."""

    #: Terminal callee names that match.
    methods: FrozenSet[str]
    #: Identifier tokens the receiver expression must all contain
    #: (``process.page_table`` -> {"process", "page", "table"}); empty
    #: matches any receiver, including bare-name calls.
    receiver_has: FrozenSet[str] = frozenset()

    def matches(self, call: CallFact) -> bool:
        return call.name in self.methods and (
            self.receiver_has <= call.receiver_tokens
        )

    def matches_tokens(self, tokens: FrozenSet[str]) -> bool:
        """Whether an argument expression's tokens satisfy the guard."""
        return bool(self.receiver_has) and self.receiver_has <= tokens


@dataclass(frozen=True)
class MirrorContract:
    """One mirrored-state obligation checked by ``mirror-coherence``."""

    #: Short id, shown in findings and usable in docs.
    name: str
    #: What the mirror is and why the pairing matters (finding text).
    description: str
    #: The mutating calls on the primary structure.
    mutators: CallPattern
    #: Calls that count as maintaining the mirror, any one suffices.
    invalidators: Tuple[CallPattern, ...]
    #: Receiver/argument tokens that exempt a site (host-side structures
    #: have no guest-visible mirror to maintain).
    exempt_tokens: FrozenSet[str] = frozenset()

    def exempt(self, tokens: FrozenSet[str]) -> bool:
        return bool(tokens & self.exempt_tokens)


#: Guest page-table mutations must fan out through the unmap
#: notification (TLB + guest PWC shootdown). The pairing may live
#: anywhere on the call path, not only inside one function body.
GUEST_PT = MirrorContract(
    name="guest-pt-shootdown",
    description=(
        "guest page-table mutation must transitively reach a TLB "
        "shootdown (_notify_unmap fan-out)"
    ),
    mutators=CallPattern(
        methods=frozenset({"unmap", "unmap_huge", "unmap_range", "update"}),
        receiver_has=frozenset({"page", "table"}),
    ),
    invalidators=(
        CallPattern(
            methods=frozenset(
                {"_notify_unmap", "notify_unmap", "invalidate", "flush"}
            )
        ),
    ),
    exempt_tokens=HOST_RECEIVER_TOKENS,
)

#: Releasing frames from a reservation partition changes frame
#: ownership; the sanitizer's shadow states must hear about it.
FRAME_OWNERSHIP = MirrorContract(
    name="frame-ownership-sanitizer",
    description=(
        "releasing frames from a reservation partition must transitively"
        " reach FrameSanitizer.on_unreserve"
    ),
    mutators=CallPattern(
        methods=frozenset({"remove"}),
        receiver_has=frozenset({"part"}),
    ),
    invalidators=(
        CallPattern(methods=frozenset({"on_unreserve"})),
    ),
)

CONTRACTS: Tuple[MirrorContract, ...] = (GUEST_PT, FRAME_OWNERSHIP)
