"""Mirror-coherence: declarative mutator/invalidator contracts (IPA).

Checks every :data:`repro.lint.ipa.contracts.CONTRACTS` entry over the
whole-program call graph. A finding anchors at the site where the
mirrored object is concretely named:

* a direct mutator call on a matching receiver chain
  (``process.page_table.unmap(vpn)``), or
* a call binding a matching object into a callee parameter the
  summaries prove is mutated (``self._drop(process.page_table, vpn)``
  where ``_drop`` does ``pt.unmap(vpn)``).

The enclosing function must then *transitively* reach one of the
contract's invalidators. Mutations through a bare parameter are never
flagged in the helper itself -- the obligation travels to the callers
that bind something concrete, which a per-function check cannot see.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..core import Finding, ProgramRule, register
from ..ipa.contracts import CONTRACTS, MirrorContract


@register
class MirrorCoherenceRule(ProgramRule):
    """Flag contract mutations with no reachable invalidator."""

    name = "mirror-coherence"
    category = "correctness"
    description = (
        "a mutation of mirrored state (guest page tables, reservation "
        "partitions) must transitively reach the contract's invalidator "
        "(shootdown, sanitizer hook), or the mirror silently goes stale"
    )

    def check_program(self, program, summaries) -> Iterator[Finding]:
        for contract in CONTRACTS:
            yield from self._check_contract(contract, program, summaries)

    def _check_contract(
        self, contract: MirrorContract, program, summaries
    ) -> Iterator[Finding]:
        mutation_params = summaries.mutation_params(
            contract.mutators.methods, contract.exempt_tokens
        )
        hooks = sorted(
            name
            for pattern in contract.invalidators
            for name in pattern.methods
        )
        edges = program.edges
        for fid, mf, ff in program.iter_functions():
            sites: List[Tuple[object, str]] = []
            targets_by_index = dict(edges.get(fid, ()))
            for index, call in enumerate(ff.calls):
                # Direct concrete mutation on a matching receiver chain.
                if (
                    contract.mutators.matches(call)
                    and not contract.exempt(call.receiver_tokens)
                    and not self._is_bare_param_receiver(call, ff)
                ):
                    sites.append(
                        (
                            call,
                            f"{call.name}() mutates "
                            f"'{'.'.join(call.path[:-1]) or call.root}'",
                        )
                    )
                    continue
                # Binding a concrete object into a mutated parameter.
                for position, arg in enumerate(call.args):
                    if arg.param_index is not None or not arg.is_chain:
                        continue
                    if not contract.mutators.matches_tokens(arg.tokens):
                        continue
                    if contract.exempt(arg.tokens):
                        continue
                    for target in targets_by_index.get(index, ()):
                        if position in mutation_params.get(target, ()):
                            _, callee = program.facts_for(target)
                            sites.append(
                                (
                                    call,
                                    f"argument {position + 1} of "
                                    f"{call.name or callee.name}() is "
                                    f"mutated inside {callee.qualname}()",
                                )
                            )
                            break
            if not sites:
                continue
            if summaries.fires(fid, contract.invalidators):
                continue
            for call, what in sites:
                yield Finding(
                    path=mf.path,
                    line=call.line,
                    col=call.col,
                    rule=self.name,
                    message=(
                        f"[{contract.name}] {what}, but no call path from "
                        f"{ff.qualname}() reaches an invalidator "
                        f"({'/'.join(hooks)}): {contract.description}"
                    ),
                )

    @staticmethod
    def _is_bare_param_receiver(call, ff) -> bool:
        return len(call.path) == 2 and call.path[0] in ff.params
