"""Fixed-point per-function summaries over the call graph.

Every summary here is a monotone property over a finite lattice, so a
simple iterate-until-stable loop converges even through recursive call
cycles:

* :attr:`Summaries.reachable` -- the transitive-callee set of each
  function (each function includes itself), the substrate for every
  "does X transitively reach Y" question.
* :attr:`Summaries.return_spaces` -- address-space of each function's
  return value: the naming-derived space where the body gives one,
  refined by propagating callee return spaces through ``return f(...)``
  positions until stable.
* :attr:`Summaries.param_demands` -- the address-space each parameter is
  *demanded* to be: its own naming-derived space, or -- when the name is
  opaque -- the space of the callee parameter it is forwarded into,
  propagated transitively. This is what lets a gVA argument be flagged
  against an hPA-typed parameter two calls deep.
* :meth:`Summaries.mutation_params` -- per mirror-coherence contract,
  the parameter indices a function mutates (directly via
  ``param.mutator(...)`` or by forwarding the parameter into a callee's
  mutation parameter).
* :meth:`Summaries.fires` -- whether a function transitively executes a
  call matching a pattern (the invalidator side of the contracts).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..flow import Space, join
from .callgraph import FunctionId, Program
from .facts import CallFact

#: Spaces too generic to demand anything of an argument.
_VAGUE = frozenset({Space.UNKNOWN.value, Space.ADDR.value, Space.PAGE.value})


def _space(name: str) -> Space:
    try:
        return Space(name)
    except ValueError:
        return Space.UNKNOWN


class Summaries:
    """Lazily-computed whole-program summaries for a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._reachable: Optional[Dict[FunctionId, FrozenSet[FunctionId]]] = None
        self._return_spaces: Optional[Dict[FunctionId, str]] = None
        self._param_demands: Optional[Dict[FunctionId, Tuple[str, ...]]] = None
        #: (fid, param index) -> (callee fid, callee param index) recording
        #: where an inherited demand came from, for finding messages.
        self.demand_provenance: Dict[Tuple[FunctionId, int], Tuple[FunctionId, int]] = {}
        self._mutation_cache: Dict[object, Dict[FunctionId, FrozenSet[int]]] = {}

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #

    @property
    def reachable(self) -> Dict[FunctionId, FrozenSet[FunctionId]]:
        """fid -> every function reachable through calls, self included."""
        if self._reachable is None:
            edges = self.program.edges
            direct: Dict[FunctionId, Set[FunctionId]] = {}
            for fid, resolved in edges.items():
                targets: Set[FunctionId] = {fid}
                for _, fids in resolved:
                    targets.update(fids)
                direct[fid] = targets
            reach = {fid: set(targets) for fid, targets in direct.items()}
            changed = True
            while changed:
                changed = False
                for fid, targets in direct.items():
                    mine = reach[fid]
                    before = len(mine)
                    for target in targets:
                        if target != fid:
                            mine.update(reach.get(target, ()))
                    if len(mine) != before:
                        changed = True
            self._reachable = {
                fid: frozenset(fids) for fid, fids in reach.items()
            }
        return self._reachable

    def fires(
        self, fid: FunctionId, patterns: Iterable["_PatternLike"]
    ) -> bool:
        """True if ``fid`` transitively executes a call matching any pattern."""
        patterns = tuple(patterns)
        for reached in self.reachable.get(fid, frozenset({fid})):
            entry = self.program.functions.get(reached)
            if entry is None:
                continue
            for call in entry[1].calls:
                for pattern in patterns:
                    if pattern.matches(call):
                        return True
        return False

    # ------------------------------------------------------------------ #
    # Return spaces
    # ------------------------------------------------------------------ #

    @property
    def return_spaces(self) -> Dict[FunctionId, str]:
        """Naming-derived return spaces, closed over ``return f(...)``."""
        if self._return_spaces is None:
            program = self.program
            spaces = {
                fid: entry[1].return_space
                for fid, entry in program.functions.items()
            }
            edges = program.edges
            changed = True
            while changed:
                changed = False
                for fid, (_, ff) in program.functions.items():
                    if spaces[fid] != Space.UNKNOWN.value or not ff.return_calls:
                        continue
                    by_index = dict(edges.get(fid, ()))
                    merged = Space.UNKNOWN
                    for call_index in ff.return_calls:
                        for target in by_index.get(call_index, ()):
                            merged = join(merged, _space(spaces[target]))
                    if merged is not Space.UNKNOWN:
                        spaces[fid] = merged.value
                        changed = True
            self._return_spaces = spaces
        return self._return_spaces

    # ------------------------------------------------------------------ #
    # Parameter demands
    # ------------------------------------------------------------------ #

    @property
    def param_demands(self) -> Dict[FunctionId, Tuple[str, ...]]:
        """fid -> demanded space per parameter (inherited through calls)."""
        if self._param_demands is None:
            program = self.program
            demands: Dict[FunctionId, List[str]] = {
                fid: list(entry[1].param_spaces)
                for fid, entry in program.functions.items()
            }
            edges = program.edges
            changed = True
            while changed:
                changed = False
                for fid, (_, ff) in program.functions.items():
                    mine = demands[fid]
                    for call_index, targets in edges.get(fid, ()):
                        call = ff.calls[call_index]
                        for position, arg in enumerate(call.args):
                            if arg.param_index is None:
                                continue
                            if mine[arg.param_index] not in _VAGUE:
                                continue
                            for target in targets:
                                theirs = demands[target]
                                if position >= len(theirs):
                                    continue
                                demanded = theirs[position]
                                if demanded in _VAGUE:
                                    continue
                                mine[arg.param_index] = demanded
                                self.demand_provenance[
                                    (fid, arg.param_index)
                                ] = (target, position)
                                changed = True
                                break
            self._param_demands = {
                fid: tuple(spaces) for fid, spaces in demands.items()
            }
        return self._param_demands

    def demand_chain(self, fid: FunctionId, index: int) -> List[Tuple[FunctionId, int]]:
        """The inheritance chain behind a demanded space, caller first."""
        # Force computation so provenance is populated.
        self.param_demands
        chain: List[Tuple[FunctionId, int]] = [(fid, index)]
        seen = {(fid, index)}
        while (fid, index) in self.demand_provenance:
            fid, index = self.demand_provenance[(fid, index)]
            if (fid, index) in seen:
                break
            seen.add((fid, index))
            chain.append((fid, index))
        return chain

    # ------------------------------------------------------------------ #
    # Mutation parameters (mirror-coherence)
    # ------------------------------------------------------------------ #

    def mutation_params(
        self,
        mutator_methods: FrozenSet[str],
        exempt_tokens: FrozenSet[str],
    ) -> Dict[FunctionId, FrozenSet[int]]:
        """Parameter indices each function mutates under a contract.

        Direct: ``param.mutator(...)`` where ``param`` is a bare,
        non-exempt parameter of the function. Transitive: forwarding a
        parameter verbatim into a callee's mutation parameter.
        """
        key = (mutator_methods, exempt_tokens)
        cached = self._mutation_cache.get(key)
        if cached is not None:
            return cached
        program = self.program
        mutates: Dict[FunctionId, Set[int]] = {}
        for fid, (_, ff) in program.functions.items():
            direct: Set[int] = set()
            for call in ff.calls:
                if call.name not in mutator_methods:
                    continue
                if len(call.path) == 2 and call.path[0] in ff.params:
                    if not (set(_tokens(call.path[0])) & exempt_tokens):
                        direct.add(ff.params.index(call.path[0]))
            mutates[fid] = direct
        edges = program.edges
        changed = True
        while changed:
            changed = False
            for fid, (_, ff) in program.functions.items():
                mine = mutates[fid]
                for call_index, targets in edges.get(fid, ()):
                    call = ff.calls[call_index]
                    for position, arg in enumerate(call.args):
                        if arg.param_index is None or arg.param_index in mine:
                            continue
                        for target in targets:
                            if position in mutates.get(target, ()):
                                mine.add(arg.param_index)
                                changed = True
                                break
        result = {fid: frozenset(indices) for fid, indices in mutates.items()}
        self._mutation_cache[key] = result
        return result


def _tokens(name: str) -> List[str]:
    return [part for part in name.lower().split("_") if part]


class _PatternLike:
    """Anything with ``matches(call: CallFact) -> bool`` (see contracts)."""

    def matches(self, call: CallFact) -> bool:  # pragma: no cover - protocol
        raise NotImplementedError
