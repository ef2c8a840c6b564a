"""Hot-path discipline: effect rules over the declared hot cones.

The reproduction's performance story rests on a small set of *hot
roots* -- the per-access code the engine executes millions of times per
experiment (the op loop, the TLB probe, the data-cache probe). One
stray allocation or unguarded tracepoint inside that cone silently
costs a double-digit percentage of wall clock without changing a single
modelled number, so nothing else catches it until a bench regresses.

:data:`HOT_ROOTS` declares those roots the same way
:data:`repro.lint.ipa.contracts.CONTRACTS` declares mirror pairs: data,
not code. The rules compute each root's *hot cone* -- everything
transitively callable from it through resolved call-graph edges, minus
the declared ``boundary`` callees (the slow paths a hot loop
legitimately falls back into) -- and hold every function inside it to a
stricter standard, using the effect sites recorded by
:mod:`repro.lint.ipa.facts`:

* ``hotpath-alloc`` -- no allocation (literals, comprehensions,
  f-strings, allocating calls) in the hit path;
* ``hotpath-trace`` -- tracepoint/profiler fires must sit under an
  ``enabled``/``active`` guard;
* ``hotpath-try`` -- no ``try``/``except`` inside a hot loop (the
  iterator-advance ``except StopIteration`` idiom is exempt: it costs
  nothing until the stream ends, once per slice);
* ``hotpath-attr`` -- a ``self.x.y`` chain loaded repeatedly inside one
  loop should be bound to a local outside it;
* ``hotpath-effect`` -- no RNG draws, host-clock reads, I/O, or
  module-state mutation on the hit path at all.

Profile-guided mode: when the run is given ``--profile`` (a PR 3/8
cycle-attribution tree), each finding is annotated with the measured
cycles under its root's ``profile_prefixes`` and the CLI ranks findings
by that weight -- "this allocation sits under 38% of modelled cycles"
instead of an undifferentiated list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from ..core import Finding, ProgramRule, register
from ..effects import ALLOC, IO, RNG, TRACE, TRY_IN_LOOP, WALLCLOCK
from ..ipa.callgraph import FunctionId, Program, function_id

#: The iterator-advance idiom: ``except StopIteration`` around
#: ``next()`` in a slice loop is zero-cost until the stream is
#: exhausted, which happens once per run -- exempt from ``hotpath-try``.
_EXEMPT_HANDLERS = frozenset({"StopIteration"})

#: Minimum dotted length of a chain worth hoisting (``self.x.y``).
_MIN_CHAIN_PARTS = 3


@dataclass(frozen=True)
class HotRoot:
    """One declared hot root: where a hot cone starts.

    ``qualnames`` are module-local qualified names inside ``module``;
    roots missing from the linted program are skipped, so fixtures and
    subtree runs work. ``boundary`` names callees whose *bodies* are the
    sanctioned slow path: descent stops there (the callee stays outside
    the cone), because falling back out of the hit path is exactly what
    those calls are for. ``profile_prefixes`` are the cycle-attribution
    subtrees (:meth:`repro.obs.profile.Profiler.add` paths) measuring
    the work this root performs, for profile-guided ranking.
    """

    name: str
    module: str
    qualnames: Tuple[str, ...]
    description: str
    boundary: FrozenSet[str] = frozenset()
    profile_prefixes: Tuple[Tuple[str, ...], ...] = field(default=())


#: The reproduction's hot roots. Order matters only for cone-ownership
#: ties (first root claiming a function names it in the message).
HOT_ROOTS: Tuple[HotRoot, ...] = (
    HotRoot(
        name="engine-access-loop",
        module="repro.sim.engine",
        qualnames=("WorkloadRun.step",),
        description=(
            "the per-slice op loop every modelled access funnels through"
        ),
        # The cone is the per-access hit path (_execute, _access). These
        # callees are the sanctioned slow paths: the TLB-miss walk, VMA
        # lookup and its errors, munmap, mmap/brk, and page faults.
        boundary=frozenset(
            {
                "_translate",
                "_vpn_for",
                "_free",
                "mmap",
                "brk",
                "handle_fault",
                "ensure_backed",
            }
        ),
        profile_prefixes=(("access",),),
    ),
    HotRoot(
        name="tlb-hit-path",
        module="repro.tlb.tlb",
        qualnames=("TlbHierarchy.lookup", "Tlb.lookup"),
        description="the two-level TLB probe, incl. L1 promotion",
        profile_prefixes=(("access", "issue"),),
    ),
    HotRoot(
        name="cache-hit-path",
        module="repro.cache.set_assoc",
        qualnames=(
            "SetAssociativeCache.access_fill",
            "SetAssociativeCache.access",
        ),
        description=(
            "the cache-level probe charged on every data and page-walk "
            "access"
        ),
        profile_prefixes=(("access", "data"),),
    ),
)


def hot_cone(program: Program) -> Dict[FunctionId, HotRoot]:
    """fid -> owning hot root, for every function in any hot cone.

    Depth-first from each root through resolved call edges; descent
    stops at (and excludes) callees named in the root's ``boundary``.
    The first root reaching a function owns it.
    """
    cone: Dict[FunctionId, HotRoot] = {}
    edges = program.edges
    for root in HOT_ROOTS:
        stack = [
            fid
            for qualname in reversed(root.qualnames)
            if (fid := function_id(root.module, qualname))
            in program.functions
        ]
        while stack:
            fid = stack.pop()
            if fid in cone:
                continue
            cone[fid] = root
            for _, targets in edges.get(fid, ()):
                for target in targets:
                    if target in cone:
                        continue
                    if program.functions[target][1].name in root.boundary:
                        continue
                    stack.append(target)
    return cone


def profile_cycles(profile, root: HotRoot) -> int:
    """Measured cycles under ``root``'s attribution prefixes."""
    if profile is None:
        return 0
    total = 0
    for prefix in root.profile_prefixes:
        node = profile
        for part in prefix:
            node = node.children.get(part)
            if node is None:
                break
        else:
            total += node.total_cycles()
    return total


class _HotpathRule(ProgramRule):
    """Shared cone walk + profile annotation of the hotpath family."""

    category = "hotpath"
    uses_profile = True

    def check_program(
        self, program: Program, summaries, profile=None
    ) -> Iterator[Finding]:
        cone = hot_cone(program)
        if not cone:
            return
        grand_total = profile.total_cycles() if profile is not None else 0
        root_cycles: Dict[str, int] = {}
        for fid, mf, ff in program.iter_functions():
            root = cone.get(fid)
            if root is None:
                continue
            cycles = root_cycles.get(root.name)
            if cycles is None:
                cycles = root_cycles[root.name] = profile_cycles(
                    profile, root
                )
            share = cycles / grand_total if grand_total else 0.0
            for line, col, message in self.violations(summaries, mf, ff, root):
                yield Finding(
                    path=mf.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=f"{message} [hot cone: {root.name}]",
                    cycles=cycles,
                    share=share,
                )

    def violations(
        self, summaries, mf, ff, root: HotRoot
    ) -> Iterator[Tuple[int, int, str]]:
        raise NotImplementedError


@register
class HotpathAllocRule(_HotpathRule):
    """No allocation in the hit path."""

    name = "hotpath-alloc"
    description = (
        "no allocation (literal, comprehension, f-string, allocating "
        "call) inside a declared hot cone: the hit path runs millions "
        "of times per experiment, hoist or restructure instead"
    )

    def violations(self, summaries, mf, ff, root):
        for site in ff.effect_sites:
            if site.effect != ALLOC or site.guarded:
                continue
            yield (
                site.line,
                site.col,
                f"{site.detail} allocates inside {ff.qualname}() on "
                f"{root.description}; hoist it out of the hit path or "
                "restructure to reuse storage",
            )


@register
class HotpathTraceRule(_HotpathRule):
    """Tracepoint/profiler fires must be guarded in the hit path."""

    name = "hotpath-trace"
    description = (
        "tracepoint/profiler calls inside a hot cone must sit under "
        "their enabled/active guard, or disabled runs pay the full "
        "observability cost per access"
    )

    def violations(self, summaries, mf, ff, root):
        for site in ff.effect_sites:
            if site.effect != TRACE or site.guarded:
                continue
            yield (
                site.line,
                site.col,
                f"unguarded {site.detail} inside {ff.qualname}() on "
                f"{root.description}; wrap it in the emitter's "
                "enabled/active guard so disabled runs pay one attribute "
                "read",
            )


@register
class HotpathTryRule(_HotpathRule):
    """No try/except inside hot loops (StopIteration idiom exempt)."""

    name = "hotpath-try"
    description = (
        "no try/except inside a hot-cone loop (zero-cost only on "
        "never-raising interpreters; the iterator-advance "
        "except-StopIteration idiom is exempt)"
    )

    def violations(self, summaries, mf, ff, root):
        for site in ff.effect_sites:
            if site.effect != TRY_IN_LOOP:
                continue
            handlers = set(site.detail.split(",")) if site.detail else set()
            if handlers and handlers <= _EXEMPT_HANDLERS:
                continue
            caught = site.detail or "<bare/finally>"
            yield (
                site.line,
                site.col,
                f"try/except ({caught}) inside a loop of "
                f"{ff.qualname}() on {root.description}; move the "
                "handler out of the per-access loop",
            )


@register
class HotpathAttrRule(_HotpathRule):
    """Repeated attribute chains inside hot loops should be hoisted."""

    name = "hotpath-attr"
    description = (
        "a self.x.y attribute chain loaded repeatedly inside one "
        "hot-cone loop should be bound to a local before the loop "
        "(every load re-walks the descriptor chain)"
    )

    def violations(self, summaries, mf, ff, root):
        # Count every dotted *prefix* of each recorded in-loop load:
        # ``self.core.tlb.probe(op)`` + ``self.core.tlb.fill(op)`` share
        # the hoistable prefix ``self.core.tlb`` even though the full
        # chains differ.
        groups: Dict[Tuple[int, str], list] = {}
        for load in ff.attr_loads:
            parts = load.chain.split(".")
            chain_root = parts[0]
            if chain_root != "self" and chain_root not in ff.params:
                continue
            if chain_root in ff.stored_roots:
                continue
            for end in range(_MIN_CHAIN_PARTS, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if any(
                    prefix == stored or prefix.startswith(stored + ".")
                    for stored in ff.stored_chains
                ):
                    continue
                groups.setdefault((load.loop_id, prefix), []).append(load)
        reportable = []
        for (loop_id, prefix), loads in groups.items():
            if len(loads) < 2:
                continue
            extended = any(
                other_loop == loop_id
                and other_prefix.startswith(prefix + ".")
                and len(other_loads) >= len(loads)
                for (other_loop, other_prefix), other_loads in groups.items()
            )
            if extended:
                continue  # the longer chain is the one to hoist
            reportable.append((prefix, loads))
        for prefix, loads in sorted(
            reportable,
            key=lambda item: (item[1][0].line, item[1][0].col, item[0]),
        ):
            first = loads[0]
            yield (
                first.line,
                first.col,
                f"'{prefix}' is loaded {len(loads)}x inside one loop of "
                f"{ff.qualname}() on {root.description}; bind it to a "
                "local before the loop",
            )


@register
class HotpathEffectRule(_HotpathRule):
    """No RNG/clock/I-O/global-mutation effects in the hit path."""

    name = "hotpath-effect"
    description = (
        "no RNG draws, host-clock reads, I/O, or module-state mutation "
        "inside a hot cone: those belong outside the per-access path "
        "entirely"
    )

    _EFFECT_NOUN = {
        RNG: "RNG draw",
        WALLCLOCK: "host-clock read",
        IO: "I/O",
    }

    def violations(self, summaries, mf, ff, root):
        for site in ff.effect_sites:
            noun = self._EFFECT_NOUN.get(site.effect)
            if noun is None or site.guarded:
                continue
            yield (
                site.line,
                site.col,
                f"{noun} ({site.detail}) inside {ff.qualname}() on "
                f"{root.description}; the per-access path must stay "
                "deterministic and self-contained",
            )
        for mutation in ff.global_mutations:
            if mutation.how == "assign" or summaries._is_module_state(
                mf, mutation.root
            ):
                yield (
                    mutation.line,
                    mutation.col,
                    f"module-state mutation of '{mutation.root}' "
                    f"({mutation.how}) inside {ff.qualname}() on "
                    f"{root.description}; accumulate locally and flush "
                    "outside the hot path",
                )
