"""Spawn-safety: module-level mutable state under worker entry points.

:func:`repro.parallel.run_cells` fans experiment cells out over
``spawn`` workers: each worker re-imports the package, so module-level
state is *per-process* -- a worker mutating a module global changes its
own private copy, and the parent never sees it (nor do sibling
workers). Code that accumulates results into a module-level dict/list
therefore works in-process and silently drops data under ``--jobs``.

This rule walks the call graph from every worker entry point
(``run_cell``, plus the observability-capsule lifecycle methods that
``run_cell`` drives around each cell) and flags mutations of
module-level mutable bindings reachable from one -- assignment through
``global``, subscript stores, and in-place method calls (``X.append``,
``X.update``, ...) on a bare module-level name.

Deliberately per-process singletons are exempt via
:data:`SPAWN_SAFE_GLOBALS`; each entry carries its justification.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..core import Finding, ProgramRule, register

#: Worker entry-point function names (the ``repro.parallel`` contract).
ENTRY_POINTS = frozenset({"run_cell"})

#: Worker entry-point *methods*, matched by qualname. The capsule
#: lifecycle (install/finalize/abort) runs inside every spawn worker
#: around the experiment, so worker-side observability code hanging off
#: it gets the same reachability treatment as ``run_cell`` itself.
METHOD_ENTRY_POINTS = frozenset(
    {
        "ObservabilityCapsule.install",
        "ObservabilityCapsule.finalize",
        "ObservabilityCapsule.abort",
    }
)

#: Module-level singletons that are *designed* per-process: mutating
#: them inside a spawn worker is correct because every worker owns a
#: fresh copy and results travel back by return value, never through
#: the global. Name -> one-line justification (shown nowhere, kept here
#: so every exemption is accountable).
SPAWN_SAFE_GLOBALS: Dict[str, str] = {
    "PROFILER": (
        "per-process cycle-attribution accumulator; workers profile "
        "privately and ship results back inside the ExperimentResult"
    ),
    "REGISTRY": (
        "per-process metrics registry; each worker's engine populates "
        "its own copy and serializes it into the returned result"
    ),
    "TRACER": (
        "per-process trace sink registry; tracing output is per-worker "
        "by design (one trace file per cell)"
    ),
}


@register
class SpawnSafetyRule(ProgramRule):
    """Flag worker-reachable mutations of module-level state."""

    name = "spawn-safety"
    category = "correctness"
    description = (
        "code reachable from a repro.parallel worker entry point "
        "(run_cell) must not mutate module-level state: spawn workers "
        "re-import the package, so the mutation lands in a private copy "
        "and is lost -- return results by value instead"
    )

    def check_program(self, program, summaries) -> Iterator[Finding]:
        entries = [
            fid
            for fid, _, ff in program.iter_functions()
            if (ff.name in ENTRY_POINTS and not ff.cls)
            or ff.qualname in METHOD_ENTRY_POINTS
        ]
        cone = set()
        reachable = summaries.reachable
        for entry in entries:
            cone.update(reachable.get(entry, frozenset({entry})))
        for fid, mf, ff in program.iter_functions():
            if fid not in cone:
                continue
            for mutation in ff.global_mutations:
                state = self._resolve_global(program, mf, mutation.root)
                if state is None or mutation.root in SPAWN_SAFE_GLOBALS:
                    continue
                kind, home = state
                where = (
                    "module-level" if home == mf.module else f"{home}'s"
                )
                yield Finding(
                    path=mf.path,
                    line=mutation.line,
                    col=mutation.col,
                    rule=self.name,
                    message=(
                        f"{ff.qualname}() is reachable from a spawn "
                        f"worker entry point but mutates {where} {kind} "
                        f"'{mutation.root}' ({mutation.how}); under "
                        "spawn each worker mutates a private re-imported "
                        "copy, so the update is silently lost -- return "
                        "the data instead"
                    ),
                )

    @staticmethod
    def _resolve_global(program, mf, root):
        """(kind, defining module) when ``root`` is module-level state."""
        entry = mf.module_mutables.get(root)
        if entry is not None:
            return entry[1], mf.module
        dotted = mf.imports.get(root)
        if dotted:
            module, _, member = dotted.rpartition(".")
            home = program.by_module.get(module)
            if home is not None:
                entry = home.module_mutables.get(member)
                if entry is not None:
                    return entry[1], home.module
        return None
