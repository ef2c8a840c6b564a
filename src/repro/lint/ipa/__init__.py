"""``repro.lint.ipa``: whole-program interprocedural analysis.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time; this
subpackage sees the whole tree at once. It is built in three layers:

* :mod:`repro.lint.ipa.facts` -- one pass over each parsed file distils a
  picklable :class:`~repro.lint.ipa.facts.ModuleFacts`: functions,
  classes, imports, call sites, iteration sites and global mutations.
  Facts (not ASTs) cross process boundaries, which is what lets the
  ``--jobs N`` per-file phase fan out over spawn workers.
* :mod:`repro.lint.ipa.callgraph` -- a :class:`Program` joins the facts
  of every file, resolves names/imports/``self.`` dispatch/registry
  dicts into a call graph, and exposes it to rules.
* :mod:`repro.lint.ipa.summaries` -- fixed-point propagation of
  per-function summaries over that graph: transitively-fired
  invalidation hooks, mutation-carrying parameters, address-space
  demands, serialization cones.

:mod:`repro.lint.ipa.contracts` declares the mirror-coherence contracts
("mutators of X must transitively reach invalidator Y") the
``mirror-coherence`` rule checks; the remaining whole-program rules live
beside the per-file ones in :mod:`repro.lint.rules`.
"""

from .callgraph import Program
from .contracts import CONTRACTS, CallPattern, MirrorContract
from .facts import ModuleFacts, extract_facts, module_name_for_path
from .summaries import Summaries

__all__ = [
    "CONTRACTS",
    "CallPattern",
    "MirrorContract",
    "ModuleFacts",
    "Program",
    "Summaries",
    "extract_facts",
    "module_name_for_path",
]
