"""``repro.lint``: simulator-aware static analysis for this repository.

Run from the command line::

    python -m repro.lint src/ --format text
    python -m repro.lint src/ --format json

or from Python::

    from repro.lint import lint_paths
    findings = lint_paths(["src"])

The rule set encodes correctness properties the reproduction's figures
depend on -- deterministic replay and ``repro.units`` discipline. A
tier-1 test keeps ``src/`` at zero findings. See ``docs/internals.md``
for the rule list and the suppression pragma
(``# simlint: disable=RULE``).
"""

from .core import (
    JSON_SCHEMA_VERSION,
    RULES,
    UNITS_SCOPED_DIRS,
    Finding,
    LintContext,
    Rule,
    collect_files,
    iter_rules,
    lint_file,
    lint_paths,
    lint_source,
    register,
)
from . import rules  # noqa: F401  (imported for rule registration)

__all__ = [
    "JSON_SCHEMA_VERSION",
    "RULES",
    "UNITS_SCOPED_DIRS",
    "Finding",
    "LintContext",
    "Rule",
    "collect_files",
    "iter_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]
