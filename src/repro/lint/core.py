"""Core of the simulator-aware static-analysis pass (``simlint``).

The linter parses each file into an :mod:`ast` tree and runs every
registered :class:`Rule` over it. Rules are small, single-purpose checks
tailored to *this* codebase: the properties the reproduction's figures
rest on (deterministic replay, units discipline) are not enforceable by
generic linters, so they are encoded here and enforced by a tier-1 test.

Suppressions
------------
A ``# simlint: disable=rule-a,rule-b`` comment trailing a line of code
suppresses those rules on that line only. The same comment on a line of
its own (a standalone comment) suppresses the rules for the whole file.
``disable=all`` suppresses every rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Subpackages of ``repro`` whose code is "model code" for the units rule:
#: address arithmetic there must be expressed in ``repro.units`` constants.
UNITS_SCOPED_DIRS = frozenset(
    {"mem", "core", "pagetable", "cache", "tlb", "virt"}
)

#: Schema version of the JSON output (bump on incompatible change).
JSON_SCHEMA_VERSION = 1

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_\-,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class LintContext:
    """Everything a rule needs to inspect one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()

    @property
    def repro_subpackage(self) -> Optional[str]:
        """The ``repro`` subpackage this file belongs to, if inferable.

        ``src/repro/mem/buddy.py`` -> ``"mem"``; paths outside a ``repro``
        package (scratch files, snippets under test) return ``None``.
        """
        parts = PurePath(self.path).parts
        if "repro" in parts:
            index = parts.index("repro")
            if index + 2 < len(parts):  # repro/<sub>/<file>
                return parts[index + 1]
            return ""  # directly under repro/
        return None

    @property
    def in_units_scope(self) -> bool:
        """True when the units-discipline rule applies to this file.

        Files outside any ``repro`` package are treated as in scope so
        snippets can exercise the rule; ``repro`` subpackages outside
        :data:`UNITS_SCOPED_DIRS` (workloads, experiments, ...) are not.
        """
        sub = self.repro_subpackage
        return sub is None or sub in UNITS_SCOPED_DIRS

    @property
    def is_test_code(self) -> bool:
        """True for pytest files, which assert against literal values."""
        path = PurePath(self.path)
        return path.name.startswith("test_") or "tests" in path.parts

    def finding(self, node: ast.AST, rule: "Rule", message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.name,
            message=message,
        )


class Rule:
    """One named check. Subclasses implement :meth:`check`."""

    #: Unique rule identifier used in output and suppression pragmas.
    name: str = ""
    #: Rule family (determinism, units).
    category: str = ""
    #: One-line human description (shown by ``--list-rules``).
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


#: Registry of every known rule, keyed by rule name, insertion-ordered.
RULES: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule (as a singleton) to the registry."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule.name in RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    RULES[rule.name] = rule
    return rule_cls


def iter_rules() -> Iterator[Rule]:
    """Yield every registered rule, in registration order."""
    return iter(RULES.values())


# ---------------------------------------------------------------------- #
# Shared AST helpers
# ---------------------------------------------------------------------- #

def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost identifier of a name/attribute chain, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def name_tokens(node: ast.AST) -> Set[str]:
    """Lower-case snake_case tokens of every identifier inside ``node``."""
    tokens: Set[str] = set()
    for child in ast.walk(node):
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        if name:
            tokens.update(part for part in name.lower().split("_") if part)
    return tokens


# ---------------------------------------------------------------------- #
# Suppression pragmas
# ---------------------------------------------------------------------- #

def _parse_pragmas(lines: Sequence[str]):
    """Return (file-level disabled rule names, per-line disabled names)."""
    file_disabled: Set[str] = set()
    line_disabled: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        if not match:
            continue
        names = {
            part.strip() for part in match.group(1).split(",") if part.strip()
        }
        if line.lstrip().startswith("#"):
            file_disabled |= names
        else:
            line_disabled.setdefault(lineno, set()).update(names)
    return file_disabled, line_disabled


def _suppressed(finding: Finding, file_disabled, line_disabled) -> bool:
    if "all" in file_disabled or finding.rule in file_disabled:
        return True
    on_line = line_disabled.get(finding.line, ())
    return "all" in on_line or finding.rule in on_line


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #

def lint_source(
    source: str,
    path: str = "<string>",
    disabled: Iterable[str] = (),
) -> List[Finding]:
    """Lint one source string; returns sorted findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="syntax-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    disabled = set(disabled)
    ctx = LintContext(path, source, tree)
    file_disabled, line_disabled = _parse_pragmas(ctx.lines)
    findings = [
        finding
        for rule in iter_rules()
        if rule.name not in disabled
        for finding in rule.check(ctx)
        if not _suppressed(finding, file_disabled, line_disabled)
    ]
    return sorted(findings, key=Finding.sort_key)


def lint_file(path, disabled: Iterable[str] = ()) -> List[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"), str(path), disabled=disabled
    )


def collect_files(paths: Iterable) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            out.update(
                candidate
                for candidate in entry.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        else:
            out.add(entry)
    return sorted(out)


def lint_paths(paths: Iterable, disabled: Iterable[str] = ()) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    disabled = set(disabled)
    findings = [
        finding
        for file_path in collect_files(paths)
        for finding in lint_file(file_path, disabled)
    ]
    return sorted(findings, key=Finding.sort_key)
