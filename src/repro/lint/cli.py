"""Command-line interface of the ``simlint`` static-analysis pass.

Exit status: 0 when no findings, 1 when findings exist, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional

from ..github import escape_data, escape_property, workflow_command
from .core import JSON_SCHEMA_VERSION, iter_rules, lint_paths

#: Kept under the historical private names: external tooling (and the
#: test suite) imports the escaping helpers from here; the shared
#: implementation lives in :mod:`repro.github`.
_escape_github_data = escape_data
_escape_github_property = escape_property


def _render_text(findings) -> str:
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"simlint: {len(findings)} {noun}")
    return "\n".join(lines)


def _render_json(findings) -> str:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "counts": dict(
            sorted(Counter(finding.rule for finding in findings).items())
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_github(findings) -> str:
    """GitHub Actions workflow commands: findings annotate the diff.

    Columns are 1-based for GitHub; :class:`Finding` stores 0-based
    ``ast`` column offsets.
    """
    lines = [
        workflow_command(
            "error",
            finding.message,
            file=finding.path,
            line=finding.line,
            col=finding.col + 1,
            title=f"simlint {finding.rule}",
        )
        for finding in findings
    ]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"simlint: {len(findings)} {noun}")
    return "\n".join(lines)


def _list_rules() -> str:
    """Every registered rule, sorted by name, with its category."""
    return "\n".join(
        f"{rule.name:24} [{rule.category}] {rule.description}"
        for rule in sorted(iter_rules(), key=lambda rule: rule.name)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Simulator-aware static analysis: determinism and units "
            "discipline."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; 'github' emits workflow "
        "commands so CI annotates findings inline)",
    )
    parser.add_argument(
        "--disable",
        default="",
        metavar="RULES",
        help="comma-separated rule names to skip for this run",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule (name, category, description), "
        "sorted by name, and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src/)")

    disabled = {name.strip() for name in args.disable.split(",") if name.strip()}
    known = {rule.name for rule in iter_rules()}
    unknown = disabled - known
    if unknown:
        parser.error(f"unknown rule(s) in --disable: {', '.join(sorted(unknown))}")

    try:
        findings = lint_paths(args.paths, disabled=disabled)
    except OSError as exc:
        parser.error(f"cannot lint {exc.filename or '?'}: {exc.strerror or exc}")

    if args.format == "json":
        print(_render_json(findings))
    elif args.format == "github":
        print(_render_github(findings))
    else:
        print(_render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
