"""Command-line interface of the ``simlint`` static-analysis pass.

Exit status: 0 when no findings, 1 when findings exist, 2 on usage error.

``--profile`` turns a run profile-guided: findings are ranked (and
annotated) by the measured cycles under their hot root, so "fix this
first" falls out of the ordering. ``--baseline``/``--fail-on-new`` form
the findings ratchet: record today's accepted findings once, then gate
CI only on *new* ones.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional, Set, Tuple

from ..errors import ReproError
from ..github import escape_data, escape_property, workflow_command
from .core import (
    JSON_SCHEMA_VERSION,
    ProgramRule,
    iter_rules,
    lint_paths,
)

#: Schema version of the ``--baseline`` ratchet file.
BASELINE_VERSION = 1

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


def _baseline_key(finding) -> Tuple[str, str, str]:
    """The ratchet identity of a finding: stable across reordering.

    Line/column are deliberately excluded so unrelated edits above a
    baselined finding do not un-baseline it; the message pins it well
    enough (and never embeds profile numbers).
    """
    return (finding.path, finding.rule, finding.message)


def _write_baseline(path: str, findings) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"path": p, "rule": r, "message": m}
            for p, r, m in sorted({_baseline_key(f) for f in findings})
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_baseline(path: str) -> Set[Tuple[str, str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != BASELINE_VERSION:
        raise ReproError(
            f"{path}: unsupported baseline version "
            f"{payload.get('version')!r} (expected {BASELINE_VERSION})"
        )
    return {
        (entry["path"], entry["rule"], entry["message"])
        for entry in payload.get("findings", ())
    }


def _list_rules() -> str:
    """Every registered rule, sorted by name, with its kind."""
    lines = []
    for rule in sorted(iter_rules(), key=lambda rule: rule.name):
        kind = "program" if isinstance(rule, ProgramRule) else "file"
        lines.append(
            f"{rule.name:24} [{kind}/{rule.category}] {rule.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Simulator-aware static analysis: determinism, units "
            "discipline, address-math safety and API hygiene."
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
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-file phase out over N processes (the "
        "whole-program pass stays single-process; output is "
        "byte-identical at any job count)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="SPEC",
        help="rank findings by measured cycles: a profile-carrying "
        "snapshot file, 'store:<id>[#member]' ledger record, or a raw "
        "profile-tree JSON dump",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="run-store root for 'store:' profile operands "
        "(default: $REPRO_STORE / .repro-store)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="findings ratchet file: alone, record current findings to "
        "FILE and exit 0; with --fail-on-new, suppress recorded "
        "findings and gate only on new ones",
    )
    parser.add_argument(
        "--fail-on-new",
        action="store_true",
        help="with --baseline: report (and fail on) only findings not "
        "present in the baseline",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule (name, kind, category, "
        "description), sorted by name, and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src/)")

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.fail_on_new and not args.baseline:
        parser.error("--fail-on-new requires --baseline")
    disabled = {name.strip() for name in args.disable.split(",") if name.strip()}
    known = {rule.name for rule in iter_rules()}
    unknown = disabled - known
    if unknown:
        parser.error(f"unknown rule(s) in --disable: {', '.join(sorted(unknown))}")

    profile = None
    if args.profile is not None:
        from ..obs.store import load_profile

        try:
            profile = load_profile(args.profile, store_root=args.store)
        except (OSError, ValueError, ReproError) as exc:
            parser.error(f"cannot load profile {args.profile}: {exc}")

    try:
        findings = lint_paths(
            args.paths, disabled=disabled, jobs=args.jobs, profile=profile
        )
    except OSError as exc:
        parser.error(f"cannot lint {exc.filename or '?'}: {exc.strerror or exc}")

    if args.baseline and not args.fail_on_new:
        _write_baseline(args.baseline, findings)
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"simlint: baseline {args.baseline} records {len(findings)} {noun}")
        return 0
    if args.baseline:
        try:
            recorded = _read_baseline(args.baseline)
        except (OSError, ValueError, KeyError, ReproError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        findings = [f for f in findings if _baseline_key(f) not in recorded]

    if args.format == "json":
        print(_render_json(findings))
    elif args.format == "github":
        print(_render_github(findings))
    else:
        print(_render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
