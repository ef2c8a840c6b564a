"""The ``python -m repro.obs`` command line: list metrics, compare runs.

::

    python -m repro.obs metrics
    python -m repro.obs diff baseline.json current.json --threshold 25
    python -m repro.obs diff t1.json#standalone t1.json#colocated

``metrics`` imports the collectors and lists the metric schema they
register. ``diff`` compares two metrics-snapshot operands
(``--metrics-out`` / benchmark files, append ``#label`` to pick one
snapshot from a multi-snapshot file) and exits non-zero when
``--threshold`` is given and any metric moved by more than that
percentage -- the CI regression gate (``--strict-new`` additionally
gates on metrics that appeared or vanished). ``diff --format github``
additionally prints one ``::error`` workflow-command annotation per
threshold breach, so the gate marks up PRs instead of only failing.

Exit status: 0 on success, 1 when a ``--threshold`` gate fails, 2 on a
usage error or bad input (missing file, malformed snapshot), reported as
one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ReproError
from .diff import diff_snapshots, render_diff


def _cmd_metrics(args: argparse.Namespace) -> int:
    # Importing the collectors registers the canonical metric schema.
    from ..metrics import collect  # noqa: F401
    from ..metrics.registry import REGISTRY

    catalog = REGISTRY.catalog()
    width = max((len(spec.name) for spec in catalog), default=0)
    for spec in catalog:
        unit = f" [{spec.unit}]" if spec.unit else ""
        print(f"{spec.name.ljust(width)}  {spec.kind.value:<9}{unit}  {spec.help}")
    print(f"{len(catalog)} metrics registered")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from ..github import workflow_command
    from ..metrics.registry import load_snapshot

    before = load_snapshot(args.before)
    after = load_snapshot(args.after)
    result = diff_snapshots(before, after)
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(
            render_diff(
                result,
                top=args.top,
                profile_top=args.profile_top,
                show_unchanged=args.all,
            )
        )
    if args.threshold is not None:
        breaches = result.breaches(args.threshold)
        new_or_gone: List[str] = []
        if args.strict_new:
            # Appeared/removed metrics never carry a finite percent
            # change, so they can't breach the threshold; --strict-new
            # opts the gate in to failing on them anyway.
            new_or_gone = [
                f"appeared: {name}" for name in result.appeared
            ] + [f"removed: {name}" for name in result.removed]
        if breaches or new_or_gone:
            if fmt == "github":
                # One workflow-command annotation per breach, so the CI
                # perf gate marks up the PR instead of only failing.
                path = args.after.split("#", 1)[0]
                for delta in breaches:
                    print(
                        workflow_command(
                            "error",
                            f"{delta.formatted()} exceeds the "
                            f"{args.threshold:g}% perf gate "
                            f"({result.label_before} -> "
                            f"{result.label_after})",
                            file=path,
                            title="perf regression",
                        )
                    )
                for item in new_or_gone:
                    print(
                        workflow_command(
                            "error",
                            f"{item} ({result.label_before} -> "
                            f"{result.label_after})",
                            file=path,
                            title="metric appeared/removed",
                        )
                    )
            if breaches:
                print(
                    f"REGRESSION: {len(breaches)} metric(s) moved more "
                    f"than {args.threshold:g}% "
                    f"(worst: {breaches[0].formatted()})"
                )
            if new_or_gone:
                print(
                    f"STRICT-NEW: {len(new_or_gone)} metric(s) appeared "
                    f"or were removed ({'; '.join(new_or_gone)})"
                )
            return 1
        print(f"ok: all changes within {args.threshold:g}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="List the metric schema and compare metrics snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_met = sub.add_parser("metrics", help="list the metric schema")
    p_met.set_defaults(func=_cmd_metrics)

    p_diff = sub.add_parser(
        "diff", help="compare two metrics snapshots (a regression gate)"
    )
    p_diff.add_argument(
        "before",
        help="baseline operand: snapshot JSON (append #label to pick one)",
    )
    p_diff.add_argument(
        "after",
        help="candidate operand: snapshot JSON (append #label to pick one)",
    )
    p_diff.add_argument(
        "--strict-new",
        action="store_true",
        help="with --threshold, also fail when metrics appeared or were "
        "removed (they never breach the percent threshold on their own)",
    )
    p_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if any metric moves more than PCT percent",
    )
    p_diff.add_argument(
        "--top",
        type=int,
        default=0,
        help="show at most N changed metrics (0 = all)",
    )
    p_diff.add_argument(
        "--profile-top",
        type=int,
        default=15,
        help="show at most N attribution paths (default 15)",
    )
    p_diff.add_argument(
        "--all", action="store_true", help="also list unchanged metrics"
    )
    p_diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON "
        "(alias for --format json)"
    )
    p_diff.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default=None,
        help="output format; 'github' renders the text diff and emits "
        "one ::error workflow-command annotation per threshold breach",
    )
    p_diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    if getattr(args, "strict_new", False) and args.threshold is None:
        parser.error("--strict-new requires --threshold")
    try:
        return args.func(args)
    except (OSError, ValueError, ReproError) as exc:
        # Bad input exits 2, distinct from a --threshold regression (1).
        print(f"error: {exc}", file=sys.stderr)
        return 2
