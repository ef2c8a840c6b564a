"""The ``python -m repro.obs`` command line: inspect, convert, compare.

::

    python -m repro.obs summarize out.trace.jsonl
    python -m repro.obs export out.trace.jsonl -o out.trace.json
    python -m repro.obs catalog
    python -m repro.obs metrics
    python -m repro.obs diff baseline.json current.json --threshold 25
    python -m repro.obs diff t1.json#standalone t1.json#colocated
    python -m repro.obs store add fig6.json --label figure6
    python -m repro.obs store list --label figure6
    python -m repro.obs diff store:3f2a store:91bc --threshold 25
    python -m repro.obs trend 'perf.*' --label figure6 --threshold 10
    python -m repro.obs watch out.manifest.jsonl

``export`` writes a Chrome ``trace_event`` JSON loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``. ``catalog`` imports
the instrumented layers and lists every registered tracepoint;
``metrics`` lists the metric schema the same way. ``diff`` compares two
metrics-snapshot operands (``--metrics-out`` / benchmark files, append
``#label`` to pick one snapshot from a multi-snapshot file, or
``store:<id>`` ledger entries) and exits non-zero when ``--threshold``
is given and any metric moved by more than that percentage -- the CI
regression gate (``--strict-new`` additionally gates on metrics that
appeared or vanished). ``diff --format github`` additionally prints one
``::error`` workflow-command annotation per threshold breach, so the
gate marks up PRs instead of only failing.

``store`` manages the run ledger (:mod:`repro.obs.store`): ``add``
appends a snapshot file as a content-addressed record, ``list``/
``show`` read the history back, ``gc`` bounds it. ``trend`` computes
rolling-median trend verdicts over the last N records of a label
(:mod:`repro.obs.trend`) and ``watch`` tails a run manifest as a live
terminal board (:mod:`repro.obs.watch`).

Exit status: 0 on success, 1 when a ``--threshold`` gate fails, 2 on a
usage error or bad input (missing file, malformed snapshot or trace),
reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ReproError
from .diff import diff_snapshots, render_diff
from .export import render_summary, summarize, to_chrome
from .sinks import iter_trace
from .trace import TRACER

#: Modules imported by ``catalog`` so their emit sites register.
INSTRUMENTED_MODULES = (
    "repro.cache.hierarchy",
    "repro.cache.pwc",
    "repro.core.allocator",
    "repro.core.part",
    "repro.core.reclaimer",
    "repro.mem.buddy",
    "repro.mem.pcp",
    "repro.os.kernel",
    "repro.sim.engine",
    "repro.tlb.tlb",
    "repro.virt.nested",
)


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize(iter_trace(args.trace))
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_summary(summary))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    document = to_chrome(iter_trace(args.trace))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=args.indent)
        handle.write("\n")
    print(
        f"wrote {args.output} ({len(document['traceEvents'])} trace events); "
        "load it in https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    import importlib

    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)
    catalog = TRACER.catalog()
    width = max((len(name) for name in catalog), default=0)
    for name, enabled in catalog.items():
        state = "on" if enabled else "off"
        print(f"{name.ljust(width)}  [{state}]")
    print(f"{len(catalog)} tracepoints registered")
    return 0


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
    from .store import STORE_OPERAND_PREFIX, load_operand

    before = load_operand(args.before, args.store)
    after = load_operand(args.after, args.store)
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
                if path.startswith(STORE_OPERAND_PREFIX):
                    # Ledger operands have no file to annotate; the
                    # empty property is dropped by workflow_command.
                    path = ""
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


def _open_store(args: argparse.Namespace):
    from .store import RunStore

    return RunStore(args.store)


def _format_created(created: Optional[float]) -> str:
    if created is None:
        return "-"
    import datetime

    stamp = datetime.datetime.fromtimestamp(
        created, tz=datetime.timezone.utc
    )
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _cmd_store_add(args: argparse.Namespace) -> int:
    from .store import RunRecord, git_revision, snapshot_documents

    snapshots = snapshot_documents(args.snapshot)
    config: dict = {}
    for item in args.config or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--config expects KEY=VALUE, got {item!r}"
            )
        config[key] = value
    git_rev = args.git_rev if args.git_rev is not None else git_revision()
    fingerprint = None
    if args.manifest:
        from .store import manifest_sha

        fingerprint = manifest_sha(args.manifest)
    label = args.label
    if not label:
        # Default label: the snapshot file stem (figure6.json -> figure6).
        from pathlib import Path as _Path

        label = _Path(args.snapshot).stem
    record = RunRecord(
        label=label,
        snapshots=snapshots,
        config=config,
        git_rev=git_rev,
        manifest_sha=fingerprint,
        notes=args.notes,
    )
    store = _open_store(args)
    entry = store.add(record)
    print(
        f"added {entry.id} label={entry.label} "
        f"snapshots={','.join(entry.snapshots) or '-'} "
        f"metrics={entry.metrics} -> {store.root}"
    )
    return 0


def _cmd_store_list(args: argparse.Namespace) -> int:
    store = _open_store(args)
    entries = store.last(args.last, args.label)
    if args.json:
        document = {
            "kind": "repro.obs.store.index",
            "root": str(store.root),
            "entries": [entry.to_index_entry() for entry in entries],
        }
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if not entries:
        print(f"store {store.root}: no records")
        return 0
    for entry in entries:
        rev = (entry.git_rev or "-")[:12]
        print(
            f"#{entry.seq}  {entry.id}  {_format_created(entry.created)}  "
            f"{rev:<12}  {entry.label}  "
            f"[{','.join(entry.snapshots) or '-'}] {entry.metrics} metrics"
        )
    print(f"{len(entries)} record(s) in {store.root}")
    return 0


def _cmd_store_show(args: argparse.Namespace) -> int:
    store = _open_store(args)
    record = store.load(args.id)
    if args.json:
        json.dump(record.to_record(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"record {record.id}")
    print(f"  label:    {record.label}")
    print(f"  git rev:  {record.git_rev or '-'}")
    print(f"  manifest: {record.manifest_sha or '-'}")
    if record.notes:
        print(f"  notes:    {record.notes}")
    for key in sorted(record.config):
        print(f"  config.{key}: {record.config[key]}")
    if record.capsule:
        for key in sorted(record.capsule):
            print(f"  capsule.{key}: {record.capsule[key]}")
    from ..metrics.registry import MetricsSnapshot

    for member in sorted(record.snapshots):
        snapshot = MetricsSnapshot.from_dict(record.snapshots[member])
        title = member or snapshot.label or "(unlabelled)"
        print(f"  snapshot {title}:")
        for name, value in snapshot.scalar_items():
            print(f"    {name} = {value:g}")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args)
    removed = store.gc(args.keep, args.label)
    scope = f" label={args.label}" if args.label else ""
    print(
        f"gc{scope}: kept last {args.keep} per label, "
        f"removed {len(removed)} record(s)"
        + (f" ({', '.join(removed)})" if removed else "")
    )
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from ..github import workflow_command
    from .trend import (
        analyse_store,
        gate,
        render_trend_html,
        render_trend_markdown,
        render_trend_text,
        trends_to_document,
    )

    store = _open_store(args)
    entries, trends = analyse_store(
        store,
        args.pattern,
        label=args.label,
        last=args.last,
        window=args.window,
        threshold=args.threshold,
    )
    title = args.label or "all labels"
    if not entries:
        print(f"store {store.root}: no records for {title}")
        return 0
    fmt = args.format
    if fmt == "json":
        rendered = json.dumps(
            trends_to_document(trends, title), indent=2, sort_keys=True
        ) + "\n"
    elif fmt == "markdown":
        rendered = render_trend_markdown(trends, title) + "\n"
    elif fmt == "html":
        rendered = render_trend_html(trends, title)
    else:  # text and github both render the text table
        rendered = render_trend_text(trends, title) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output} ({len(trends)} metric(s))")
    else:
        sys.stdout.write(rendered)
    if args.threshold is None:
        return 0
    failing = gate(trends, strict_new=args.strict_new)
    if not failing:
        print(
            f"ok: {len(trends)} metric(s) within {args.threshold:g}% of "
            f"their rolling medians"
        )
        return 0
    if fmt == "github":
        for trend in failing:
            where = (
                f" since run #{trend.points[trend.changepoint].seq}"
                if trend.changepoint is not None
                else ""
            )
            print(
                workflow_command(
                    "error",
                    f"{trend.metric} {trend.verdict}"
                    f"{where} (last={trend.last_value} "
                    f"median={trend.baseline})",
                    title="perf trend",
                )
            )
    worst = failing[0]
    print(
        f"TREND: {len(failing)} metric(s) failed the {args.threshold:g}% "
        f"gate over the last {len(entries)} run(s) "
        f"(first: {worst.metric} [{worst.verdict}])"
    )
    return 1


def _cmd_watch(args: argparse.Namespace) -> int:
    from .watch import watch_manifest

    return watch_manifest(
        args.manifest,
        sys.stdout,
        follow=not args.no_follow,
        interval=args.interval,
        timeout=args.timeout,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize and convert repro trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="digest a JSONL trace")
    p_sum.add_argument("trace", help="JSONL trace file (runner --trace output)")
    p_sum.add_argument(
        "--json", action="store_true", help="emit the digest as JSON"
    )
    p_sum.set_defaults(func=_cmd_summarize)

    p_exp = sub.add_parser(
        "export", help="convert a JSONL trace to Chrome/Perfetto JSON"
    )
    p_exp.add_argument("trace", help="JSONL trace file (runner --trace output)")
    p_exp.add_argument(
        "-o", "--output", required=True, help="Chrome trace JSON output path"
    )
    p_exp.add_argument(
        "--indent", type=int, default=None, help="pretty-print indentation"
    )
    p_exp.set_defaults(func=_cmd_export)

    p_cat = sub.add_parser("catalog", help="list registered tracepoints")
    p_cat.set_defaults(func=_cmd_catalog)

    p_met = sub.add_parser("metrics", help="list the metric schema")
    p_met.set_defaults(func=_cmd_metrics)

    p_diff = sub.add_parser(
        "diff", help="compare two metrics snapshots (a regression gate)"
    )
    p_diff.add_argument(
        "before",
        help="baseline operand: snapshot JSON (append #label to pick "
        "one) or store:<record-id>[#member]",
    )
    p_diff.add_argument(
        "after",
        help="candidate operand: snapshot JSON (append #label to pick "
        "one) or store:<record-id>[#member]",
    )
    p_diff.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="ledger directory store: operands resolve against "
        "(default: $REPRO_STORE or .repro-store)",
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

    def add_store_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="ledger directory "
            "(default: $REPRO_STORE or .repro-store)",
        )

    p_store = sub.add_parser("store", help="manage the run ledger")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_add = store_sub.add_parser(
        "add", help="append a snapshot file as a run record"
    )
    p_add.add_argument(
        "snapshot", help="metrics snapshot JSON (--metrics-out output)"
    )
    p_add.add_argument(
        "--label",
        default="",
        help="record label (default: the snapshot file stem)",
    )
    p_add.add_argument(
        "--config",
        action="append",
        metavar="KEY=VALUE",
        help="config entry recorded with the run (repeatable)",
    )
    p_add.add_argument(
        "--git-rev",
        default=None,
        help="git revision to record (default: auto-detected)",
    )
    p_add.add_argument(
        "--manifest",
        default=None,
        help="run manifest JSONL; its fingerprint is recorded",
    )
    p_add.add_argument("--notes", default="", help="free-form notes")
    add_store_option(p_add)
    p_add.set_defaults(func=_cmd_store_add)

    p_list = store_sub.add_parser("list", help="list ledger records")
    p_list.add_argument(
        "--label", default=None, help="only records with this label"
    )
    p_list.add_argument(
        "--last",
        type=int,
        default=0,
        metavar="N",
        help="show only the newest N records (0 = all)",
    )
    p_list.add_argument(
        "--json", action="store_true", help="emit the index as JSON"
    )
    add_store_option(p_list)
    p_list.set_defaults(func=_cmd_store_list)

    p_show = store_sub.add_parser("show", help="show one ledger record")
    p_show.add_argument("id", help="record id (or unique prefix)")
    p_show.add_argument(
        "--json", action="store_true", help="emit the record as JSON"
    )
    add_store_option(p_show)
    p_show.set_defaults(func=_cmd_store_show)

    p_gc = store_sub.add_parser(
        "gc", help="keep the newest N records per label, drop the rest"
    )
    p_gc.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="records to keep per label",
    )
    p_gc.add_argument(
        "--label", default=None, help="only prune this label's history"
    )
    add_store_option(p_gc)
    p_gc.set_defaults(func=_cmd_store_gc)

    p_trend = sub.add_parser(
        "trend",
        help="rolling-median perf trends over the run ledger",
    )
    p_trend.add_argument(
        "pattern",
        nargs="?",
        default="",
        help="metric glob, e.g. 'perf.*' (default: all metrics)",
    )
    p_trend.add_argument(
        "--label", default=None, help="ledger label to analyse"
    )
    p_trend.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="analyse the newest N records (default 10)",
    )
    p_trend.add_argument(
        "--window",
        type=int,
        default=5,
        metavar="N",
        help="rolling-median window (default 5)",
    )
    p_trend.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if the newest value deviates from its "
        "rolling median by more than PCT percent",
    )
    p_trend.add_argument(
        "--strict-new",
        action="store_true",
        help="with --threshold, also fail on appeared/removed metrics",
    )
    p_trend.add_argument(
        "--format",
        choices=("text", "json", "github", "markdown", "html"),
        default="text",
        help="output format; 'github' renders the text table plus one "
        "::error annotation per failing metric",
    )
    p_trend.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    add_store_option(p_trend)
    p_trend.set_defaults(func=_cmd_trend)

    p_watch = sub.add_parser(
        "watch", help="live terminal board over a run manifest"
    )
    p_watch.add_argument(
        "manifest", help="run manifest JSONL (runner --manifest output)"
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )
    p_watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop following after this many seconds",
    )
    p_watch.add_argument(
        "--no-follow",
        action="store_true",
        help="render the manifest as-is and exit (no tailing)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    args = parser.parse_args(argv)
    if getattr(args, "strict_new", False) and args.threshold is None:
        parser.error("--strict-new requires --threshold")
    try:
        return args.func(args)
    except (OSError, ValueError, ReproError) as exc:
        # Bad input exits 2, distinct from a --threshold regression (1).
        print(f"error: {exc}", file=sys.stderr)
        return 2
