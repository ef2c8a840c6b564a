"""Command-line experiment runner.

Regenerates any table or figure of the paper's evaluation from the shell:

    python -m repro.experiments.runner --experiment table1
    python -m repro.experiments.runner --experiment figure6 --seed 1
    python -m repro.experiments.runner --experiment all --json results.json

Each experiment prints the paper-style rendering; ``--json`` additionally
dumps the structured numbers for downstream processing.

``--jobs N`` fans the experiment x seed cells (``--seeds 0,1,2`` runs
each experiment once per seed) over N spawn-safe worker processes; the
parent merges results in submission order, so the report and every
output file stay byte-identical to ``--jobs 1``. See :mod:`repro.parallel`.

``--metrics-out PATH`` writes the experiment's measurements as a metrics
snapshot document (compare two with ``python -m repro.obs diff``);
``--profile`` turns on the cycle-attribution profiler so snapshots embed
attribution trees, and ``--flamegraph PATH`` dumps the run's folded
stacks for flamegraph.pl / speedscope (implies ``--profile``). Metrics,
profile and flamegraph require a single ``--experiment`` (not ``all``).

``--profile`` composes with ``--jobs N``: each worker profiles its own
cell and sends the tree back, and the parent sums the trees path by
path in submission order, so the flamegraph and metrics files are
byte-identical at any job count. A run whose worker dies exits 1
without writing any output file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Mapping, Tuple

from ..config import PlatformConfig
from ..metrics.collect import snapshot_outcome
from ..metrics.registry import REGISTRY, MetricsSnapshot, write_snapshots
from ..metrics.report import Table
from ..obs.profile import ProfileNode, merge_profile_trees, render_folded
from ..parallel import ExperimentCell, ParallelExecutionError, run_cells
from ..workloads.registry import table3_rows
from .baselines import render_baselines, run_baselines
from .figure5 import render_figure5, run_figure5
from .figure6 import render_figure6, run_figure6
from .figure7 import render_figure7, run_figure7
from .sec62 import render_sec62, run_adversarial_sec62, run_sec62
from .sec64 import render_sec64, run_sec64
from .sensitivity import render_sensitivity, sweep_dram_latency, sweep_llc
from .table1 import render_table1, run_table1
from .table4 import render_table4, run_table4

#: Wrapper signature: (platform, seed) -> (rendered text, JSON payload,
#: labelled metrics snapshots for --metrics-out).
ExperimentFn = Callable[
    [PlatformConfig, int], Tuple[str, dict, Dict[str, MetricsSnapshot]]
]


def _metric_token(name: str) -> str:
    """Benchmark names as metric-name components (stress-ng -> stress_ng)."""
    return name.replace("-", "_").replace(".", "_").lower()


def _gauge_snapshot(
    label: str, values: Mapping[str, float]
) -> MetricsSnapshot:
    """A snapshot of experiment-level gauges, registered on the fly."""
    snapshot = MetricsSnapshot(label)
    for name in sorted(values):
        REGISTRY.gauge(name)
        snapshot.set(name, values[name])
    return snapshot


# -------------------------------------------------------------------- #
# Result -> labelled snapshots. Shared by the CLI wrappers below and by
# the benchmark suite (REPRO_SNAPSHOT_DIR), so both emit identical JSON.
# -------------------------------------------------------------------- #

def table1_snapshots(result) -> Dict[str, MetricsSnapshot]:
    return {
        "standalone": snapshot_outcome("standalone", result.standalone),
        "colocated": snapshot_outcome("colocated", result.colocated),
    }


def table4_snapshots(result) -> Dict[str, MetricsSnapshot]:
    comparison = result.comparison
    return {
        "default": snapshot_outcome("default", comparison.default),
        "ptemagnet": snapshot_outcome("ptemagnet", comparison.ptemagnet),
    }


def figure5_snapshots(result) -> Dict[str, MetricsSnapshot]:
    gauges = {}
    for name, (before, after) in result.fragmentation.items():
        token = _metric_token(name)
        gauges[f"figure5.{token}.default"] = before
        gauges[f"figure5.{token}.ptemagnet"] = after
    return {"figure5": _gauge_snapshot("figure5", gauges)}


def figure6_snapshots(result) -> Dict[str, MetricsSnapshot]:
    gauges = {
        f"figure6.improvement.{_metric_token(name)}": value
        for name, value in result.improvements.items()
    }
    gauges.update(
        {
            f"figure6.low_pressure.{_metric_token(name)}": value
            for name, value in result.low_pressure.items()
        }
    )
    gauges["figure6.geomean"] = result.geomean
    return {"figure6": _gauge_snapshot("figure6", gauges)}


def figure7_snapshots(result) -> Dict[str, MetricsSnapshot]:
    gauges = {
        f"figure7.improvement.{_metric_token(name)}": value
        for name, value in result.improvements.items()
    }
    gauges["figure7.geomean"] = result.geomean
    return {"figure7": _gauge_snapshot("figure7", gauges)}


def sec62_snapshots(result, adversarial) -> Dict[str, MetricsSnapshot]:
    gauges = {
        f"sec62.peak.{_metric_token(name)}": value
        for name, value in result.peaks().items()
    }
    gauges["sec62.adversarial_ratio"] = adversarial
    return {"sec62": _gauge_snapshot("sec62", gauges)}


def sec64_snapshots(result) -> Dict[str, MetricsSnapshot]:
    gauges = {
        "sec64.default_cycles": result.default_cycles,
        "sec64.ptemagnet_cycles": result.ptemagnet_cycles,
        "sec64.change_percent": result.change_percent,
    }
    return {"sec64": _gauge_snapshot("sec64", gauges)}


def sensitivity_snapshots(llc, dram) -> Dict[str, MetricsSnapshot]:
    gauges = {}
    for size_kb, (improvement, hpt_mem) in llc.points.items():
        gauges[f"sensitivity.llc_{size_kb}kb.improvement"] = improvement
        gauges[f"sensitivity.llc_{size_kb}kb.hpt_memory_accesses"] = hpt_mem
    for latency, (improvement, hpt_mem) in dram.points.items():
        gauges[f"sensitivity.dram_{latency}c.improvement"] = improvement
        gauges[f"sensitivity.dram_{latency}c.hpt_memory_accesses"] = hpt_mem
    return {"sensitivity": _gauge_snapshot("sensitivity", gauges)}


def baselines_snapshots(result) -> Dict[str, MetricsSnapshot]:
    gauges = {}
    for mode, row in result.rows.items():
        token = _metric_token(mode)
        gauges[f"baselines.{token}.cycles"] = row.cycles
        gauges[f"baselines.{token}.walk_cycles"] = row.walk_cycles
        gauges[f"baselines.{token}.host_pt_fragmentation"] = (
            row.host_pt_fragmentation
        )
        gauges[f"baselines.{token}.improvement_percent"] = (
            result.improvement_over_default(mode)
        )
    return {"baselines": _gauge_snapshot("baselines", gauges)}


def _run_table1(platform, seed):
    result = run_table1(platform, seed)
    payload = {name: change for name, change in result.rows()}
    before, after = result.fragmentation_before_after
    payload["fragmentation_before"] = before
    payload["fragmentation_after"] = after
    return render_table1(result), payload, table1_snapshots(result)


def _run_table2(platform, seed):
    table = Table(["Parameter", "Value"], title="Table 2: simulated platform")
    rows = platform.table2_rows()
    for name, value in rows:
        table.add_row(name, value)
    return table.render(), dict(rows), {}


def _run_table3(platform, seed):
    table = Table(
        ["Role", "Name", "Description"],
        title="Table 3: evaluated benchmarks and co-runners",
    )
    rows = table3_rows()
    for role, name, description in rows:
        table.add_row(role, name, description)
    payload = {name: {"role": role, "description": desc} for role, name, desc in rows}
    return table.render(), payload, {}


def _run_table4(platform, seed):
    result = run_table4(platform, seed)
    payload = {name: change for name, change in result.rows()}
    return render_table4(result), payload, table4_snapshots(result)


def _run_figure5(platform, seed):
    result = run_figure5(platform, seed=seed)
    payload = {
        name: {"default": before, "ptemagnet": after}
        for name, (before, after) in result.fragmentation.items()
    }
    return render_figure5(result), payload, figure5_snapshots(result)


def _run_figure6(platform, seed):
    result = run_figure6(platform, seed=seed)
    payload = {
        "improvements": result.improvements,
        "low_pressure": result.low_pressure,
        "geomean": result.geomean,
    }
    return render_figure6(result), payload, figure6_snapshots(result)


def _run_figure7(platform, seed):
    result = run_figure7(platform, seed=seed)
    payload = {
        "improvements": result.improvements,
        "geomean": result.geomean,
    }
    return render_figure7(result), payload, figure7_snapshots(result)


def _run_sec62(platform, seed):
    result = run_sec62(platform, seed=seed)
    adversarial = run_adversarial_sec62(platform, seed=seed)
    payload = {
        "peaks_percent": result.peaks(),
        "adversarial_ratio": adversarial,
    }
    return (
        render_sec62(result, adversarial),
        payload,
        sec62_snapshots(result, adversarial),
    )


def _run_sec64(platform, seed):
    result = run_sec64(platform, seed=seed)
    payload = {
        "default_cycles": result.default_cycles,
        "ptemagnet_cycles": result.ptemagnet_cycles,
        "change_percent": result.change_percent,
    }
    return render_sec64(result), payload, sec64_snapshots(result)


def _run_sensitivity(platform, seed):
    llc = sweep_llc(platform, seed=seed)
    dram = sweep_dram_latency(platform, seed=seed)
    payload = {
        "llc_kb": {
            str(value): {
                "improvement_percent": improvement,
                "hpt_memory_accesses": hpt_mem,
            }
            for value, (improvement, hpt_mem) in llc.points.items()
        },
        "dram_latency_cycles": {
            str(value): {
                "improvement_percent": improvement,
                "hpt_memory_accesses": hpt_mem,
            }
            for value, (improvement, hpt_mem) in dram.points.items()
        },
    }
    text = render_sensitivity(llc) + "\n\n" + render_sensitivity(dram)
    return text, payload, sensitivity_snapshots(llc, dram)


def _run_baselines(platform, seed):
    result = run_baselines(platform, "pagerank", seed)
    payload = {
        mode: {
            "cycles": row.cycles,
            "walk_cycles": row.walk_cycles,
            "host_pt_fragmentation": row.host_pt_fragmentation,
            "improvement_percent": result.improvement_over_default(mode),
        }
        for mode, row in result.rows.items()
    }
    return render_baselines(result), payload, baselines_snapshots(result)


EXPERIMENTS: Dict[str, ExperimentFn] = {
    "baselines": _run_baselines,
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "figure5": _run_figure5,
    "figure6": _run_figure6,
    "figure7": _run_figure7,
    "sec62": _run_sec62,
    "sec64": _run_sec64,
    "sensitivity": _run_sensitivity,
}


def _output_path_error(path: str) -> "str | None":
    """Why ``path`` cannot be written, or None when it can.

    The upfront counterpart of ``open(path, "w")``: checked before the
    simulation starts so ``--metrics-out /bad/dir/out.json`` fails in
    milliseconds, not after a full figure6 run.
    """
    import os

    if os.path.isdir(path):
        return f"{path} is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"directory {parent} does not exist"
    if not os.access(parent, os.W_OK):
        return f"directory {parent} is not writable"
    if os.path.exists(path) and not os.access(path, os.W_OK):
        return f"{path} is not writable"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        default="all",
        help="which experiment to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        metavar="CSV",
        help='comma-separated seed list (e.g. "0,1,2"); each experiment '
        "runs once per seed; overrides --seed",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiment cells in N worker processes (results are "
        "merged in submission order, so output files are byte-identical "
        "to --jobs 1)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write structured results as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the experiment's metrics snapshot(s) as JSON to PATH "
        "(compare runs with: python -m repro.obs diff)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the cycle-attribution profiler (snapshots embed "
        "attribution trees)",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="write the run's folded stacks to PATH (implies --profile; "
        "render with flamegraph.pl or speedscope)",
    )
    args = parser.parse_args(argv)
    if args.flamegraph and not args.profile:
        # Historically this silently wrote an empty tree; profiling is
        # what --flamegraph is for, so switch it on.
        print(
            "note: --flamegraph implies --profile; enabling the profiler",
            file=sys.stderr,
        )
        args.profile = True
    if (
        args.metrics_out or args.profile or args.flamegraph
    ) and args.experiment == "all":
        parser.error(
            "--metrics-out/--profile/--flamegraph need a single --experiment"
        )
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # Fail fast on unwritable output targets: a full run must never be
    # thrown away because its destination turns out to be unwritable
    # after the simulation finished.
    for option, path in (
        ("--metrics-out", args.metrics_out),
        ("--json", args.json),
        ("--flamegraph", args.flamegraph),
    ):
        error = _output_path_error(path) if path else None
        if error is not None:
            print(f"error: {option}: {error}", file=sys.stderr)
            return 2
    if args.seeds is not None:
        try:
            seeds = [
                int(token)
                for token in args.seeds.split(",")
                if token.strip()
            ]
        except ValueError:
            parser.error("--seeds must be a comma-separated integer list")
        if not seeds:
            parser.error("--seeds must name at least one seed")
        if len(set(seeds)) != len(seeds):
            parser.error("--seeds must not repeat a seed")
    else:
        seeds = [args.seed]

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    multi_seed = len(seeds) > 1
    cells = [
        ExperimentCell(name, seed) for name in names for seed in seeds
    ]
    payloads = {}
    snapshots: Dict[str, MetricsSnapshot] = {}
    # Each cell's profile tree, in submission order, for the merge.
    trees = []
    try:
        # Both --jobs 1 and --jobs N flow through the same cell and merge
        # code (results arrive in submission order either way), so the
        # printed report and every output file are byte-identical.
        for result in run_cells(cells, args.jobs, profile=args.profile):
            name = result.cell.experiment
            seed = result.cell.seed
            print(result.text)
            if multi_seed:
                print(f"[{name} seed={seed}: {result.elapsed_seconds:.1f}s]\n")
                payloads.setdefault(name, {})[f"seed{seed}"] = result.payload
            else:
                print(f"[{name}: {result.elapsed_seconds:.1f}s]\n")
                payloads[name] = result.payload
            for label, doc in sorted(result.snapshot_docs.items()):
                snapshot = MetricsSnapshot.from_dict(doc)
                if multi_seed:
                    snapshot.label = f"{label}.seed{seed}"
                snapshots[snapshot.label] = snapshot
            if result.profile is not None:
                trees.append(ProfileNode.from_dict("root", result.profile))
    except ParallelExecutionError as exc:
        # A run that lost a cell writes no output file at all.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    profile = merge_profile_trees(trees) if trees else None
    if profile is not None:
        # Embed the merged attribution tree into the experiment's own
        # snapshots so --metrics-out files carry it (and obs diff's
        # profile ranking can load it from them).
        for label in sorted(snapshots):
            if snapshots[label].profile is None:
                snapshots[label].profile = profile
    if args.metrics_out:
        if snapshots:
            write_snapshots(args.metrics_out, snapshots)
            labels = ", ".join(sorted(snapshots))
            print(
                f"wrote {args.metrics_out} (snapshots: {labels}; compare "
                "with: python -m repro.obs diff)"
            )
        else:
            print(
                f"{args.experiment} produces no metrics snapshot; "
                f"skipped {args.metrics_out}"
            )
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            folded = render_folded(profile)
            handle.write(folded + ("\n" if folded else ""))
        print(
            f"wrote {args.flamegraph} (render with flamegraph.pl or "
            "https://speedscope.app)"
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payloads, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
