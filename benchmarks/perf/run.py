"""Host-time benchmark of the simulator on four paper-derived workloads.

Run from the repository root::

    python benchmarks/perf/run.py --seed 0                 # all workloads
    python benchmarks/perf/run.py --seed 0 --repeats 3     # medians, quartiles
    python benchmarks/perf/run.py --seed 0 --trace         # + per-layer split
    python benchmarks/perf/run.py --workload tlb-resident --seed 7 \\
        --seconds 5 --trace 0                              # one workload
    python benchmarks/perf/run.py --record-golden          # rewrite golden.json

Every workload body runs in its own fresh child process, one at a time,
single-threaded, with the engine-mode and output environment variables
stripped. The parent times process start-up separately (``setup_s``,
median of :data:`SETUP_PROBES` probes). Each run checks every modelled
output ("cell") against ``golden.json`` when the seed has an entry there,
and against the workload's invariants always; a mismatch or exception
fails that cell and the remaining cells still run.

``--trace`` adds, per workload, a traced child after the untraced ones:
the wrappers of :mod:`layers` time each simulator layer from outside.
The traced digests must equal the untraced ones, and the layer self
times plus ``experiments.other`` must sum to the traced wall time.

Output: a human table, optionally a JSON document (``--json``), a metrics
snapshot comparable with ``python -m repro.obs diff`` (``--metrics-out``),
``layers.json`` for traced runs, and as the last line of standard output
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. Metric
names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_LAYERS_PATH = BENCH_DIR / "out" / "layers.json"

#: Seeds whose digests ``--record-golden`` writes.
GOLDEN_SEEDS = range(5)
#: Process start-up probes per workload; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Engine-mode and output switches a child must not inherit: the
#: benchmark measures the default engine and writes nothing outside
#: its checkout.
STRIPPED_ENV = (
    "REPRO_NO_BATCH",
    "REPRO_NO_FASTPATH",
    "REPRO_INVARIANTS",
    "REPRO_SANITIZE",
    "REPRO_STORE",
    "REPRO_SNAPSHOT_DIR",
)
#: Upper bound on one child; a hung child is killed, never waited on
#: forever.
CHILD_TIMEOUT_S = 900
#: Allowed gap between traced wall and (self times + experiments.other).
SELF_SUM_TOLERANCE = 0.01


# ---------------------------------------------------------------------- #
# Child side: one workload body in a fresh process.
# ---------------------------------------------------------------------- #


def digest(doc) -> str:
    """sha256 of a document's canonical JSON."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class SimulationLog:
    """Records every ``Simulation`` built while installed.

    One wrapper on ``Simulation.__init__``: one extra call per
    simulation, so it stays on in untraced runs.
    """

    def __init__(self) -> None:
        from repro.sim.engine import Simulation

        self._cls = Simulation
        self._original = vars(Simulation)["__init__"]
        self.simulations: List[object] = []

    def __enter__(self) -> "SimulationLog":
        original = self._original
        simulations = self.simulations

        def __init__(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            simulations.append(sim)

        __init__.__wrapped__ = original
        self._cls.__init__ = __init__
        return self

    def __exit__(self, *exc_info) -> None:
        self._cls.__init__ = self._original

    def drain(self) -> Dict[str, int]:
        """Counts over the simulations built so far, then forget them."""
        stats = dict.fromkeys(
            ("ops", "faults", "reservation_hit_faults", "tlb_misses", "accesses"),
            0,
        )
        for sim in self.simulations:
            stats["faults"] += sim.kernel.stats.faults
            stats["reservation_hit_faults"] += (
                sim.kernel.stats.reservation_hit_faults
            )
            for run in sim.runs:
                stats["ops"] += run.ops_executed
                stats["tlb_misses"] += run.counters.tlb_misses
                stats["accesses"] += run.counters.accesses
        self.simulations.clear()
        return stats


def run_body(workload, seed: int, golden: Optional[Dict[str, str]], trace: bool) -> dict:
    """Run every unit of ``workload`` and judge every cell it produces.

    ``golden`` maps cell label to digest (``None``: seed not recorded).
    With ``trace`` the layer wrappers are installed before the first
    ``Simulation`` exists and removed afterwards.
    """
    from layers import OTHER, LayerTracer

    tracer = LayerTracer() if trace else None
    cells: Dict[str, dict] = {}
    spans = []
    stats: Dict[str, int] = {}
    wall = 0.0
    with SimulationLog() as log, tracer or contextlib.nullcontext():
        for unit in workload.units(seed):
            before = tracer.totals() if tracer is not None else {}
            unit_start = time.perf_counter()
            try:
                docs = unit.run()
                error = None
            except Exception:  # one failed unit must not stop the rest
                docs = {}
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            duration = time.perf_counter() - unit_start
            for key, value in log.drain().items():
                stats[key] = stats.get(key, 0) + value
            for label in unit.cells:
                cells[label] = judge(workload, label, docs.get(label), error, golden)
            span = {
                "unit": unit.label,
                "cells": list(unit.cells),
                "start_s": wall,
                "duration_s": duration,
            }
            if tracer is not None:
                after = tracer.totals()
                span["self_s"] = {
                    layer: after[layer][0] - before[layer][0]
                    for layer in after
                }
            spans.append(span)
            wall += duration
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": stats,
        "cells": cells,
        "spans": spans,
    }
    if tracer is not None:
        totals = {layer: list(value) for layer, value in tracer.totals().items()}
        totals[OTHER] = [wall - tracer.root_s, len(spans)]
        result["layers"] = totals
        result["tree"] = tracer.tree()
    return result


def judge(workload, label: str, doc, error, golden) -> dict:
    """One cell's verdict: digest, golden match and invariant problems."""
    if doc is None:
        return {"ok": False, "digest": None, "problems": [error or "cell missing"]}
    cell_digest = digest(doc)
    problems = list(workload.check(label, doc))
    if golden is not None:
        expected = golden.get(label)
        if expected != cell_digest:
            problems.append(f"digest {cell_digest[:12]} != golden {str(expected)[:12]}")
    return {"ok": not problems, "digest": cell_digest, "problems": problems}


def load_golden() -> Dict[str, Dict[str, Dict[str, str]]]:
    """seed -> workload -> cell -> digest."""
    if not GOLDEN_PATH.exists():
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["seeds"]


def child_main(name: str, seed: int, trace: bool, probe: bool) -> int:
    from repro.config import PlatformConfig
    from workloads import WORKLOADS

    PlatformConfig()
    if probe:
        print("ready", flush=True)
        return 0
    golden = load_golden().get(str(seed), {}).get(name)
    print(json.dumps(run_body(WORKLOADS[name], seed, golden, trace)))
    return 0


# ---------------------------------------------------------------------- #
# Parent side: spawn, probe, aggregate.
# ---------------------------------------------------------------------- #


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def child_command(*args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / "run.py"), *args]


def probe_setup() -> float:
    """Seconds from spawning a child until it is ready to run a body."""
    started = time.perf_counter()
    with subprocess.Popen(
        child_command("--probe"),
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return ready - started


def spawn_body(name: str, seed: int, trace: bool) -> Optional[dict]:
    """Run one body in a fresh child; ``None`` if the child failed."""
    args = ["--child", name, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    try:
        proc = subprocess.run(
            child_command(*args),
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(name: str, seed: int, repeats: int, seconds: float, trace: bool) -> dict:
    """All runs of one workload: probes, untraced bodies, traced bodies.

    At least ``repeats`` untraced children run, and more while another
    one of the last one's length still fits in ``seconds``.
    """
    setup = [probe_setup() for _ in range(SETUP_PROBES)]
    untraced: List[dict] = []
    started = time.perf_counter()
    last = 0.0
    while len(untraced) < repeats or time.perf_counter() - started + last <= seconds:
        child_start = time.perf_counter()
        body = spawn_body(name, seed, trace=False)
        if body is None:
            return {"name": name, "failed_child": True}
        untraced.append(body)
        last = time.perf_counter() - child_start
    traced = []
    for _ in untraced if trace else ():
        body = spawn_body(name, seed, trace=True)
        if body is None:
            return {"name": name, "failed_child": True}
        traced.append(body)
    return {
        "name": name,
        "setup": setup,
        "untraced": untraced,
        "traced": traced,
    }


def verdicts(report: dict) -> Dict[str, object]:
    """Cell counts and every problem found in a workload's runs."""
    problems: List[str] = []
    reference = report["untraced"][0]["cells"]
    attempted = failed = 0
    for body in report["untraced"] + report["traced"]:
        kind = "traced" if body["trace"] else "untraced"
        for label, cell in sorted(body["cells"].items()):
            attempted += 1
            bad = list(cell["problems"])
            if body["trace"] and cell["digest"] != reference[label]["digest"]:
                bad.append("traced digest differs from untraced")
            if bad:
                failed += 1
                problems.extend(f"{kind} {label}: {p}" for p in bad)
    for body in report["traced"]:
        layers = body["layers"]
        accounted = sum(self_s for self_s, _calls in layers.values())
        if abs(accounted - body["wall_s"]) > SELF_SUM_TOLERANCE * body["wall_s"]:
            problems.append(
                f"layer self times sum to {accounted:.3f}s, traced wall "
                f"{body['wall_s']:.3f}s"
            )
        if layers["experiments.other"][0] < 0:
            problems.append("spans cover more than the traced wall time")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_values(report: dict) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric (one per child or probe)."""
    bodies = report["untraced"]
    return {
        "wall_s": [b["wall_s"] for b in bodies],
        "sim_ops_per_s": [b["stats"]["ops"] / b["wall_s"] for b in bodies],
        "peak_rss_mb": [b["peak_rss_kb"] / 1024 for b in bodies],
        "setup_s": list(report["setup"]),
    }


def per_layer_values(report: dict) -> Dict[str, List[float]]:
    """Samples of every per-layer metric (one per traced child)."""
    untraced_wall = statistics.median(b["wall_s"] for b in report["untraced"])
    values: Dict[str, List[float]] = {}
    for body in report["traced"]:
        wall = body["wall_s"]
        for layer, (self_s, calls) in body["layers"].items():
            values.setdefault(f"{layer}.self_s", []).append(self_s)
            values.setdefault(f"{layer}.share", []).append(self_s / wall)
            values.setdefault(f"{layer}.calls", []).append(calls)
        stats = body["stats"]
        derived = {
            "sim.ops_per_step": _ratio(stats["ops"], body["layers"]["sim.step"][1]),
            "core.reservation_hit_ratio": _ratio(
                stats["reservation_hit_faults"], stats["faults"]
            ),
            "tlb.miss_ratio": _ratio(stats["tlb_misses"], stats["accesses"]),
            "trace_overhead_pct": (wall / untraced_wall - 1.0) * 100.0,
        }
        for name, value in derived.items():
            values.setdefault(name, []).append(value)
    return values


def summarize(samples: List[float]) -> Dict[str, float]:
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples)}


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_rows(report: dict, spec: dict, trace: bool) -> List[dict]:
    """Every metric of one workload with its declaration and summary."""
    groups = [("end_to_end", end_to_end_values(report))]
    if trace:
        groups.append(("per_layer", per_layer_values(report)))
    rows = []
    for group, values in groups:
        declared = {m["name"]: m for m in spec[group]}
        if set(declared) != set(values):
            raise RuntimeError(
                f"{group} metrics {sorted(values)} do not match "
                f"BENCHMARK.json {sorted(declared)}"
            )
        for name, meta in declared.items():
            rows.append(
                {
                    "name": name,
                    "group": group,
                    "unit": meta["unit"],
                    "better": meta["better"],
                    "bound": meta.get("bound"),
                    **summarize(values[name]),
                }
            )
    return rows


def render_table(reports: List[dict]) -> str:
    lines = []
    for report in reports:
        lines.append(
            f"== {report['name']} (golden: {report['golden']}, "
            f"error_rate {report['error_rate']:.3f} = "
            f"{report['failed']}/{report['attempted']} cells)"
        )
        for row in report["metrics"]:
            bound = "" if row["bound"] is None else f"  bound {row['bound']:.0%}"
            lines.append(
                f"  {row['name']:<34} {row['value']:>14.6g} {row['unit']:<9} "
                f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}] "
                f"{row['better']} is better{bound}"
            )
        for problem in report["problems"]:
            lines.append(f"  FAIL {problem}")
    return "\n".join(lines)


def environment() -> Dict[str, object]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=10,
            check=False,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def write_snapshot(path: str, reports: List[dict]) -> None:
    """The numbers as one metrics snapshot, for ``python -m repro.obs diff``."""
    sys.path.insert(0, str(SRC))
    from repro.metrics.registry import MetricsRegistry, MetricsSnapshot, write_snapshots

    snapshot = MetricsSnapshot("perfbench", registry=MetricsRegistry())
    for report in reports:
        token = report["name"].replace("-", "_")
        for row in report["metrics"]:
            name = f"perfbench.{token}.{row['name']}"
            snapshot.registry.gauge(name, unit=row["unit"])
            snapshot.set(name, row["value"])
    write_snapshots(path, {snapshot.label: snapshot})


def write_layers(path: Path, reports: List[dict]) -> None:
    document = {
        report["name"]: [
            {
                "seed": body["seed"],
                "wall_s": body["wall_s"],
                "layers": body["layers"],
                "tree": body["tree"],
                "spans": body["spans"],
            }
            for body in report["traced"]
        ]
        for report in reports
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record_golden(names: List[str]) -> int:
    """Rewrite the golden digests of ``names``, keeping the others."""
    document = {"seeds": load_golden()}
    for seed in GOLDEN_SEEDS:
        for name in names:
            body = spawn_body(name, seed, trace=False)
            if body is None:
                return 1
            cells = body["cells"]
            bad = [label for label, cell in cells.items() if cell["digest"] is None]
            if bad:
                print(f"error: {name} seed {seed}: no output for {bad}", file=sys.stderr)
                return 1
            document["seeds"].setdefault(str(seed), {})[name] = {
                label: cells[label]["digest"] for label in sorted(cells)
            }
            print(f"recorded {name} seed {seed}", flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/run.py",
        description="Host-time benchmark on four paper-derived workloads.",
    )
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=1, help="fresh children per workload"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="start another child while one more still fits in this time",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also run traced children and report per-layer metrics",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON document")
    parser.add_argument(
        "--metrics-out", metavar="PATH", help="write a metrics snapshot"
    )
    parser.add_argument(
        "--layers",
        metavar="PATH",
        default=str(DEFAULT_LAYERS_PATH),
        help="where a traced run writes its layer tree and spans",
    )
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help=f"rewrite golden.json for seeds {GOLDEN_SEEDS.start}-"
        f"{GOLDEN_SEEDS.stop - 1}",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child or args.probe:
        return child_main(args.child, args.seed, bool(args.trace), args.probe)
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"error: {SRC / 'repro'} and {SPEC_PATH} are required; run from "
            "a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    if args.record_golden:
        return record_golden(selected)

    trace = bool(args.trace)
    golden = load_golden().get(str(args.seed), {})
    reports = []
    for name in selected:
        report = measure(name, args.seed, args.repeats, args.seconds, trace)
        if report.get("failed_child"):
            print(f"error: {name}: a child failed; no result", file=sys.stderr)
            return 1
        report.update(verdicts(report))
        report["error_rate"] = report["failed"] / report["attempted"]
        report["golden"] = "verified" if name in golden else "unverified"
        report["metrics"] = metric_rows(report, spec, trace)
        reports.append(report)

    print(render_table(reports))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and not any(r["problems"] for r in reports)
    if args.json:
        document = {
            "benchmark": "benchmarks/perf",
            "seed": args.seed,
            "trace": trace,
            **environment(),
            "correct": correct,
            "workloads": {
                r["name"]: {
                    "golden": r["golden"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "error_rate": r["error_rate"],
                    "problems": r["problems"],
                    "metrics": [
                        {
                            "name": row["name"],
                            "unit": row["unit"],
                            "direction": row["better"],
                            "bound": row["bound"],
                            "value": row["value"],
                            "q1": row["q1"],
                            "q3": row["q3"],
                            "n": row["n"],
                        }
                        for row in r["metrics"]
                    ],
                }
                for r in reports
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.metrics_out:
        write_snapshot(args.metrics_out, reports)
    if trace:
        write_layers(Path(args.layers), reports)

    # The contract line: trace 0 reports the end-to-end metrics, trace 1
    # the per-layer ones; several workloads prefix names with theirs.
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['name']}."
        for row in report["metrics"]:
            if row["group"] == group:
                metrics[prefix + row["name"]] = {"value": row["value"], "unit": row["unit"]}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
