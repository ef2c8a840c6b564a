"""Checks on the benchmark harness itself (not on simulator speed).

Run from the repository root; takes well under a minute::

    python -m pytest benchmarks/perf -q
"""

import json
import re
import shutil
import subprocess
import sys

import run
from layers import LAYER_NAMES, LayerTracer, layer_classes
from workloads import Unit, Workload

from repro.config import PlatformConfig
from repro.experiments.common import OPS_PER_SLICE
from repro.experiments.figure5 import OBJDET_WEIGHT
from repro.metrics.collect import snapshot_simulation
from repro.sim.engine import Simulation
from repro.workloads.registry import make_corunner
from repro.workloads.spec import LowPressureSpec

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _spec():
    return run.load_spec()


def _tiny_colocation(seed, accesses=3000):
    """A small PTEMagnet colocation with objdet live at full fidelity,
    so walks, faults, frees and cache fills all happen."""
    sim = Simulation(PlatformConfig().with_ptemagnet(True))
    sim.scheduler.ops_per_slice = OPS_PER_SLICE
    corunner = sim.add_workload(make_corunner("objdet", seed), weight=OBJDET_WEIGHT)
    corunner.fast_forward = True
    for _ in range(200):
        sim.turn()
    corunner.fast_forward = False
    bench = sim.add_workload(LowPressureSpec("leela", seed, accesses=accesses))
    bench.start_measurement()
    sim.run_until_finished(bench)
    result = sim.result_for(bench)
    return snapshot_simulation("leela", sim, result).to_dict()


def _tiny_workload(raise_in_middle=False):
    def units(seed):
        listed = [
            Unit("a", ("a",), lambda: {"a": _tiny_colocation(seed)}),
            Unit("b", ("b",), lambda: {"b": _tiny_colocation(seed, 2000)}),
        ]
        if raise_in_middle:
            listed.insert(1, Unit("boom", ("boom",), lambda: 1 / 0))
        return listed

    return Workload("tiny", "harness test", units, lambda label, doc: [])


def _report(untraced, traced=()):
    return {
        "name": "tiny",
        "setup": [0.2, 0.3],
        "untraced": list(untraced),
        "traced": list(traced),
    }


def test_every_name_is_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(LAYER_NAMES)
    assert names and all(NAME_RE.match(name) for name in names)
    assert len(set(names) - set(LAYER_NAMES)) == len(names) - len(LAYER_NAMES)


def test_reported_metrics_equal_benchmark_json():
    spec = _spec()
    untraced = run.run_body(_tiny_workload(), 0, None, trace=False)
    traced = run.run_body(_tiny_workload(), 0, None, trace=True)
    rows = run.metric_rows(_report([untraced], [traced]), spec, trace=True)
    groups = {"end_to_end": set(), "per_layer": set()}
    for row in rows:
        groups[row["group"]].add(row["name"])
    for group, names in groups.items():
        assert names == {m["name"] for m in spec[group]}


def test_uninstall_restores_class_attributes():
    sites = [(owner, method) for _layer, owner, method in layer_classes()]
    sites.append((Simulation, "__init__"))
    before = {site: vars(site[0])[site[1]] for site in sites}
    with run.SimulationLog():
        with LayerTracer():
            during = {site: vars(site[0])[site[1]] for site in sites}
    after = {site: vars(site[0])[site[1]] for site in sites}
    assert all(during[site] is not before[site] for site in sites)
    assert all(after[site] is before[site] for site in sites)


def test_tracing_changes_no_modelled_output():
    untraced = run.run_body(_tiny_workload(), 3, None, trace=False)
    traced = run.run_body(_tiny_workload(), 3, None, trace=True)
    assert {k: c["digest"] for k, c in untraced["cells"].items()} == {
        k: c["digest"] for k, c in traced["cells"].items()
    }
    verdict = run.verdicts(_report([untraced], [traced]))
    assert verdict == {"attempted": 4, "failed": 0, "problems": []}
    calls = {layer: calls for layer, (_s, calls) in traced["layers"].items()}
    for layer in ("sim.turn", "sim.step", "tlb", "cache", "virt.walk", "os.fault", "os.munmap"):
        assert calls[layer] > 0, layer


def test_digest_mismatch_counts_and_run_continues():
    reference = run.run_body(_tiny_workload(), 0, None, trace=False)
    golden = {label: cell["digest"] for label, cell in reference["cells"].items()}
    golden["a"] = "0" * 64
    body = run.run_body(_tiny_workload(raise_in_middle=True), 0, golden, trace=False)
    assert [span["unit"] for span in body["spans"]] == ["a", "boom", "b"]
    assert not body["cells"]["a"]["ok"]
    assert "golden" in body["cells"]["a"]["problems"][0]
    assert "ZeroDivisionError" in body["cells"]["boom"]["problems"][0]
    assert body["cells"]["b"]["ok"]
    verdict = run.verdicts(_report([body]))
    assert (verdict["attempted"], verdict["failed"]) == (3, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH_DIR,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "tlb-resident",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_contract_line_of_a_real_workload():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         "tlb-resident", "--seed", "0", "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
