"""Tests for repro.parallel and the runner's --jobs/--seeds plumbing.

The contract under test: ``--jobs N`` must be invisible in the output --
every file a parallel run writes is byte-identical to the serial run,
results always merge in submission order, and a worker that dies raises
a clean :class:`~repro.parallel.ParallelExecutionError` instead of
hanging the parent.
"""

import json
import os
import re
import time
from functools import partial
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.runner import main
from repro.parallel import (
    CellResult,
    ExperimentCell,
    ParallelExecutionError,
    run_cells,
)


def _crash_worker(experiment, seed, profile=False):
    """A worker that dies without returning (picklable: module level)."""
    os._exit(13)


def _slow_first_worker(experiment, seed, profile=False):
    """Finishes out of submission order: cell with seed 0 is slowest."""
    time.sleep(0.3 if seed == 0 else 0.0)
    return f"text for seed {seed}", {"seed": seed}, {}, 0.0, None


def _failing_first_worker(marker_dir, experiment, seed, profile=False):
    """Cell 0 raises at once; every other cell sleeps 1 s, then leaves a
    marker file in ``marker_dir``."""
    if seed == 0:
        raise ValueError("cell 0 failed")
    time.sleep(1.0)
    Path(marker_dir, f"cell{seed}").touch()
    return f"text for seed {seed}", {}, {}, 0.0, None


def _profile_echo_worker(experiment, seed, profile=False):
    """Echoes the profile flag back inside its 'profile tree'."""
    tree = {"cycles": seed, "count": int(profile)} if profile else None
    return f"text {seed}", {}, {}, 0.0, tree


class TestRunCells:
    def test_cell_label(self):
        assert ExperimentCell("table1", 3).label == "table1[seed=3]"

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError):
            list(run_cells([], 0))

    def test_serial_runs_in_process(self):
        calls = []

        def worker(experiment, seed, profile=False):
            calls.append((experiment, seed, os.getpid()))
            return "text", {}, {}, 0.0, None

        cells = [ExperimentCell("a", 0), ExperimentCell("b", 1)]
        results = list(run_cells(cells, 1, worker=worker))
        assert [r.cell for r in results] == cells
        assert all(isinstance(r, CellResult) for r in results)
        assert [pid for _, _, pid in calls] == [os.getpid()] * 2

    def test_parallel_results_arrive_in_submission_order(self):
        cells = [ExperimentCell("x", seed) for seed in range(6)]
        results = list(run_cells(cells, 2, worker=_slow_first_worker))
        # Seeds 1-5 complete first, refilling the second worker while
        # seed 0 still runs, but seed 0 must still be yielded first.
        assert [r.cell.seed for r in results] == list(range(6))
        assert [r.payload["seed"] for r in results] == list(range(6))

    def test_worker_crash_raises_clean_error(self):
        cells = [ExperimentCell("table1", 0), ExperimentCell("table1", 1)]
        with pytest.raises(ParallelExecutionError, match=r"table1\[seed=0\]"):
            list(run_cells(cells, 2, worker=_crash_worker))

    def test_failing_cell_cancels_queued_cells(self, tmp_path):
        # Only the first jobs cells are ever submitted before cell 0's
        # failure arrives; after it, no further cell is submitted.
        jobs = 2
        cells = [ExperimentCell("x", seed) for seed in range(8)]
        worker = partial(_failing_first_worker, str(tmp_path))
        with pytest.raises(ValueError, match="cell 0 failed"):
            list(run_cells(cells, jobs, worker=worker))
        # Shutdown waits for running cells, so any cell that started has
        # left its marker by now.
        for seed in range(jobs, len(cells)):
            assert not (tmp_path / f"cell{seed}").exists()

    def test_spec_and_capsule_round_trip_parallel(self):
        """The profile flag reaches every worker, and each cell's tree
        comes back on its own result."""
        cells = [ExperimentCell("x", 0), ExperimentCell("x", 1)]
        results = list(
            run_cells(cells, 2, worker=_profile_echo_worker, profile=True)
        )
        assert [r.profile for r in results] == [
            {"cycles": 0, "count": 1},
            {"cycles": 1, "count": 1},
        ]
        unprofiled = run_cells(cells, 2, worker=_profile_echo_worker)
        assert [r.profile for r in unprofiled] == [None, None]


def _module_switches():
    """Every process-wide switch a cell could leave changed behind it."""
    from repro import invariants, sanitizer
    from repro.obs.profile import PROFILER

    return {
        sanitizer.ENV_FLAG: os.environ.get(sanitizer.ENV_FLAG),
        invariants.ENV_FLAG: os.environ.get(invariants.ENV_FLAG),
        "PROFILER.enabled": PROFILER.enabled,
        "PROFILER tree": PROFILER.to_dict(),
    }


class TestRunCellInProcess:
    def test_run_cell_leaves_module_switches_alone(self):
        """``--jobs 1`` runs every cell in the parent process, so a switch
        one cell flips would change every cell run after it."""
        from repro.obs.profile import PROFILER
        from repro.parallel import run_cell

        # Start with the profiler off and empty, whatever earlier
        # in-process runs left, so any switch a cell flips shows here.
        PROFILER.reset()
        before = _module_switches()
        _, _, docs, _, tree = run_cell("table1", 0, profile=True)
        # The cell simulated and sent back its profile tree.
        assert docs and "walk" in tree["children"]
        assert run_cell("table2", 0)[4] is None
        assert _module_switches() == before


def _strip_elapsed(text):
    """Normalize the wall-clock-dependent report lines."""
    return re.sub(r": \d+\.\d+s\]", ": Xs]", text)


class TestRunnerJobs:
    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--experiment", "table2", "--jobs", "0"])

    def test_jobs_composes_with_observability_flags(self, tmp_path):
        """--jobs N accepts --profile: validation must not reject it.
        table2 is snapshotless and fast, so this exercises the parallel
        profile path end to end."""
        folded = tmp_path / "t.folded"
        assert (
            main(
                [
                    "--experiment",
                    "table2",
                    "--jobs",
                    "2",
                    "--profile",
                    "--flamegraph",
                    str(folded),
                ]
            )
            == 0
        )
        assert folded.exists()

    def test_seeds_validation(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table2", "--seeds", "0,zero"])
        with pytest.raises(SystemExit):
            main(["--experiment", "table2", "--seeds", ","])
        with pytest.raises(SystemExit):
            main(["--experiment", "table2", "--seeds", "1,1"])

    def test_single_seed_output_shape_unchanged(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert main(["--experiment", "table2", "--json", str(json_path)]) == 0
        payloads = json.loads(json_path.read_text())
        # No seed nesting when only one seed runs (the pre---seeds shape).
        assert "Guest vCPUs" in payloads["table2"]
        out = capsys.readouterr().out
        assert "[table2: " in out
        assert "seed=" not in out

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path, capsys):
        outputs = {}
        for jobs in ("1", "4"):
            json_path = tmp_path / f"jobs{jobs}.json"
            metrics_path = tmp_path / f"jobs{jobs}-metrics.json"
            code = main(
                [
                    "--experiment",
                    "table1",
                    "--seeds",
                    "0,1",
                    "--jobs",
                    jobs,
                    "--json",
                    str(json_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            assert code == 0
            outputs[jobs] = (
                json_path.read_bytes(),
                metrics_path.read_bytes(),
                _strip_elapsed(capsys.readouterr().out),
            )
        # Byte-identical files (including metric ordering inside the
        # snapshot document) and an identical printed report.
        assert outputs["1"][0] == outputs["4"][0]
        assert outputs["1"][1] == outputs["4"][1]
        assert outputs["1"][2].replace("jobs1", "jobs4") == outputs["4"][2]

        metrics = json.loads(outputs["1"][1])
        labels = list(metrics["snapshots"])
        assert labels == [
            "colocated.seed0",
            "colocated.seed1",
            "standalone.seed0",
            "standalone.seed1",
        ]
        payloads = json.loads(outputs["1"][0])
        assert set(payloads["table1"]) == {"seed0", "seed1"}
