"""Tests for the experiment-runner CLI and the percentile helper."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.runner import EXPERIMENTS, main
from repro.metrics.counters import percentile
from repro.parallel import ParallelExecutionError, run_cells


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7], 0.99) == 7.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_tail(self):
        values = list(range(100))
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.0) == 0.0

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 0.5) == 3.0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestRunnerCli:
    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "baselines",
            "table1",
            "table2",
            "table3",
            "table4",
            "figure5",
            "figure6",
            "figure7",
            "sec62",
            "sec64",
            "sensitivity",
        }

    def test_table2_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--experiment", "table2", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Table 2" in printed
        payload = json.loads(out.read_text())
        assert "table2" in payload
        assert "Guest memory" in payload["table2"]

    def test_table3_payload_structure(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--experiment", "table3", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["table3"]["pagerank"]["role"] == "benchmark"
        assert payload["table3"]["objdet"]["role"] == "co-runner"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "bogus"])
        # Removed options are unknown, never silently ignored: there is
        # no progress renderer, run ledger, live board or run manifest.
        for flag in ("--progress", "--store", "--watch", "--manifest"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--experiment", "table2", flag])
            assert excinfo.value.code == 2

    def test_metrics_flags_require_single_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--metrics-out", str(tmp_path / "m.json")])
        # --flamegraph implies --profile, which still needs a single
        # experiment (the default is "all").
        with pytest.raises(SystemExit):
            main(["--flamegraph", str(tmp_path / "fg.folded")])

    def test_flamegraph_auto_enables_profile(self, tmp_path, capsys):
        """--flamegraph without --profile used to write an empty tree
        silently; it now switches the profiler on (with a stderr note)."""
        folded = tmp_path / "fg.folded"
        assert (
            main(
                ["--experiment", "table1", "--flamegraph", str(folded)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "--flamegraph implies --profile" in captured.err
        lines = folded.read_text().splitlines()
        assert lines, "auto-enabled profiler produced an empty flamegraph"
        assert any(line.startswith("walk;") for line in lines)

    def test_metrics_out_skips_snapshotless_experiments(
        self, tmp_path, capsys
    ):
        out = tmp_path / "m.json"
        assert (
            main(["--experiment", "table2", "--metrics-out", str(out)]) == 0
        )
        assert "produces no metrics snapshot" in capsys.readouterr().out
        assert not out.exists()

    def test_table1_metrics_profile_flamegraph_end_to_end(
        self, tmp_path, capsys
    ):
        from repro.metrics.registry import load_snapshot
        from repro.obs.cli import main as obs_main

        metrics = tmp_path / "table1.json"
        folded = tmp_path / "table1.folded"
        assert (
            main(
                [
                    "--experiment",
                    "table1",
                    "--seed",
                    "42",
                    "--metrics-out",
                    str(metrics),
                    "--profile",
                    "--flamegraph",
                    str(folded),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "snapshots: colocated, standalone" in printed

        colocated = load_snapshot(f"{metrics}#colocated")
        assert colocated.get("perf.walk_cycles") > 0
        assert colocated.profile is not None
        assert "walk" in colocated.profile.children

        # folded stacks: "path;to;leaf cycles" lines, walk paths present
        lines = folded.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        assert any(line.startswith("walk;hpt") for line in lines)

        # the snapshot family feeds straight into the diff CLI
        assert (
            obs_main(
                [
                    "diff",
                    f"{metrics}#standalone",
                    f"{metrics}#colocated",
                ]
            )
            == 0
        )
        assert "attribution (by |cycle delta|):" in capsys.readouterr().out

    def test_crashed_run_writes_no_output_file(
        self, tmp_path, monkeypatch, capsys
    ):
        def one_cell_then_crash(cells, jobs, **options):
            yield from run_cells(cells, jobs, profile=options["profile"])
            raise ParallelExecutionError(
                "worker process died while running table1[seed=1]"
            )

        monkeypatch.setattr(runner, "run_cells", one_cell_then_crash)
        out = tmp_path / "r.json"
        metrics = tmp_path / "m.json"
        folded = tmp_path / "f.folded"
        assert (
            main(
                [
                    "--experiment", "table1",
                    "--json", str(out),
                    "--metrics-out", str(metrics),
                    "--flamegraph", str(folded),
                ]
            )
            == 1
        )
        assert "error: worker process died" in capsys.readouterr().err
        assert not out.exists()
        assert not metrics.exists()
        assert not folded.exists()


class TestRunnerFailFast:
    """Unwritable output targets are rejected before any simulation."""

    @pytest.mark.parametrize(
        "option",
        ["--metrics-out", "--json", "--flamegraph"],
    )
    def test_unwritable_metrics_out_rejected_upfront(self, option, capsys):
        assert (
            main(
                [
                    "--experiment", "table2",
                    option, "/no/such/dir/out.json",
                ]
            )
            == 2
        )
        captured = capsys.readouterr()
        assert f"error: {option}:" in captured.err
        assert "does not exist" in captured.err
        # The run never started: no experiment banner was printed.
        assert "Table 2" not in captured.out

    def test_metrics_out_directory_rejected(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--experiment", "table2",
                    "--metrics-out", str(tmp_path),
                ]
            )
            == 2
        )
        assert "is a directory" in capsys.readouterr().err
