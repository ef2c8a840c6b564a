"""Observability across worker processes.

Covers the path-wise merge of the profile trees ``--jobs N`` workers
send back, the ``--format github`` perf-gate annotations, and the
headline contract: the runner's merged flamegraph and metrics files are
byte-identical at any job count and across repeated runs.
"""

from __future__ import annotations

import json

from repro.obs.cli import main as obs_main
from repro.obs.profile import ProfileNode, merge_profile_trees, render_folded
from repro.parallel import run_cell


class TestMergeProfiles:
    def test_path_wise_sum(self):
        left = ProfileNode("root")
        left.child("walk").child("hpt").cycles = 10
        left.child("walk").child("hpt").count = 2
        right = ProfileNode("root")
        right.child("walk").child("hpt").cycles = 5
        right.child("walk").child("hpt").count = 1
        right.child("fault").cycles = 7
        merged = merge_profile_trees([left, right])
        assert merged.children["walk"].children["hpt"].cycles == 15
        assert merged.children["walk"].children["hpt"].count == 3
        assert merged.children["fault"].cycles == 7
        assert merged.total_cycles() == 22


# ---------------------------------------------------------------------- #
# obs diff --format github (perf-gate annotations)
# ---------------------------------------------------------------------- #

class TestDiffGithubFormat:
    def _write_family(self, path, before_value, after_value):
        from repro.metrics.registry import (
            REGISTRY,
            MetricsSnapshot,
            write_snapshots,
        )

        REGISTRY.gauge("unit.diff_value")
        before = MetricsSnapshot("before")
        before.set("unit.diff_value", before_value)
        after = MetricsSnapshot("after")
        after.set("unit.diff_value", after_value)
        write_snapshots(path, {"before": before, "after": after})

    def test_breaches_emit_workflow_commands(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_family(path, 100.0, 200.0)
        code = obs_main(
            [
                "diff",
                f"{path}#before",
                f"{path}#after",
                "--threshold",
                "10",
                "--format",
                "github",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "::error " in out
        assert "title=perf regression" in out
        assert "unit.diff_value" in out
        assert "REGRESSION" in out

    def test_clean_diff_emits_no_annotations(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_family(path, 100.0, 101.0)
        code = obs_main(
            [
                "diff",
                f"{path}#before",
                f"{path}#after",
                "--threshold",
                "10",
                "--format",
                "github",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "::error" not in out


# ---------------------------------------------------------------------- #
# End-to-end: merged outputs byte-identical at any job count
# ---------------------------------------------------------------------- #

class TestRunnerMergeDeterminism:
    RUNNER_ARGS = [
        "--experiment", "table1",
        "--seeds", "0,1",
        "--profile",
        "--metrics-out", "merged.metrics.json",
        "--flamegraph", "merged.folded",
    ]

    def _run(self, tmp_path, monkeypatch, tag, jobs):
        from repro.experiments.runner import main

        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(self.RUNNER_ARGS + ["--jobs", str(jobs)]) == 0
        return workdir

    def test_jobs4_matches_jobs1_and_repeats_byte_for_byte(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance criterion: the profile trees of two workers
        merge into flamegraph and metrics files that are byte-identical
        across job counts and across repeated runs."""
        runs = {
            "serial": self._run(tmp_path, monkeypatch, "serial", jobs=1),
            "par_a": self._run(tmp_path, monkeypatch, "par_a", jobs=4),
            "par_b": self._run(tmp_path, monkeypatch, "par_b", jobs=4),
        }
        reference = runs["serial"]
        for name in ("merged.metrics.json", "merged.folded"):
            expected = (reference / name).read_bytes()
            assert expected, f"{name} is empty"
            for tag in ("par_a", "par_b"):
                assert (runs[tag] / name).read_bytes() == expected, (
                    f"{name} differs between jobs 1 and jobs 4 ({tag})"
                )
        # The flamegraph is the path-wise sum of both cells' trees.
        cells = [run_cell("table1", seed, profile=True)[4] for seed in (0, 1)]
        merged = merge_profile_trees(
            [ProfileNode.from_dict("root", tree) for tree in cells]
        )
        folded = (reference / "merged.folded").read_text()
        assert folded == render_folded(merged) + "\n"
        # Every snapshot embeds its measurement window's tree, and the
        # family feeds straight into the diff CLI.
        metrics = reference / "merged.metrics.json"
        snapshots = json.loads(metrics.read_text())["snapshots"]
        assert set(snapshots) == {
            "colocated.seed0",
            "colocated.seed1",
            "standalone.seed0",
            "standalone.seed1",
        }
        assert all(
            "walk" in doc["profile"]["children"] for doc in snapshots.values()
        )
        assert (
            obs_main(
                [
                    "diff",
                    f"{metrics}#colocated.seed0",
                    f"{metrics}#colocated.seed1",
                ]
            )
            == 0
        )
        assert "diff: colocated.seed0" in capsys.readouterr().out
