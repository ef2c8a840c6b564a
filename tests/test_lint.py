"""Tests for the simulator-aware static-analysis pass (repro.lint).

Covers: each rule fires on a minimal bad snippet and stays quiet on a
clean equivalent; suppression pragmas (line- and file-level); the JSON
output schema; CLI exit codes; and -- the tier-1 enforcement -- zero
findings over the real ``src/`` tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    RULES,
    iter_rules,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Path prefix putting a snippet inside units-rule scope.
MODEL_PATH = "src/repro/mem/snippet.py"
#: Path prefix outside units-rule scope (workload code).
WORKLOAD_PATH = "src/repro/workloads/snippet.py"


def rules_hit(source, path="snippet.py"):
    return [finding.rule for finding in lint_source(source, path=path)]


# ---------------------------------------------------------------------- #
# The tier-1 enforcement: the real tree stays clean forever
# ---------------------------------------------------------------------- #

def test_src_tree_has_zero_findings():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_registry_has_expected_rules():
    names = {rule.name for rule in iter_rules()}
    assert {"magic-number", "set-order", "wall-clock"} == names
    assert set(RULES) == names


# ---------------------------------------------------------------------- #
# determinism: wall-clock
# ---------------------------------------------------------------------- #

def test_wall_clock_flags_time_time():
    src = "import time\nstart = time.time()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_from_import_time():
    src = "from time import time\nstart = time()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_datetime_now():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_datetime_module_chain():
    src = "import datetime\nstamp = datetime.datetime.utcnow()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_allows_perf_counter():
    src = "import time\nstart = time.perf_counter()\n"
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# determinism: set-order
# ---------------------------------------------------------------------- #

def test_set_order_flags_for_loop_over_set_literal():
    src = "for vpn in {1, 2, 3}:\n    handle(vpn)\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_list_of_set():
    src = "order = list(set(frames))\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_comprehension_over_set_call():
    src = "out = [f(x) for x in set(items)]\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_allows_sorted_set():
    src = "for vpn in sorted({3, 1, 2}):\n    handle(vpn)\n"
    assert rules_hit(src) == []


@pytest.mark.parametrize("op", ["|", "&", "-", "^"])
def test_set_order_flags_set_algebra(op):
    # The obs-diff shape: a union of two key sets, iterated unsorted.
    src = f"for name in set(before) {op} set(after):\n    emit(name)\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_set_algebra_with_one_set_operand():
    src = "names = keys - {'total'}\nout = [n for n in names]\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_allows_sorted_set_algebra():
    src = "for name in sorted(set(before) | set(after)):\n    emit(name)\n"
    assert rules_hit(src) == []


def test_set_order_ignores_integer_algebra():
    src = "for i in range(a | b):\n    f(i)\nmask = flags & 7\nfor x in mask:\n    f(x)\n"
    assert rules_hit(src) == []


def test_set_order_flags_iteration_over_set_variable():
    src = "pending = set()\nfor frame in pending:\n    free(frame)\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_comprehension_over_set_variable():
    src = "seen = {1, 2}\nout = [f(x) for x in seen]\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_annotated_set_variable():
    src = (
        "from typing import Set\n"
        "def f():\n"
        "    live: Set[int] = set()\n"
        "    for frame in live:\n"
        "        free(frame)\n"
    )
    assert rules_hit(src) == ["set-order"]


def test_set_order_allows_rebound_set_variable():
    # Rebinding to a non-set anywhere in the scope clears the inference.
    src = "items = set()\nitems = sorted(items)\nfor x in items:\n    f(x)\n"
    assert rules_hit(src) == []


def test_set_order_allows_sorted_set_variable():
    src = "pending = set()\nfor frame in sorted(pending):\n    free(frame)\n"
    assert rules_hit(src) == []


def test_set_order_parameter_shadows_module_set():
    src = (
        "names = set()\n"
        "def f(names):\n"
        "    for name in names:\n"
        "        g(name)\n"
    )
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# units: magic-number
# ---------------------------------------------------------------------- #

def test_magic_number_flags_page_shift_in_model_code():
    src = "def frame_of(addr):\n    return addr >> 12\n"
    assert rules_hit(src, path=MODEL_PATH) == ["magic-number"]


def test_magic_number_flags_block_mask():
    src = "index = (vpn & 511) * 8\n"
    hits = rules_hit(src, path=MODEL_PATH)
    assert hits == ["magic-number", "magic-number"]


def test_magic_number_quiet_outside_scoped_dirs():
    src = "def frame_of(addr):\n    return addr >> 12\n"
    assert rules_hit(src, path=WORKLOAD_PATH) == []


def test_magic_number_quiet_on_units_constants():
    src = (
        "from repro.units import PAGE_SHIFT\n"
        "def frame_of(addr):\n    return addr >> PAGE_SHIFT\n"
    )
    assert rules_hit(src, path=MODEL_PATH) == []


def test_magic_number_ignores_non_address_scalars():
    src = "latency = cycles * 8\ncount = retries % 64\n"
    assert rules_hit(src, path=MODEL_PATH) == []


def test_syntax_error_is_reported_as_finding():
    assert rules_hit("def broken(:\n") == ["syntax-error"]


# ---------------------------------------------------------------------- #
# Suppressions
# ---------------------------------------------------------------------- #

def test_line_pragma_suppresses_only_that_line():
    src = (
        "import time\n"
        "a = time.time()  # simlint: disable=wall-clock\n"
        "b = time.time()\n"
    )
    findings = lint_source(src)
    assert [finding.line for finding in findings] == [3]


def test_file_pragma_suppresses_whole_file():
    src = (
        "# simlint: disable=wall-clock\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    assert lint_source(src) == []


def test_disable_all_pragma():
    src = "import time\na = time.time()  # simlint: disable=all\n"
    assert lint_source(src) == []


def test_pragma_leaves_other_rules_active():
    src = (
        "# simlint: disable=wall-clock\n"
        "import time\n"
        "a = time.time()\n"
        "for b in {1, 2}:\n"
        "    f(b)\n"
    )
    assert [finding.rule for finding in lint_source(src)] == ["set-order"]


# ---------------------------------------------------------------------- #
# CLI and JSON output
# ---------------------------------------------------------------------- #

BAD_SNIPPET = "import time\nstart = time.time()\n"


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("import time\nstart = time.perf_counter()\n")
    assert lint_main([str(clean)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_exit_nonzero_on_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert f"{bad}:2:" in out


def test_cli_json_schema_is_stable(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"version", "findings", "counts"}
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["counts"] == {"wall-clock": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message"}
    assert finding["rule"] == "wall-clock"
    assert finding["line"] == 2


def test_cli_github_format_emits_workflow_commands(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--format", "github"]) == 1
    out = capsys.readouterr().out
    (annotation, summary) = out.strip().splitlines()
    assert annotation.startswith("::error file=")
    assert ",line=2," in annotation
    assert "title=simlint wall-clock::" in annotation
    assert summary == "simlint: 1 finding"


def test_cli_github_format_escapes_message_payload(tmp_path, capsys):
    from repro.lint.cli import _escape_github_data, _escape_github_property

    assert _escape_github_data("50% done\nnext") == "50%25 done%0Anext"
    assert _escape_github_property("a,b:c%d") == "a%2Cb%3Ac%25d"
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean), "--format", "github"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_disable_flag(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--disable", "wall-clock"]) == 0


def test_cli_missing_path_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tmp_path / "nope.py")])
    assert excinfo.value.code == 2
    assert "cannot lint" in capsys.readouterr().err


def test_cli_rejects_unknown_disable(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    with pytest.raises(SystemExit):
        lint_main([str(bad), "--disable", "no-such-rule"])
    # Retired rule ids are no longer accepted either.
    for retired in (
        "address-flow",
        "global-random",
        "raw-output",
        "fastpath-invalidation",
        "hotpath-alloc",
        "mirror-coherence",
        "ipa-address-flow",
        "snapshot-determinism",
        "spawn-safety",
    ):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(bad), "--disable", retired])
        assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(RULES)
    assert len(names) == 3
    for name, line in zip(names, lines):
        assert f"[{RULES[name].category}]" in line


def test_cli_has_no_jobs_option(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(clean), "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_module_entry_point_detects_seeded_violation(tmp_path):
    """``python -m repro.lint`` exits nonzero on a seeded-in violation."""
    bad = tmp_path / "seeded.py"
    bad.write_text(BAD_SNIPPET)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "wall-clock" in proc.stdout
