"""Tests for the whole-program analysis layer (``repro.lint.ipa``).

Covers: call-graph construction edge cases (method resolution through
bases, decorated functions, lambdas and closures, dynamic-dispatch
fallback-to-unknown, registry dicts), summary fixed-point convergence on
a recursive cycle, one end-to-end fixture per program-rule family
(positive finding + clean counterpart), ``--jobs`` output equality, and
the zero-findings enforcement for the new rules over the real ``src/``
tree.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.ipa import Program, Summaries, extract_facts
from repro.lint.ipa.callgraph import function_id

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: The rule families introduced by the whole-program pass.
PROGRAM_RULES = {
    "mirror-coherence",
    "ipa-address-flow",
    "snapshot-determinism",
    "spawn-safety",
}


def facts_of(source: str, path: str = "src/repro/mod.py"):
    return extract_facts(path, ast.parse(source))


def build_program(modules):
    """``{"a": source, ...}`` -> Program with modules ``repro.a``, ..."""
    return Program(
        [
            facts_of(text, f"src/repro/{name}.py")
            for name, text in sorted(modules.items())
        ]
    )


def fid(module: str, qualname: str) -> str:
    return function_id(f"repro.{module}", qualname)


def edge_targets(program: Program, caller: str):
    out = set()
    for _, targets in program.edges.get(caller, ()):
        out.update(targets)
    return out


def rules_hit(source: str, path: str = "snippet.py"):
    return [finding.rule for finding in lint_source(source, path=path)]


# ---------------------------------------------------------------------- #
# Call-graph construction
# ---------------------------------------------------------------------- #

def test_callgraph_resolves_module_functions_and_imports():
    program = build_program(
        {
            "a": "def helper(x):\n    return x\n",
            "b": (
                "from repro.a import helper\n"
                "def caller(y):\n"
                "    return helper(y)\n"
            ),
        }
    )
    assert edge_targets(program, fid("b", "caller")) == {fid("a", "helper")}


def test_callgraph_resolves_self_dispatch_through_bases():
    program = build_program(
        {
            "mod": (
                "class Base:\n"
                "    def shoot(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        self.shoot()\n"
            )
        }
    )
    assert edge_targets(program, fid("mod", "Child.go")) == {
        fid("mod", "Base.shoot")
    }


def test_callgraph_resolves_decorated_functions():
    program = build_program(
        {
            "mod": (
                "def deco(fn):\n"
                "    return fn\n"
                "@deco\n"
                "def helper():\n"
                "    return 1\n"
                "def caller():\n"
                "    helper()\n"
            )
        }
    )
    assert fid("mod", "helper") in edge_targets(program, fid("mod", "caller"))


def test_callgraph_resolves_closures_and_lambdas():
    program = build_program(
        {
            "mod": (
                "double = lambda x: helper(x)\n"
                "def helper(x):\n"
                "    return x * 2\n"
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner() + double(2)\n"
            )
        }
    )
    targets = edge_targets(program, fid("mod", "outer"))
    assert fid("mod", "outer.<locals>.inner") in targets
    assert fid("mod", "double") in targets
    # The lambda's own body is a scope too: it calls helper.
    assert edge_targets(program, fid("mod", "double")) == {
        fid("mod", "helper")
    }


def test_callgraph_dynamic_dispatch_falls_back_to_unknown():
    program = build_program(
        {
            "mod": (
                "def poke(obj):\n"
                "    obj.whatever()\n"
                "    (obj.a or obj.b).method()\n"
            )
        }
    )
    assert edge_targets(program, fid("mod", "poke")) == set()


def test_callgraph_resolves_registry_dispatch():
    program = build_program(
        {
            "mod": (
                "def _run_a():\n"
                "    return 'a'\n"
                "def _run_b():\n"
                "    return 'b'\n"
                "TABLE = {'a': _run_a, 'b': _run_b}\n"
                "def dispatch(name):\n"
                "    return TABLE[name]()\n"
            )
        }
    )
    assert edge_targets(program, fid("mod", "dispatch")) == {
        fid("mod", "_run_a"),
        fid("mod", "_run_b"),
    }


def test_callgraph_resolves_receiver_types_from_annotations():
    program = build_program(
        {
            "mod": (
                "class Kernel:\n"
                "    def tick(self):\n"
                "        pass\n"
                "def drive(kernel: Kernel):\n"
                "    kernel.tick()\n"
            )
        }
    )
    assert edge_targets(program, fid("mod", "drive")) == {
        fid("mod", "Kernel.tick")
    }


# ---------------------------------------------------------------------- #
# Summary fixed points
# ---------------------------------------------------------------------- #

def test_fixed_point_converges_on_recursive_cycle():
    program = build_program(
        {
            "mod": (
                "def get_gva(x):\n"
                "    gva = x\n"
                "    return gva\n"
                "def a(n):\n"
                "    if n:\n"
                "        return b(n - 1)\n"
                "    return get_gva(n)\n"
                "def b(n):\n"
                "    return a(n)\n"
            )
        }
    )
    summaries = Summaries(program)
    # a <-> b is a cycle; both must converge to get_gva's GVA.
    assert summaries.return_spaces[fid("mod", "a")] == "GVA"
    assert summaries.return_spaces[fid("mod", "b")] == "GVA"
    # Reachability through the cycle includes both ends (and self).
    reach_a = summaries.reachable[fid("mod", "a")]
    assert {fid("mod", "a"), fid("mod", "b"), fid("mod", "get_gva")} <= reach_a


def test_param_demand_propagates_through_forwarding():
    program = build_program(
        {
            "mod": (
                "def sink(hpa):\n"
                "    return hpa\n"
                "def mid(value):\n"
                "    return sink(value)\n"
            )
        }
    )
    summaries = Summaries(program)
    assert summaries.param_demands[fid("mod", "mid")] == ("HPA",)
    chain = summaries.demand_chain(fid("mod", "mid"), 0)
    assert chain[-1] == (fid("mod", "sink"), 0)


# ---------------------------------------------------------------------- #
# mirror-coherence: the interprocedural demo a per-function rule misses
# ---------------------------------------------------------------------- #

#: A guest-PT mutation delegated to a helper that takes the table as an
#: opaque parameter. A per-function check keyed on the receiver being
#: *named* ``page_table`` cannot see the helper -- and the caller
#: contains no mutator call at all. Only the call-graph view connects
#: the two.
DELEGATED_MUTATION = (
    "class Kernel:\n"
    "    def _drop(self, pt, vpn):\n"
    "        pt.unmap(vpn)\n"
    "    def free_page(self, process, vpn):\n"
    "        self._drop(process.page_table, vpn)\n"
)


def test_interprocedural_demo_flagged_at_the_binding_site():
    findings = lint_source(DELEGATED_MUTATION, path="snippet.py")
    assert [finding.rule for finding in findings] == ["mirror-coherence"]
    # Anchored at the caller's binding site (line 5), which a
    # per-function pass cannot produce: free_page() has no mutator call.
    assert findings[0].line == 5
    assert "_drop" in findings[0].message


def test_mirror_coherence_line_pragma_suppresses_program_finding():
    # Program-rule findings honour the line pragma at their anchor, reason
    # text included (how core/allocator.py waives a reviewed mutation).
    binding = "        self._drop(process.page_table, vpn)\n"
    waived = DELEGATED_MUTATION.replace(
        binding,
        binding[:-1] + "  # simlint: disable=mirror-coherence (reviewed)\n",
    )
    assert rules_hit(waived) == []
    # A pragma naming another rule leaves the finding standing.
    other = DELEGATED_MUTATION.replace(
        binding, binding[:-1] + "  # simlint: disable=spawn-safety\n"
    )
    assert rules_hit(other) == ["mirror-coherence"]


def test_interprocedural_demo_helper_alone_passes_per_function_view():
    # The helper in isolation is what a per-function rule sees -- and it is
    # clean: mutating a bare parameter defers the obligation to callers.
    helper_only = (
        "class Kernel:\n"
        "    def _drop(self, pt, vpn):\n"
        "        pt.unmap(vpn)\n"
    )
    assert rules_hit(helper_only) == []


def test_interprocedural_demo_clean_when_caller_reaches_shootdown():
    src = (
        "class Kernel:\n"
        "    def _drop(self, pt, vpn):\n"
        "        pt.unmap(vpn)\n"
        "    def free_page(self, process, vpn):\n"
        "        self._drop(process.page_table, vpn)\n"
        "        self._notify_unmap(process.pid, vpn)\n"
    )
    assert rules_hit(src) == []


def test_mirror_coherence_clean_when_helper_pairs_the_shootdown():
    # Pairing inside the helper satisfies every caller transitively.
    src = (
        "class Kernel:\n"
        "    def _drop(self, process, vpn):\n"
        "        process.page_table.unmap(vpn)\n"
        "        self._notify_unmap(process.pid, vpn)\n"
        "    def free_page(self, process, vpn):\n"
        "        self._drop(process, vpn)\n"
    )
    assert rules_hit(src) == []


def test_mirror_coherence_flags_range_teardown_without_shootdown():
    # unmap_range mutates the guest PT like unmap: a helper that tears a
    # range down and never reaches _notify_unmap leaves stale TLB entries.
    src = (
        "class Kernel:\n"
        "    def _zap(self, pt, start, end):\n"
        "        for vpn, pte in pt.unmap_range(start, end):\n"
        "            self._release(vpn, pte)\n"
        "    def _release(self, vpn, pte):\n"
        "        return vpn\n"
        "    def munmap(self, process, start, end):\n"
        "        self._zap(process.page_table, start, end)\n"
    )
    findings = lint_source(src, path="snippet.py")
    assert [finding.rule for finding in findings] == ["mirror-coherence"]
    assert findings[0].line == 8
    paired = src.replace(
        "        return vpn\n", "        self._notify_unmap(0, vpn)\n"
    )
    assert rules_hit(paired) == []


def test_mirror_coherence_host_side_binding_is_exempt():
    src = (
        "class Hypervisor:\n"
        "    def _drop(self, pt, page):\n"
        "        pt.unmap(page)\n"
        "    def unback(self, vm, page):\n"
        "        self._drop(vm.host_pt, page)\n"
    )
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# ipa-address-flow
# ---------------------------------------------------------------------- #

def test_ipa_address_flow_catches_gva_two_calls_deep():
    src = (
        "def sink(hpa):\n"
        "    return hpa\n"
        "def mid(value):\n"
        "    return sink(value)\n"
        "def top(process):\n"
        "    gva = process.base\n"
        "    return mid(gva)\n"
    )
    findings = lint_source(src, path="snippet.py")
    assert [finding.rule for finding in findings] == ["ipa-address-flow"]
    assert findings[0].line == 7
    assert "2 calls deep" in findings[0].message


def test_ipa_address_flow_clean_when_spaces_agree():
    src = (
        "def sink(hpa):\n"
        "    return hpa\n"
        "def mid(value):\n"
        "    return sink(value)\n"
        "def top(frame):\n"
        "    hpa = frame << 12\n"
        "    return mid(hpa)\n"
    )
    assert "ipa-address-flow" not in rules_hit(src)


# ---------------------------------------------------------------------- #
# snapshot-determinism
# ---------------------------------------------------------------------- #

def test_snapshot_determinism_flags_unsorted_helper_under_to_dict():
    src = (
        "class Stats:\n"
        "    def to_dict(self):\n"
        "        return render(self.data)\n"
        "def render(data):\n"
        "    out = {}\n"
        "    for key, value in data.items():\n"
        "        out[key] = value\n"
        "    return out\n"
    )
    findings = lint_source(src, path="snippet.py")
    assert [finding.rule for finding in findings] == ["snapshot-determinism"]
    assert findings[0].line == 6
    assert "to_dict" in findings[0].message


def test_snapshot_determinism_clean_when_sorted_or_off_path():
    sorted_src = (
        "class Stats:\n"
        "    def to_dict(self):\n"
        "        return render(self.data)\n"
        "def render(data):\n"
        "    return {key: value for key, value in sorted(data.items())}\n"
    )
    assert rules_hit(sorted_src) == []
    # The same unsorted loop with no serializer reaching it is fine.
    off_path = (
        "def tally(data):\n"
        "    out = {}\n"
        "    for key, value in data.items():\n"
        "        out[key] = value\n"
        "    return out\n"
    )
    assert rules_hit(off_path) == []


# ---------------------------------------------------------------------- #
# spawn-safety
# ---------------------------------------------------------------------- #

def test_spawn_safety_flags_worker_reachable_global_mutation():
    src = (
        "RESULTS = {}\n"
        "def run_cell(experiment, seed):\n"
        "    record(experiment, seed)\n"
        "def record(experiment, seed):\n"
        "    RESULTS[experiment] = seed\n"
    )
    findings = lint_source(src, path="snippet.py")
    assert [finding.rule for finding in findings] == ["spawn-safety"]
    assert findings[0].line == 5
    assert "RESULTS" in findings[0].message


def test_spawn_safety_clean_for_returns_and_safe_singletons():
    by_value = (
        "def run_cell(experiment, seed):\n"
        "    return {experiment: seed}\n"
    )
    assert rules_hit(by_value) == []
    # Documented per-process singletons are exempt.
    profiler = (
        "PROFILER = Accumulator()\n"
        "def run_cell(experiment, seed):\n"
        "    PROFILER.add(experiment, seed)\n"
    )
    assert rules_hit(profiler) == []
    # The same mutation not reachable from a worker entry is fine.
    offline = (
        "RESULTS = {}\n"
        "def record(experiment, seed):\n"
        "    RESULTS[experiment] = seed\n"
    )
    assert rules_hit(offline) == []


# ---------------------------------------------------------------------- #
# --jobs: parallel per-file phase, identical output
# ---------------------------------------------------------------------- #

UNPAIRED = (
    "def do_free(process, vpn):\n"
    "    frame = process.page_table.unmap(vpn)\n"
    "    return frame\n"
)


def test_jobs_output_matches_serial(tmp_path):
    (tmp_path / "a.py").write_text(UNPAIRED, encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import random\n"
        "def g():\n"
        "    return random.random()\n",
        encoding="utf-8",
    )
    serial = lint_paths([tmp_path], jobs=1)
    parallel = lint_paths([tmp_path], jobs=3)
    assert serial == parallel
    assert sorted({finding.rule for finding in serial}) == [
        "global-random",
        "mirror-coherence",
    ]


def test_jobs_cli_flag(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("def f(x):\n    return x\n", encoding="utf-8")
    assert lint_main([str(target), "--jobs", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        lint_main([str(target), "--jobs", "0"])
    capsys.readouterr()


# ---------------------------------------------------------------------- #
# Enforcement: the real tree stays clean under the new rules
# ---------------------------------------------------------------------- #

def test_src_tree_has_zero_program_rule_findings():
    findings = [
        finding
        for finding in lint_paths([SRC])
        if finding.rule in PROGRAM_RULES
    ]
    assert findings == [], "\n".join(f.render() for f in findings)
