"""Snapshot-determinism: unordered iteration on serialization paths.

Metrics snapshots, JSON documents and Prometheus text are diffed
byte-for-byte by the experiment harness, so every collection reaching a
serializer must be iterated in a defined order. This rule computes the
*serialization cone* -- serializer roots (``to_dict`` / ``to_json`` /
``to_prometheus`` / ``to_document`` by name, plus any function calling
``json.dump``/``json.dumps`` directly) and everything transitively
callable from them -- and flags explicit ``dict`` view or ``set``
iteration inside the cone that is not wrapped in ``sorted(...)``.

Plain-``Name`` iteration (``for x in frames``) is out of scope: the
per-file ``determinism`` rules own those shapes. This rule exists for
the cross-function case: the helper three calls below ``to_dict`` whose
``.items()`` loop decides the document's key order.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..core import Finding, ProgramRule, register

#: Function names that *are* serializers, wherever they live.
SERIALIZER_NAMES = frozenset(
    {
        "to_dict",
        "to_json",
        "to_prometheus",
        "to_document",
        "to_snapshot",
    }
)

#: ``json.<name>(...)`` calls marking the enclosing function as a root.
_JSON_SINKS = frozenset({"dump", "dumps"})


@register
class SnapshotDeterminismRule(ProgramRule):
    """Flag unsorted dict/set iteration reachable from a serializer."""

    name = "snapshot-determinism"
    category = "determinism"
    description = (
        "dict/set iteration transitively reachable from a serializer "
        "(to_dict/to_json/to_prometheus or a json.dump call) must go "
        "through sorted(), or snapshot bytes depend on insertion/hash "
        "order"
    )

    def check_program(self, program, summaries) -> Iterator[Finding]:
        roots = []
        for fid, _, ff in program.iter_functions():
            if ff.name in SERIALIZER_NAMES or any(
                call.root == "json" and call.name in _JSON_SINKS
                for call in ff.calls
            ):
                roots.append(fid)
        #: fid in the cone -> the first root (in program order) reaching it.
        cone: Dict[str, str] = {}
        reachable = summaries.reachable
        for root in roots:
            for reached in reachable.get(root, frozenset({root})):
                cone.setdefault(reached, root)
        for fid, mf, ff in program.iter_functions():
            root = cone.get(fid)
            if root is None:
                continue
            _, root_ff = program.facts_for(root)
            for iteration in ff.iterations:
                if iteration.sorted_:
                    continue
                yield Finding(
                    path=mf.path,
                    line=iteration.line,
                    col=iteration.col,
                    rule=self.name,
                    message=(
                        f"unsorted {iteration.kind} iteration over "
                        f"{iteration.desc} on a serialization path "
                        f"(reachable from {root_ff.qualname}()); wrap the "
                        "iterable in sorted() so snapshot bytes do not "
                        "depend on insertion/hash order"
                    ),
                )
