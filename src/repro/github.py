"""GitHub Actions workflow-command formatting.

Shared by the CLIs that annotate CI runs: ``python -m repro.lint
--format github`` (inline lint findings on PRs) and ``python -m
repro.obs diff --format github`` (perf-gate regression annotations).
The escaping rules follow the Actions runner's ``::command
property=value::message`` grammar: ``%``, CR and LF are escaped in both
positions, and property values additionally escape ``,`` and ``:``.
"""

from __future__ import annotations


def escape_data(value: str) -> str:
    """Escape a workflow-command message (order matters: % first)."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def escape_property(value: str) -> str:
    """Escape a workflow-command property (also , and :)."""
    return escape_data(value).replace(",", "%2C").replace(":", "%3A")


def workflow_command(kind: str, message: str, **properties: object) -> str:
    """One ``::kind prop=value,...::message`` line.

    Properties keep their keyword order (GitHub does not care, but byte-
    stable output does); empty-valued properties are dropped.
    """
    rendered = ",".join(
        f"{name}={escape_property(str(value))}"
        for name, value in properties.items()
        if str(value) != ""
    )
    head = f"::{kind} {rendered}" if rendered else f"::{kind}"
    return f"{head}::{escape_data(message)}"
