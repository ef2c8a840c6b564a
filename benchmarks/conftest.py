"""Shared fixtures for the benchmark/experiment suite.

Every benchmark runs a full experiment harness once (rounds=1): the
simulations are deterministic, so repetition only adds wall-clock time.
Each module prints the paper-style table/series it regenerates and then
asserts the qualitative reproduction targets from DESIGN.md.

Set ``REPRO_SNAPSHOT_DIR=some/dir`` to additionally write one
machine-readable metrics-snapshot JSON per experiment (the same
documents ``python -m repro.experiments.runner --metrics-out`` writes);
compare two runs with ``python -m repro.obs diff``. The committed seed
baselines under ``benchmarks/baselines/`` were produced this way.
"""

import os
from pathlib import Path

import pytest

from repro.config import PlatformConfig
from repro.metrics.registry import write_snapshots

#: Environment variable selecting where experiment snapshots land.
SNAPSHOT_DIR_ENV = "REPRO_SNAPSHOT_DIR"


@pytest.fixture(scope="session")
def platform():
    """The default scaled evaluation platform (Table 2 analog)."""
    return PlatformConfig()


@pytest.fixture(scope="session")
def seed():
    """Seed shared by every experiment (override via REPRO_SEED)."""
    return int(os.environ.get("REPRO_SEED", "0"))


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def emit_snapshots(name, snapshots):
    """Write ``snapshots`` to ``$REPRO_SNAPSHOT_DIR/<name>.json`` if set.

    Returns the written path, or None (writing nothing) when the
    environment variable is absent, so the benchmark suite stays
    side-effect-free by default.
    """
    directory = os.environ.get(SNAPSHOT_DIR_ENV)
    if not directory:
        return None
    path = Path(directory) / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_snapshots(path, snapshots)
    print(f"wrote {path}")
    return path
