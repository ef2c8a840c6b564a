"""Bench: seed-variance study of the headline result.

The paper reports a standard deviation of execution time under 2% over
40 runs per configuration (§6.1). Simulations here are deterministic per
seed, so "variance" means sensitivity to the seed. For pagerank + objdet
the seed changes only the access streams, not the memory layout: at
seeds 0, 1 and 2 each kernel ends with the same buddy free lists, and
host-PT fragmentation is 5.0409 on the default kernel and 1.0 on
PTEMagnet at every seed; only the cycles move. So the spread measured
here is access-stream noise on one layout, not the run-to-run layout
variation the paper's repeated runs see. The claim checked is that
PTEMagnet's improvement stays positive on every seed's access streams.
"""

import statistics

from conftest import run_once

from repro.experiments import compare_kernels
from repro.experiments.figure5 import OBJDET_WEIGHT
from repro.metrics.report import Table

SEEDS = (0, 1, 2)


def run_variance(platform, base_seed):
    improvements = {}
    for seed in SEEDS:
        comparison = compare_kernels(
            platform,
            "pagerank",
            [("objdet", OBJDET_WEIGHT)],
            seed=base_seed + seed,
        )
        improvements[base_seed + seed] = comparison.improvement_percent
    return improvements


def test_seed_variance(benchmark, platform, seed):
    improvements = run_once(benchmark, run_variance, platform, seed)
    print()
    table = Table(
        ["Seed", "PTEMagnet improvement"],
        title="Seed-variance study: pagerank + objdet",
    )
    for s, value in improvements.items():
        table.add_row(s, f"{value:+.2f}%")
    values = list(improvements.values())
    mean = statistics.mean(values)
    spread = statistics.pstdev(values)
    table.add_row("mean", f"{mean:+.2f}%")
    table.add_row("stdev", f"{spread:.2f}pp")
    print(table.render())

    assert all(value > 0 for value in values), "improvement must be robust"
    assert spread < 2.5, "spread beyond the paper's <=2% stability band"
    assert 1.0 < mean < 8.0
