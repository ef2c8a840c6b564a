"""Tests for workload models: determinism, shape, and registry."""

import itertools

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    BENCHMARKS,
    CO_RUNNERS,
    LOW_PRESSURE_BENCHMARKS,
    AccessOp,
    FreeOp,
    MmapOp,
    PageRank,
    PhaseOp,
    StressNg,
    WorkloadPhase,
    make_benchmark,
    make_corunner,
    table3_rows,
)
from repro.workloads.spec import Mcf, Xz
from repro.workloads.synth import (
    ZIPF_CHUNK,
    local_runs,
    random_pages,
    sequential_touch,
    strided_touch,
    windowed_stream,
    zipf_page_sequence,
)


def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestSynthGenerators:
    def test_sequential_touch_covers_all_pages(self):
        ops = list(sequential_touch("r", 10))
        assert [op.page for op in ops] == list(range(10))
        assert all(op.write for op in ops)

    def test_strided_touch(self):
        ops = list(strided_touch("r", 32, 8))
        assert [op.page for op in ops] == [0, 8, 16, 24]

    def test_strided_touch_validation(self):
        with pytest.raises(ValueError):
            list(strided_touch("r", 8, 0))

    def test_zipf_is_deterministic_per_rng_seed(self):
        import random

        a = list(zipf_page_sequence(random.Random(5), 100, 50))
        b = list(zipf_page_sequence(random.Random(5), 100, 50))
        assert a == b

    def test_zipf_in_range(self):
        import random

        pages = list(zipf_page_sequence(random.Random(1), 100, 200))
        assert len(pages) == 200
        assert all(0 <= p < 100 for p in pages)

    def test_zipf_is_skewed(self):
        import random

        pages = list(
            zipf_page_sequence(random.Random(1), 1000, 5000, alpha=1.2)
        )
        from collections import Counter

        counts = Counter(pages)
        top_share = sum(c for _p, c in counts.most_common(50)) / 5000
        assert top_share > 0.3  # hot set dominates

    @pytest.mark.parametrize(
        "count", [1000, ZIPF_CHUNK, ZIPF_CHUNK + 1, 2 * ZIPF_CHUNK + 7]
    )
    def test_zipf_chunks_match_one_shot_draw(self, count):
        # Below a chunk boundary, at one and across one, the chunked
        # draws equal a single choice() call on the same generator.
        import random

        import numpy as np

        rng = random.Random(9)
        np_rng = np.random.default_rng(random.Random(9).getrandbits(63))
        weights = np.arange(1, 901, dtype=np.float64) ** -1.0
        weights /= weights.sum()
        permutation = np_rng.permutation(900)
        expected = [
            int(permutation[d])
            for d in np_rng.choice(900, size=count, p=weights)
        ]
        assert list(zipf_page_sequence(rng, 900, count, alpha=1.0)) == expected

    def test_zipf_draws_its_seed_at_the_call(self):
        # The stream is lazy, but the numpy seed is not: the caller's rng
        # has spent exactly one getrandbits(63) when the call returns, so
        # its later draws do not depend on when the pages are consumed.
        import random

        rng = random.Random(11)
        reference = random.Random(11)
        pages = zipf_page_sequence(rng, 900, 3 * ZIPF_CHUNK)
        reference.getrandbits(63)
        assert rng.getstate() == reference.getstate()
        assert next(pages) in range(900)
        assert rng.getstate() == reference.getstate()

    def test_zipf_validation(self):
        import random

        with pytest.raises(ValueError):
            zipf_page_sequence(random.Random(1), 0, 5)

    def test_random_pages(self):
        import random

        pages = random_pages(random.Random(2), 10, 100)
        assert len(pages) == 100
        assert all(0 <= p < 10 for p in pages)

    def test_local_runs_expand_bases(self):
        import random

        ops = list(local_runs("r", iter([0, 90]), 100, 4, random.Random(1)))
        assert [op.page for op in ops] == [0, 1, 2, 3, 90, 91, 92, 93]

    def test_local_runs_clamp_at_region_end(self):
        import random

        ops = list(local_runs("r", iter([98]), 100, 4, random.Random(1)))
        assert [op.page for op in ops] == [98, 99, 99, 99]

    def test_windowed_stream_count_and_runs(self):
        import random

        ops = list(
            windowed_stream("r", 100, 50, 40, random.Random(3), run_pages=8)
        )
        assert len(ops) == 40
        # Runs of 8 adjacent pages (mod wrap-around).
        deltas = [
            (ops[i + 1].page - ops[i].page) % 100 for i in range(0, 8 - 1)
        ]
        assert all(d == 1 for d in deltas)


class TestWorkloadStreams:
    def test_pagerank_phase_structure(self):
        phases = [
            op.phase for op in PageRank(seed=1).ops() if isinstance(op, PhaseOp)
        ]
        assert phases == [
            WorkloadPhase.INIT,
            WorkloadPhase.COMPUTE,
            WorkloadPhase.DONE,
        ]

    def test_pagerank_determinism(self):
        a = list(PageRank(seed=3).ops())
        b = list(PageRank(seed=3).ops())
        assert a == b

    def test_different_seeds_differ(self):
        a = list(PageRank(seed=1).ops())
        b = list(PageRank(seed=2).ops())
        assert a != b

    def test_accesses_within_regions(self):
        sizes = {}
        for op in Mcf(seed=1).ops():
            if isinstance(op, MmapOp):
                sizes[op.region] = op.npages
            elif isinstance(op, AccessOp):
                assert 0 <= op.page < sizes[op.region]
                assert 0 <= op.block < 64

    def test_init_touches_whole_footprint(self):
        workload = Xz(seed=1)
        touched = set()
        for op in workload.ops():
            if isinstance(op, PhaseOp) and op.phase is WorkloadPhase.COMPUTE:
                break
            if isinstance(op, AccessOp):
                touched.add((op.region, op.page))
        assert len(touched) == workload.footprint_pages

    def test_benchmarks_terminate(self):
        for name in BENCHMARKS:
            ops = list(make_benchmark(name, seed=1).ops())
            assert isinstance(ops[-1], PhaseOp)
            assert ops[-1].phase is WorkloadPhase.DONE

    def test_corunners_are_infinite(self):
        stream = StressNg(seed=1).ops()
        assert len(take(stream, 10000)) == 10000  # does not exhaust

    def test_stress_ng_frees_regions(self):
        ops = take(StressNg(seed=1, threads=2).ops(), 5000)
        assert any(isinstance(op, FreeOp) for op in ops)

    def test_stress_ng_thread_validation(self):
        with pytest.raises(ValueError):
            StressNg(threads=0)

    def test_corunner_streams_valid(self):
        for name in CO_RUNNERS:
            sizes = {}
            for op in take(make_corunner(name, seed=2).ops(), 3000):
                if isinstance(op, MmapOp):
                    sizes[op.region] = op.npages
                elif isinstance(op, AccessOp):
                    assert 0 <= op.page < sizes[op.region], name
                elif isinstance(op, FreeOp):
                    assert op.region in sizes, name


class TestRegistry:
    def test_all_figure_benchmarks_present(self):
        assert set(BENCHMARKS) == {
            "cc", "bfs", "nibble", "pagerank", "gcc", "mcf", "omnetpp", "xz",
        }

    def test_corunner_roster(self):
        assert {"objdet", "stress-ng", "chameleon", "pyaes"} <= set(CO_RUNNERS)

    def test_unknown_names_raise(self):
        with pytest.raises(WorkloadError):
            make_benchmark("nope")
        with pytest.raises(WorkloadError):
            make_corunner("nope")

    def test_low_pressure_footprints_are_small(self):
        for name in LOW_PRESSURE_BENCHMARKS:
            workload = make_benchmark(name)
            assert workload.footprint_pages < 512

    def test_big_memory_footprints_exceed_tlb_reach(self):
        from repro.config import MachineConfig

        stlb_entries = MachineConfig().stlb.entries
        for name in BENCHMARKS:
            workload = make_benchmark(name)
            assert workload.footprint_pages > 4 * stlb_entries, name

    def test_table3_rows(self):
        rows = table3_rows()
        roles = {role for role, _n, _d in rows}
        assert roles == {"benchmark", "co-runner"}
        assert len(rows) == len(BENCHMARKS) + len(CO_RUNNERS)
