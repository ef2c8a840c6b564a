"""Reference-model equivalence tests.

The set-associative cache and TLB are checked against brutally simple
reference implementations (per-set LRU lists) over hypothesis-generated
access traces, and the fused 2D walker against the composed walk it
replaced (1D :class:`PageWalker` host walks plus a nested-TLB dict). If
the optimised structures ever diverge from the reference semantics,
these tests localise it.
"""

import random
from collections import OrderedDict
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, HostConfig, MachineConfig, TlbConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.pwc import PageWalkCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.obs.profile import PROFILER, profiling
from repro.pagetable.pte import pte_frame
from repro.pagetable.radix import PageTable
from repro.pagetable.walker import PageWalker
from repro.tlb.tlb import Tlb
from repro.units import BITS_PER_LEVEL, KB, MB, PTES_PER_NODE, pte_address
from repro.virt.hypervisor import HostKernel
from repro.virt.nested import NESTED_TLB_ENTRIES, NestedWalker, NestedWalkResult


class RefCache:
    """Reference set-associative LRU cache (block -> presence)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: Dict[int, OrderedDict] = {
            i: OrderedDict() for i in range(num_sets)
        }

    def access(self, block: int) -> bool:
        entries = self.sets[block % self.num_sets]
        if block in entries:
            entries.move_to_end(block)
            return True
        return False

    def fill(self, block: int) -> None:
        entries = self.sets[block % self.num_sets]
        if block in entries:
            entries.move_to_end(block)
            return
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[block] = True


class TestCacheAgainstReference:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["access", "fill", "invalidate"]),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_miss_equivalence(self, trace):
        config = CacheConfig("T", 4 * KB, 2, 1)  # 32 sets x 2 ways
        cache = SetAssociativeCache(config)
        ref = RefCache(cache.num_sets, config.associativity)
        for action, block in trace:
            if action == "access":
                assert cache.access(block) == ref.access(block)
                # Mirror the hierarchy's fill-on-miss behaviour.
                if not cache.contains(block):
                    cache.fill(block)
                    ref.fill(block)
            elif action == "fill":
                cache.fill(block)
                ref.fill(block)
            else:
                cache.invalidate(block)
                entries = ref.sets[block % ref.num_sets]
                entries.pop(block, None)

    @given(st.lists(st.integers(min_value=0, max_value=2000), max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = SetAssociativeCache(CacheConfig("T", 4 * KB, 4, 1))
        for block in blocks:
            cache.fill(block)
        assert cache.occupancy() <= (4 * KB) // 64


class RefTlb:
    """Reference set-associative LRU TLB (vpn -> frame)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: Dict[int, OrderedDict] = {
            i: OrderedDict() for i in range(num_sets)
        }

    def lookup(self, vpn: int):
        entries = self.sets[vpn % self.num_sets]
        if vpn in entries:
            entries.move_to_end(vpn)
            return entries[vpn]
        return None

    def insert(self, vpn: int, frame: int) -> None:
        entries = self.sets[vpn % self.num_sets]
        if vpn in entries:
            del entries[vpn]
        elif len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[vpn] = frame


class TestTlbAgainstReference:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["lookup", "insert", "invalidate"]),
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_equivalence(self, trace):
        tlb = Tlb(TlbConfig("T", 16, 4))
        ref = RefTlb(tlb.num_sets, 4)
        for action, vpn, frame in trace:
            if action == "lookup":
                assert tlb.lookup(vpn) == ref.lookup(vpn)
            elif action == "insert":
                tlb.insert(vpn, frame)
                ref.insert(vpn, frame)
            else:
                tlb.invalidate(vpn)
                ref.sets[vpn % ref.num_sets].pop(vpn, None)


class TestWalkConsistency:
    """The walker must agree with direct page-table lookups, always."""

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=(1 << 27) - 1),
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            max_size=40,
        ),
        st.lists(st.integers(min_value=0, max_value=(1 << 27) - 1), max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_walker_matches_translate(self, mapping, probes):
        from repro.cache.pwc import PageWalkCache
        from repro.pagetable.radix import PageTable
        from repro.pagetable.walker import PageWalker

        counter = iter(range(100000, 200000))
        table = PageTable(lambda: next(counter))
        for vpn, pfn in mapping.items():
            table.map(vpn, pfn)
        walker = PageWalker(table, lambda a, s: 1, pwc=PageWalkCache(4))
        for vpn in list(mapping) + probes:
            assert walker.walk(vpn).frame == table.translate(vpn)


class RefNestedWalker:
    """The 2D walk as composed before the fused walker: the guest path
    from ``walk_path_and_pte``; each guest node frame host-translated by a
    nested-TLB dict or a :class:`PageWalker` host walk, re-issued after an
    EPT fault; then one final host walk for the data frame."""

    def __init__(self, guest_pt, vm, host, hierarchy, guest_pwc, host_pwc):
        self.guest_pt = guest_pt
        self.vm = vm
        self.host = host
        self.hierarchy = hierarchy
        self.guest_pwc = guest_pwc
        self.host_walker = PageWalker(
            vm.host_pt, hierarchy.access, pwc=host_pwc, stream="hpt"
        )
        self.host_walker.hierarchy = hierarchy
        self.ntlb: Dict[int, int] = {}
        self.ntlb_hits = 0
        self.ntlb_misses = 0

    def host_translate(self, gfn):
        first = self.host_walker.walk(gfn)
        if first.frame is not None:
            return first.frame, first.cycles, first.accesses
        self.host.ensure_backed(self.vm, gfn)
        retry = self.host_walker.walk(gfn)
        return (
            retry.frame,
            first.cycles + retry.cycles,
            first.accesses + retry.accesses,
        )

    def host_translate_node(self, gfn):
        if gfn in self.ntlb:
            self.ntlb[gfn] = self.ntlb.pop(gfn)  # refresh LRU position
            self.ntlb_hits += 1
            return self.ntlb[gfn], 0, 0
        self.ntlb_misses += 1
        hfn, cycles, accesses = self.host_translate(gfn)
        if len(self.ntlb) >= NESTED_TLB_ENTRIES:
            del self.ntlb[next(iter(self.ntlb))]
        self.ntlb[gfn] = hfn
        return hfn, cycles, accesses

    def walk(self, gvpn):
        path, leaf_pte = self.guest_pt.walk_path_and_pte(gvpn)
        start = 0
        if self.guest_pwc is not None:
            hit_level = self.guest_pwc.lookup(gvpn)
            if hit_level is not None:
                start = min(self.guest_pt.levels - hit_level, len(path))
        cycles = host_cycles = guest_accesses = host_accesses = 0
        for level, node_frame, index in path[start:]:
            self.host_walker.profile_context = ("walk", "hpt", f"gl{level}")
            hfn, walk_cycles, walk_accesses = self.host_translate_node(
                node_frame
            )
            cycles += walk_cycles
            host_cycles += walk_cycles
            host_accesses += walk_accesses
            latency = self.hierarchy.access(pte_address(hfn, index), "gpt")
            if PROFILER.enabled:
                outcome = self.hierarchy.last_outcome.name.lower()
                PROFILER.add(("walk", "gpt", f"gl{level}", outcome), latency)
            cycles += latency
            guest_accesses += 1
            if self.guest_pwc is not None:
                self.guest_pwc.fill(gvpn, level)
        guest_frame = host_frame = None
        if leaf_pte is not None:
            guest_frame = pte_frame(leaf_pte)
            self.host_walker.profile_context = ("walk", "hpt", "leaf")
            host_frame, walk_cycles, walk_accesses = self.host_translate(
                guest_frame
            )
            cycles += walk_cycles
            host_cycles += walk_cycles
            host_accesses += walk_accesses
        return NestedWalkResult(
            host_frame=host_frame,
            guest_frame=guest_frame,
            cycles=cycles,
            host_cycles=host_cycles,
            guest_accesses=guest_accesses,
            host_accesses=host_accesses,
        )


#: Guest frames of the twin VMs (16MB): data pages below, guest-PT nodes
#: from NODE_FRAMES up, the huge mapping's 512 frames at HUGE_FRAMES.
NODE_FRAMES = 1024
HUGE_FRAMES = 2048
#: First page of the guest's one huge mapping, clear of the clustered
#: mappings below it.
HUGE_VPN = 16 * PTES_PER_NODE


@st.composite
def nested_stacks(draw):
    """A random twin-stack recipe and a page sequence to walk.

    Hypothesis draws the sizes and a seed; the pages themselves come from
    that seed, so even early examples walk enough pages and guest-PT
    nodes to churn the 64-entry nested TLB and the PWCs.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    guest_levels = draw(st.sampled_from([4, 5]))
    span = 1 << (BITS_PER_LEVEL * guest_levels)
    in_huge = range(HUGE_VPN, HUGE_VPN + PTES_PER_NODE)
    # Clustered pages share leaf nodes; scattered ones bring their own.
    vpns = [
        rng.randrange(8 * PTES_PER_NODE)
        for _ in range(draw(st.integers(0, 40)))
    ]
    vpns += [rng.randrange(span) for _ in range(draw(st.integers(0, 48)))]
    mapping = {
        vpn: rng.randrange(NODE_FRAMES) for vpn in vpns if vpn not in in_huge
    }
    mapped = sorted(mapping)
    pages = []
    for _ in range(draw(st.integers(1, 200))):
        kind = rng.random()
        if mapped and kind < 0.7:
            pages.append(rng.choice(mapped))
        elif kind < 0.85:
            pages.append(rng.choice(in_huge))
        else:
            pages.append(rng.randrange(span))  # almost always a hole
    return {
        "guest_levels": guest_levels,
        "host_levels": draw(st.sampled_from([4, 5])),
        "pwc_entries": draw(st.sampled_from([None, 2, 8])),
        "mapping": mapping,
        "prebacked": [
            rng.randrange(4096) for _ in range(draw(st.integers(0, 20)))
        ],
        "pages": pages,
    }


def build_twin(walker_cls, recipe):
    host = HostKernel(
        HostConfig(memory_bytes=64 * MB, pt_levels=recipe["host_levels"])
    )
    vm = host.create_vm(16 * MB)
    node_frames = iter(range(NODE_FRAMES, HUGE_FRAMES))
    guest_pt = PageTable(
        lambda: next(node_frames), levels=recipe["guest_levels"]
    )
    for vpn, gfn in recipe["mapping"].items():
        guest_pt.map(vpn, gfn)
    guest_pt.map_huge(HUGE_VPN, HUGE_FRAMES)
    for gfn in recipe["prebacked"]:
        host.ensure_backed(vm, gfn)
    entries = recipe["pwc_entries"]
    pwcs = [
        None if entries is None else PageWalkCache(entries) for _ in range(2)
    ]
    hierarchy = CacheHierarchy(MachineConfig())
    accesses = record_accesses(hierarchy)
    walker = walker_cls(guest_pt, vm, host, hierarchy, *pwcs)
    return walker, host, hierarchy, pwcs, accesses


def record_accesses(hierarchy):
    """Log every ``hierarchy.access`` call, in order, as ``(address,
    stream, latency)``.

    Wraps the instance's ``access``, so the walker built after this
    reads the wrapper: the fused walker on each walk, the composed one
    when it builds its host :class:`PageWalker`.
    """
    log = []
    access = hierarchy.access

    def recorded(addr, stream="data"):
        latency = access(addr, stream)
        log.append((addr, stream, latency))
        return latency

    hierarchy.access = recorded
    return log


class TestNestedWalkAgainstReference:
    """The fused 2D walk must reproduce the composed walk it replaced:
    results, every cache access in order with its latency, cache traffic
    per stream, PWC and nested-TLB counts, EPT faults and profiler
    attribution."""

    @given(nested_stacks())
    @settings(max_examples=40, deadline=None)
    def test_fused_walk_matches_composed_walk(self, recipe):
        runs = []
        for walker_cls in (NestedWalker, RefNestedWalker):
            walker, host, hierarchy, pwcs, accesses = build_twin(
                walker_cls, recipe
            )
            with profiling() as profiler:
                results = [walker.walk(page) for page in recipe["pages"]]
            runs.append(
                {
                    "results": results,
                    "streams": hierarchy.streams,
                    "pwc": [
                        None if pwc is None else (pwc.hits, pwc.misses)
                        for pwc in pwcs
                    ],
                    "ntlb": (walker.ntlb_hits, walker.ntlb_misses),
                    "host": host.stats,
                    "profile": profiler.to_folded(),
                    "accesses": accesses,
                }
            )
        fused, reference = runs
        for mine, theirs in zip(fused["results"], reference["results"]):
            assert mine == theirs
        for key in ("accesses", "streams", "pwc", "ntlb", "host", "profile"):
            assert fused[key] == reference[key], key
        assert fused["accesses"], "no cache access was recorded"
