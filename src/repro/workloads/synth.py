"""Reusable synthetic access-pattern generators.

Building blocks shared by the workload models: sequential sweeps, strided
touches, Zipf-distributed random page picks (the canonical model of skewed
data-structure access), and windowed streaming. All generators are driven
by an injected ``random.Random`` so streams stay deterministic per seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Sequence

import numpy as np

from .base import AccessOp

#: Draws per numpy call in :func:`zipf_page_sequence`.
ZIPF_CHUNK = 65_536


def sequential_touch(
    region: str, npages: int, blocks_per_page: int = 1, write: bool = True
) -> Iterator[AccessOp]:
    """Touch every page of a region in order (initialisation sweep).

    ``blocks_per_page`` > 1 touches several cache blocks per page, as an
    initialising memset would.
    """
    step = max(1, 64 // max(1, blocks_per_page))
    for page in range(npages):
        for block in range(0, blocks_per_page * step, step):
            yield AccessOp(region, page, block % 64, write)


def strided_touch(
    region: str, npages: int, stride: int, write: bool = True
) -> Iterator[AccessOp]:
    """Touch every ``stride``-th page (the §6.2 adversarial pattern)."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    for page in range(0, npages, stride):
        yield AccessOp(region, page, 0, write)


def zipf_page_sequence(
    rng: random.Random,
    npages: int,
    count: int,
    alpha: float = 0.9,
) -> Iterator[int]:
    """Draw ``count`` page indices from a Zipf-like distribution.

    Pages are ranked by a random permutation so the hot set is scattered
    across the region (as hash-indexed structures are), then ranks are
    sampled with probability proportional to ``1 / rank**alpha``. Uses
    numpy for the heavy lifting; the permutation and draws are fully
    seeded from ``rng``.

    The numpy seed is drawn from ``rng`` at the call, so the caller's
    stream advances exactly as it would for an eager list. The pages come
    lazily, :data:`ZIPF_CHUNK` ranks per numpy call from the one
    generator: ``choice(..., p=)`` spends one uniform double per draw, so
    the chunks concatenate to exactly the one-shot draw, while memory
    stays bounded by one chunk however long the stream is.
    """
    if npages <= 0 or count < 0:
        raise ValueError("npages must be positive, count non-negative")
    np_rng = np.random.default_rng(rng.getrandbits(63))
    ranks = np.arange(1, npages + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    permutation = np_rng.permutation(npages)
    # One chunk list at a time, each iterated in C: the stream costs no
    # Python frame per page.
    return itertools.chain.from_iterable(
        permutation[
            np_rng.choice(npages, size=min(ZIPF_CHUNK, count - start), p=weights)
        ].tolist()
        for start in range(0, count, ZIPF_CHUNK)
    )


def random_pages(
    rng: random.Random, npages: int, count: int
) -> List[int]:
    """Uniform random page indices (pointer-chasing model, e.g. mcf)."""
    return [rng.randrange(npages) for _ in range(count)]


def windowed_stream(
    region: str,
    npages: int,
    window_pages: int,
    accesses: int,
    rng: random.Random,
    run_pages: int = 1,
) -> Iterator[AccessOp]:
    """Stream through a region with random accesses inside a sliding window.

    Models compression-style workloads (xz): the window advances
    sequentially while match look-ups jump around within it. Each look-up
    touches a short run of ``run_pages`` adjacent pages (a match is a
    contiguous byte range), which is the spatial locality that lets
    neighbouring-page walks share one hPTE cache block (§2.6).
    """
    if window_pages <= 0 or run_pages <= 0:
        raise ValueError("window_pages and run_pages must be positive")
    window_start = 0
    emitted = 0
    while emitted < accesses:
        offset = rng.randrange(min(window_pages, npages))
        base = (window_start + offset) % npages
        block = rng.randrange(64)
        for delta in range(min(run_pages, accesses - emitted)):
            page = (base + delta) % npages
            # A match is a contiguous byte range: blocks advance
            # sequentially through the run, so the *data* stream is
            # cache-friendly while the page stream still pressures the TLB.
            yield AccessOp(region, page, (block + delta) % 64, write=False)
            emitted += 1
        window_start = (window_start + 1) % npages


def local_runs(
    region: str,
    bases: Iterator[int],
    npages: int,
    run_pages: int,
    rng: random.Random,
    write_every: int = 0,
) -> Iterator[AccessOp]:
    """Expand base-page picks into runs of adjacent-page accesses.

    For each base page, touch ``run_pages`` consecutive pages -- the
    spatial-locality pattern (§2.6) under which PTEMagnet's grouped hPTEs
    are reused across the walks of neighbouring pages. ``write_every``
    marks every n-th access as a store (0 = all loads).
    """
    if run_pages <= 0:
        raise ValueError("run_pages must be positive")
    count = 0
    # getrandbits rejection sampling reproduces randrange(64)'s exact
    # draw sequence (7 bits, retry on >= 64) without its two call layers;
    # this generator runs once per simulated access for several models.
    getrandbits = rng.getrandbits
    for base in bases:
        for delta in range(run_pages):
            page = min(base + delta, npages - 1)
            count += 1
            write = bool(write_every) and count % write_every == 0
            block = getrandbits(7)
            while block >= 64:
                block = getrandbits(7)
            yield AccessOp(region, page, block, write)


def interleave(*streams: Sequence[Iterator[AccessOp]]) -> Iterator[AccessOp]:
    """Round-robin merge of several op streams until all are exhausted."""
    iterators = [iter(stream) for stream in streams]
    while iterators:
        still_live = []
        for iterator in iterators:
            try:
                yield next(iterator)
            except StopIteration:
                continue
            still_live.append(iterator)
        iterators = still_live
