"""The ring's scalar rank paths agree with their reference forms on
every backing.

Scalar ``rank1``/``rank0``/``select0``/``__getitem__`` read the counters
through memoryviews, ``WaveletMatrix.rank_pair`` walks both ends of a
zone range in one descent, and ``access_rank1_many`` fuses the access
and rank gathers of the decoding descent.  Each must answer exactly like
the form it stands for — on plain and RRR bitvectors, and on a ring
built in memory, read eagerly from a frozen pack, memory-mapped from
that pack and attached from shared memory.
"""

import tempfile
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import open_frozen_ring, write_frozen_ring
from repro.core.ring import Ring
from repro.graph.generators import random_graph
from repro.graph.model import O, P, S
from repro.parallel.shm import attach_ring, detach_ring, export_ring

graphs = st.builds(
    random_graph,
    n_triples=st.integers(1, 1200),
    n_nodes=st.integers(2, 40),
    n_predicates=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)


@contextmanager
def backings(graph):
    """``{name: ring}`` for every way a ring's arrays can be backed."""
    ring = Ring(graph)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/g.ring"
        write_frozen_ring(
            ring, path, n_nodes=graph.n_nodes, n_predicates=graph.n_predicates
        )
        shared = export_ring(ring)
        attached = attach_ring(shared.handle)
        try:
            yield {
                "memory": ring,
                "rrr": Ring(graph, compressed=True),
                "eager-pack": open_frozen_ring(path, mmap=False)[0],
                "mmap-pack": open_frozen_ring(path, mmap=True)[0],
                "shm": attached,
            }
        finally:
            detach_ring(attached)
            shared.close()


def _marks(n: int) -> list[int]:
    """0, n, every multiple of 64 (so of 512) up to n, and their
    neighbours, clipped to ``[0, n]``."""
    points = set(range(0, n + 1, 64)) | {0, n}
    return sorted({q for p in points for q in (p - 1, p, p + 1) if 0 <= q <= n})


def _check_bitvector(bv, rng) -> None:
    n = len(bv)
    bits = bv.to_bool_array()
    ones = np.concatenate([[0], np.cumsum(bits)])
    marks = _marks(n)
    for p in marks:
        assert bv.rank1(p) == ones[p] == bv.rank1_many([p])[0]
        assert bv.rank0(p) == p - ones[p] == bv.rank0_many([p])[0]
        if p < n:
            assert bv[p] == bits[p] == bv.access_many([p])[0]
    zero_at = np.flatnonzero(~bits)
    for k in {p - ones[p] + 1 for p in marks} | {1, len(zero_at)}:
        if 1 <= k <= len(zero_at):
            assert bv.select0(int(k)) == zero_at[k - 1]
    if n:
        inner = [p for p in marks if p < n]
        pos = np.concatenate([inner, rng.integers(0, n, 32)]).astype(np.int64)
        got_bits, got_ranks = bv.access_rank1_many(pos)
        assert got_bits.tolist() == bv.access_many(pos).tolist()
        assert got_ranks.tolist() == bv.rank1_many(pos).tolist()


def _rank_pairs(wm, rng) -> list:
    n, sigma = len(wm), wm.sigma
    ends = _marks(n) + [-3, n + 5]
    symbols = {-1, 0, sigma - 1, sigma, sigma + 7}
    symbols |= set(rng.integers(0, sigma, 6).tolist())
    out = []
    for c in sorted(symbols):
        for _ in range(12):
            lo, hi = (int(x) for x in rng.choice(ends, 2))
            for a, b in ((lo, hi), (lo, lo), (hi, lo)):  # incl. empty ranges
                pair = wm.rank_pair(c, a, b)
                assert pair == (wm.rank(c, a), wm.rank(c, b)), (c, a, b)
                out.append(pair)
    return out


@given(graphs, st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_scalar_and_fused_paths_match_on_every_backing(graph, seed):
    with backings(graph) as rings:
        expected = None
        for name, ring in rings.items():
            pairs = []
            for zone in (S, P, O):
                wm = ring.zone_sequence(zone)
                for bv in wm._bits:
                    _check_bitvector(bv, np.random.default_rng(seed))
                pairs += _rank_pairs(wm, np.random.default_rng(seed))
            # Same draws everywhere, so every backing answers the same.
            expected = pairs if expected is None else expected
            assert pairs == expected, name
