"""Forked pool workers start from a frozen parent heap.

``_spawn_worker`` freezes the parent's collector around each ``fork``
start so the child's first full collection does not touch (and so
privately copy) every inherited page, then unfreezes it: the parent's
own collector must see every object again, after the first start and
after a respawn alike, and answers must not change.
"""

import gc

import pytest

from repro.core import RingIndex
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.generators import random_graph
from repro.parallel import ParallelRingIndex

X, Y, Z = Var("x"), Var("y"), Var("z")
TRIANGLE = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z), TriplePattern(Z, 0, X)]
)


@pytest.fixture(scope="module")
def graph():
    return random_graph(2000, n_nodes=50, n_predicates=3, seed=7)


def test_spawn_and_respawn_leave_the_parent_unfrozen(graph, monkeypatch):
    freezes = []
    real_freeze = gc.freeze

    def counting_freeze():
        freezes.append(1)
        real_freeze()

    monkeypatch.setattr(gc, "freeze", counting_freeze)
    reference = list(RingIndex(graph).evaluate(TRIANGLE))
    assert gc.get_freeze_count() == 0
    index = ParallelRingIndex(
        graph, workers=2, num_slices=4, start_method="fork"
    )
    try:
        assert len(freezes) == 2  # one per forked worker
        assert gc.get_freeze_count() == 0
        assert list(index.evaluate(TRIANGLE)) == reference
        index.pool._kill_after_dispatch = 0
        assert list(index.evaluate(TRIANGLE)) == reference
        assert index.pool_stats()["respawns"] >= 1
        assert len(freezes) >= 3
        assert gc.get_freeze_count() == 0
        assert list(index.evaluate(TRIANGLE)) == reference
    finally:
        index.close()
