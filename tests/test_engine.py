"""Equivalence tests for the sharded sampling engine.

Three layers of evidence, mirroring the "scalar path is the correctness
oracle" stance (the bit-parallel kernel's per-world oracle checks live
in ``test_bitworld.py``):

* *certain-world* equivalence — with every coin forced (p = 1), the
  bit-parallel cascade must activate exactly the scalar cascade's nodes;
* *distributional* equivalence — with coins, engine estimates must
  converge to the exact possible-world oracle on enumerable graphs;
* *determinism* — the shard plan depends only on ``(total,
  shard_size)``, and the flat greedy coverage must reproduce the
  list-based greedy exactly (same seeds, same marginals, same
  tie-breaking).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import exact_spread, simulate_cascade
from repro.diffusion.monte_carlo import estimate_spread, target_mask
from repro.engine import (
    RRCollection,
    SamplingEngine,
    bitparallel_cascade_counts,
)
from repro.engine.parallel import _shard_counts
from repro.sketch import greedy_max_coverage

# ---------------------------------------------------------------------------
# Certain-world equivalence: bit-parallel vs scalar cascade
# ---------------------------------------------------------------------------


def test_certain_world_cascade_matches_scalar(diamond_graph):
    # probability-1 edges: both cascade paths are deterministic.
    edge_probs = np.ones(diamond_graph.num_edges)
    targets = np.arange(diamond_graph.num_nodes, dtype=np.int64)
    scalar = simulate_cascade(diamond_graph, [0], edge_probs, rng=0)
    counts = bitparallel_cascade_counts(
        diamond_graph, np.array([0], dtype=np.int64), edge_probs, 70,
        targets, key=1,
    )
    np.testing.assert_array_equal(counts, np.full(70, scalar.sum()))


# ---------------------------------------------------------------------------
# Distributional equivalence against the exact oracle
# ---------------------------------------------------------------------------


def test_engine_spread_converges_to_exact(fig4_graph):
    tags = ["c1", "c2", "c3"]
    exact = exact_spread(fig4_graph, [0, 3], [2, 5], tags)
    engine = SamplingEngine(mode="bitparallel", shard_size=256)
    value = estimate_spread(
        fig4_graph, [0, 3], [2, 5], tags,
        num_samples=20000, rng=11, engine=engine,
    )
    assert value == pytest.approx(exact, abs=0.05)


# ---------------------------------------------------------------------------
# RRCollection storage
# ---------------------------------------------------------------------------


def test_rr_collection_roundtrip():
    sets = [
        np.array([3, 1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([2, 3, 4], dtype=np.int64),
    ]
    rr = RRCollection.from_sets(sets, num_nodes=5)
    assert len(rr) == 3
    assert rr.total_members == 6
    for got, want in zip(rr, sets):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rr[1], sets[1])


def test_rr_collection_concat_and_truncate():
    a = RRCollection.from_sets([np.array([0, 1])], num_nodes=4)
    b = RRCollection.from_sets([np.array([2]), np.array([3, 0])], num_nodes=4)
    merged = RRCollection.concat([a, b])
    assert len(merged) == 3
    np.testing.assert_array_equal(merged[2], [3, 0])
    head = merged[:2]
    assert isinstance(head, RRCollection)
    assert len(head) == 2
    np.testing.assert_array_equal(head[1], [2])
    assert len(merged.truncated(10)) == 3  # clamps, never over-reads


def test_rr_collection_inverted_index():
    rr = RRCollection.from_sets(
        [np.array([1, 2]), np.array([2]), np.array([0, 2])], num_nodes=3
    )
    indptr, set_ids = rr.inverted()
    # node 2 appears in all three sets, node 0 only in set 2.
    assert set(set_ids[indptr[2]:indptr[3]].tolist()) == {0, 1, 2}
    assert set_ids[indptr[0]:indptr[1]].tolist() == [2]
    np.testing.assert_array_equal(rr.member_counts(), [1, 1, 3])


def test_rr_collection_empty():
    rr = RRCollection(
        np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 4
    )
    assert len(rr) == 0
    assert greedy_max_coverage(rr, 2, 4).covered == 0


# ---------------------------------------------------------------------------
# Flat greedy coverage == list greedy coverage (exact, incl. tie-breaks)
# ---------------------------------------------------------------------------

rr_set_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(sets=rr_set_lists, k=st.integers(min_value=1, max_value=4))
def test_flat_greedy_matches_list_greedy(sets, k):
    arrays = [np.unique(np.array(s, dtype=np.int64)) for s in sets]
    flat = RRCollection.from_sets(arrays, num_nodes=8)
    want = greedy_max_coverage(arrays, k, 8)
    got = greedy_max_coverage(flat, k, 8)
    assert got.seeds == want.seeds
    assert got.covered == want.covered
    assert got.total == want.total
    assert got.marginal_covered == want.marginal_covered


def test_flat_greedy_respects_candidates():
    arrays = [np.array([0, 1]), np.array([1, 2]), np.array([1])]
    flat = RRCollection.from_sets(arrays, num_nodes=3)
    candidates = np.array([0, 2], dtype=np.int64)
    want = greedy_max_coverage(arrays, 2, 3, candidate_nodes=candidates)
    got = greedy_max_coverage(flat, 2, 3, candidate_nodes=candidates)
    assert got.seeds == want.seeds
    assert got.covered == want.covered


# ---------------------------------------------------------------------------
# Shard plan
# ---------------------------------------------------------------------------


def test_shard_counts_partition():
    assert _shard_counts(0, 512) == []
    assert _shard_counts(100, 512) == [100]
    assert _shard_counts(1030, 512) == [512, 512, 6]
    assert sum(_shard_counts(9999, 128)) == 9999


# ---------------------------------------------------------------------------
# Engine-threaded high-level APIs
# ---------------------------------------------------------------------------


def test_estimate_spread_accepts_precomputed_mask(fig9_graph):
    tags = ["c1", "c2", "c5"]
    mask = target_mask(fig9_graph, [6, 7, 8])
    a = estimate_spread(
        fig9_graph, [0], [6, 7, 8], tags, num_samples=500, rng=1
    )
    b = estimate_spread(
        fig9_graph, [0], None, tags, num_samples=500, rng=1,
        targets_mask=mask,
    )
    assert a == pytest.approx(b)


def test_scalar_mode_engine_matches_vectorized_distribution(fig4_graph):
    tags = ["c1", "c2", "c3"]
    exact = exact_spread(fig4_graph, [0, 3], [2, 5], tags)
    engine = SamplingEngine(mode="scalar", workers=1, shard_size=4096)
    value = estimate_spread(
        fig4_graph, [0, 3], [2, 5], tags,
        num_samples=8000, rng=2, engine=engine,
    )
    assert value == pytest.approx(exact, abs=0.07)


def test_find_seeds_with_sampler_all_engines(small_yelp):
    from repro import find_seeds

    graph = small_yelp.graph
    targets = list(range(0, 30))
    tags = list(graph.tags[:3])
    with SamplingEngine(mode="bitparallel") as engine:
        for algo in ("trs", "imm", "ltrs", "lltrs"):
            sel = find_seeds(
                graph, targets, tags, 3, engine=algo, rng=17, sampler=engine
            )
            assert len(sel.seeds) == 3
            assert sel.estimated_spread >= 0.0
