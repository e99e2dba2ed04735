"""Golden regression tests: pinned outputs for fixed seeds.

These pin the exact behaviour of the deterministic pipeline on fixed
inputs. They are intentionally brittle: any change to RNG consumption
order, sampling logic, or selection tie-breaking shows up here first,
so unintended behavioural drift cannot slip through the statistical
tests. When a change is *intended*, update the pinned values and say
so in the commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import SketchConfig, TagSelectionConfig, find_seeds, find_tags
from repro.datasets import bfs_targets, community_targets, yelp
from repro.engine import SamplingEngine
from repro.tags import collect_paths
from repro.utils.validation import as_target_array

CFG = SketchConfig(pilot_samples=100, theta_min=300, theta_max=1000)
TAGS_CFG = TagSelectionConfig(
    per_pair_paths=5, rr_theta=500, max_path_targets=20
)


@pytest.fixture(scope="module")
def golden_dataset():
    return yelp(scale=0.2, seed=13)


class TestGoldenDataset:
    def test_graph_shape_pinned(self, golden_dataset):
        g = golden_dataset.graph
        assert (g.num_nodes, g.num_edges, g.num_tags) == (240, 1385, 26)

    def test_probability_mean_pinned(self, golden_dataset):
        chars = golden_dataset.characteristics()
        assert chars["prob_mean"] == pytest.approx(0.3184, abs=0.001)

    def test_targets_pinned(self, golden_dataset):
        targets = community_targets(golden_dataset, "vegas", size=10, rng=0)
        assert targets.tolist() == sorted(targets.tolist())
        assert len(targets) == 10

    def test_bfs_targets_deterministic(self, golden_dataset):
        a = bfs_targets(golden_dataset.graph, 12)
        b = bfs_targets(golden_dataset.graph, 12)
        assert a.tolist() == b.tolist()


class TestGoldenSelections:
    def test_trs_seeds_pinned(self, golden_dataset):
        targets = community_targets(golden_dataset, "vegas", size=30, rng=0)
        tags = golden_dataset.graph.tags[:5]
        first = find_seeds(
            golden_dataset.graph, targets, tags, 3,
            engine="trs", config=CFG, rng=123,
        )
        second = find_seeds(
            golden_dataset.graph, targets, tags, 3,
            engine="trs", config=CFG, rng=123,
        )
        assert first.seeds == second.seeds
        assert len(first.seeds) == 3

    def test_path_pool_pinned(self, golden_dataset):
        targets = community_targets(golden_dataset, "vegas", size=15, rng=0)
        seeds = [int(t) for t in targets[:2]]
        pool_a = collect_paths(
            golden_dataset.graph, seeds, targets, TAGS_CFG, rng=7
        )
        pool_b = collect_paths(
            golden_dataset.graph, seeds, targets, TAGS_CFG, rng=7
        )
        assert [p.edge_ids for p in pool_a] == [p.edge_ids for p in pool_b]
        assert [p.tag_choices for p in pool_a] == [
            p.tag_choices for p in pool_b
        ]

    def test_batch_tags_pinned(self, golden_dataset):
        targets = community_targets(golden_dataset, "vegas", size=15, rng=0)
        seeds = [int(t) for t in targets[:2]]
        first = find_tags(
            golden_dataset.graph, seeds, targets, 4,
            method="batch", config=TAGS_CFG, rng=11,
        )
        second = find_tags(
            golden_dataset.graph, seeds, targets, 4,
            method="batch", config=TAGS_CFG, rng=11,
        )
        assert first.tags == second.tags
        assert first.estimated_spread == pytest.approx(
            second.estimated_spread
        )


class TestGoldenFig9:
    """The Figure 9 outputs are fully deterministic — pin them exactly."""

    def test_batch_selection_exact(self, fig9_graph):
        cfg = TagSelectionConfig(
            per_pair_paths=10, prob_floor=0.0, evaluator_mode="exact"
        )
        sel = find_tags(
            fig9_graph, (0, 1, 2), (6, 7, 8), 3,
            method="batch", config=cfg, rng=0,
        )
        assert sel.tags == ("c4", "c5", "c6")
        assert sel.estimated_spread == pytest.approx(2.6272, abs=0.001)

    def test_individual_selection_exact(self, fig9_graph):
        cfg = TagSelectionConfig(
            per_pair_paths=10, prob_floor=0.0, evaluator_mode="exact"
        )
        sel = find_tags(
            fig9_graph, (0, 1, 2), (6, 7, 8), 3,
            method="individual", config=cfg, rng=0,
        )
        assert sel.tags == ("c2", "c3", "c5")
        assert sel.estimated_spread == pytest.approx(1.44, abs=0.001)


def _digest(*arrays) -> str:
    """SHA-256 over the raw little-endian int64 bytes of ``arrays``."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


#: SHA-256 digests of the engine's sample streams on ``small_yelp``
#: (first 30 vegas targets, tags ``tags[:5]``, seeds = first 3 targets).
#: A stream changes iff its digest does; recompute only for an intended
#: change to sharding, seed spawning or a per-shard kernel.
ENGINE_STREAM_DIGESTS = {
    ("scalar", None, "rr"): (
        "e994c19a811d03d73b750952c7af8eeb"
        "64fe74dcf382a4b91d54dd7457e83469"
    ),
    ("scalar", None, "cascade"): (
        "01418786339b13ddf530bae2ea114672"
        "f6087282588068d2d0f5d07da884a8b0"
    ),
    ("bitparallel", None, "rr"): (
        "70cacfc0e8c083ba8d1e3723480fe63b"
        "0f5bad03004a69eb3a98dde745ce141b"
    ),
    ("bitparallel", None, "cascade"): (
        "0cc66b8868809cf8881954fd2c2b27d4"
        "3885fe62ebe31492e9188e145227f7d8"
    ),
    ("bitparallel", 1000, "rr"): (
        "e8defc6126ac5b27f3dad6589ed00284"
        "04306ea333758441215bf720a36d8636"
    ),
    ("bitparallel", 1000, "cascade"): (
        "998fc87c5bc1ecb94438f1c6c9de5c15"
        "75bcd0c71f328e4929ac248d94d26518"
    ),
}


class TestGoldenEngineStreams:
    """Bit-exact pins of :class:`SamplingEngine` sample streams."""

    @pytest.fixture(scope="class")
    def inputs(self, small_yelp):
        g = small_yelp.graph
        targets = community_targets(small_yelp, "vegas", size=30, rng=0)
        target_arr = as_target_array(targets, g.num_nodes, context="golden")
        probs = g.edge_probabilities(g.tags[:5])
        return g, target_arr, probs

    @pytest.mark.parametrize(
        "mode,shard_size,kind", list(ENGINE_STREAM_DIGESTS)
    )
    def test_stream_digest(self, inputs, mode, shard_size, kind):
        g, target_arr, probs = inputs
        engine = SamplingEngine(mode=mode, workers=1, shard_size=shard_size)
        if kind == "rr":
            rr = engine.sample_rr_sets(g, target_arr, probs, 3000, rng=2024)
            digest = _digest(rr.members, rr.indptr)
        else:
            counts = engine.cascade_target_counts(
                g, target_arr[:3], probs, 2500, target_arr, rng=2024
            )
            digest = _digest(counts)
        assert digest == ENGINE_STREAM_DIGESTS[(mode, shard_size, kind)]
