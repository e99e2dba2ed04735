"""Shared fixtures: the paper's worked examples and small synthetic data.

``fig4_graph`` and ``fig9_graph`` are exact reconstructions of the
paper's Figure 4 (non-submodularity counterexample) and Figure 9 / 10
(tag-selection worked example); every probability was recovered from
the arithmetic in the paper's text, so the expected spreads (0.3 /
1.02, 0.81, 2.21, 2.61, …) are testable to machine precision through
the exact possible-world oracle.
"""

from __future__ import annotations

import pytest

from repro.datasets import lastfm, yelp
from repro.graphs import TagGraphBuilder


@pytest.fixture
def fig4_graph():
    """Paper Figure 4: two disjoint 2-hop chains, tag-disjoint edges.

    Nodes: s1=0, v1=1, t1=2, s2=3, v2=4, t2=5.
    Seeds {s1, s2}, targets {t1, t2}.
    σ(·, {c1}) = 0.3 and σ(·, {c1, c2, c3}) = 1.02 — the
    non-submodularity counterexample of Lemma 1.
    """
    builder = TagGraphBuilder(6)
    builder.add(0, 1, "c1", 0.5)
    builder.add(1, 2, "c1", 0.6)
    builder.add(3, 4, "c2", 0.8)
    builder.add(4, 5, "c3", 0.9)
    return builder.build()


#: Figure 9 edge list: (name, u, v, tag, prob). Node ids: A..I = 0..8.
FIG9_EDGES = [
    ("e1", 0, 1, "c1", 0.9),
    ("e2", 2, 1, "c6", 0.8),
    ("e3", 0, 3, "c2", 0.9),
    ("e4", 1, 4, "c5", 0.7),
    ("e5", 2, 4, "c5", 0.9),
    ("e6", 2, 5, "c5", 0.9),
    ("e7", 1, 6, "c4", 0.8),
    ("e8", 3, 6, "c3", 0.9),
    ("e9", 0, 7, "c6", 0.6),
    ("e10", 4, 7, "c4", 0.8),
    ("e11", 4, 8, "c6", 0.8),
    ("e12", 5, 8, "c5", 0.7),
]

FIG9_SEEDS = (0, 1, 2)  # A, B, C
FIG9_TARGETS = (6, 7, 8)  # G, H, I


@pytest.fixture
def fig9_graph():
    """Paper Figure 9: the tag-selection worked example (Examples 3 & 4)."""
    builder = TagGraphBuilder(9)
    for _name, u, v, tag, prob in FIG9_EDGES:
        builder.add(u, v, tag, prob)
    return builder.build()


@pytest.fixture
def line_graph():
    """0 → 1 → 2 → 3 chain, one tag per edge, probability 0.5 each."""
    builder = TagGraphBuilder(4)
    builder.add(0, 1, "a", 0.5)
    builder.add(1, 2, "b", 0.5)
    builder.add(2, 3, "c", 0.5)
    return builder.build()


@pytest.fixture
def diamond_graph():
    """0 → {1, 2} → 3 diamond with overlapping tags.

    Edge (0,1): tags a=0.8, b=0.4; (0,2): a=0.5; (1,3): b=0.6;
    (2,3): c=0.9.
    """
    builder = TagGraphBuilder(4)
    builder.add(0, 1, "a", 0.8)
    builder.add(0, 1, "b", 0.4)
    builder.add(0, 2, "a", 0.5)
    builder.add(1, 3, "b", 0.6)
    builder.add(2, 3, "c", 0.9)
    return builder.build()


@pytest.fixture(scope="session")
def small_yelp():
    """Session-scoped small Yelp analogue for integration-ish tests."""
    return yelp(scale=0.15, seed=13)


@pytest.fixture(scope="session")
def small_lastfm():
    """Session-scoped small lastFM analogue."""
    return lastfm(scale=0.5, seed=7)


@pytest.fixture
def interrupt_after_shards(monkeypatch):
    """Arm the engine to raise ``KeyboardInterrupt`` after ``n`` shards.

    ``interrupt_after_shards(n)`` wraps the engine's RR and cascade
    shard workers: the first ``n`` shard executions (counted across
    operations, preloaded checkpoint shards excluded) run normally, the
    next one raises ``KeyboardInterrupt`` — an interrupt at an exact,
    reproducible shard boundary, as a SIGINT between shards would be.
    Returns the mutable ``{"done": count}`` state.
    """
    from repro.engine import parallel

    def arm(n: int) -> dict:
        state = {"done": 0}

        def wrap(shard_fn):
            def shard(*args):
                if state["done"] >= n:
                    raise KeyboardInterrupt(
                        f"interrupt after {state['done']} shards"
                    )
                result = shard_fn(*args)
                state["done"] += 1
                return result

            return shard

        for name in ("_rr_shard", "_cascade_shard"):
            monkeypatch.setattr(parallel, name, wrap(getattr(parallel, name)))
        return state

    return arm
