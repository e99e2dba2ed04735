"""joint-yelp: closed loop, one client, ``jointly_select`` on Yelp-0.5.

Quickstart-style campaign queries: k = r = 5 over the 60-node
``community_targets`` of each of the three cities, cycled in a fixed
order; the per-query RNG seed is drawn from the workload seed. Path
enumeration dominates this query, LL-TRS traversal is second and the
joint loop's Monte-Carlo re-measure third.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Tuple

import numpy as np

import common

K = R = 5
TARGET_SIZE = 60
#: One alternating round per query (see README.md: a three-round query
#: runs 13-26 s, too long to time enough of them in one run).
MAX_ROUNDS = 1
SLO_S = 30.0


@dataclass(frozen=True)
class Query:
    city: int
    rng_seed: int


@dataclass
class Context:
    graph: Any
    targets: List[Tuple[int, ...]]
    config: Any


class JointYelp:
    slo_s = SLO_S

    def setup(self) -> Context:
        from repro import JointConfig, SketchConfig, TagSelectionConfig
        from repro.datasets import community_targets, yelp

        data = yelp(scale=0.5, seed=13)
        graph = data.graph
        # Lazy graph caches every query reads; built here, not in query 1.
        graph.forward_csr()
        graph.edge_tag_neglogs()
        targets = [
            tuple(int(t) for t in community_targets(
                data, city, size=TARGET_SIZE, rng=i))
            for i, city in enumerate(data.community_names)
        ]
        config = JointConfig(
            max_rounds=MAX_ROUNDS,
            sketch=SketchConfig(
                pilot_samples=150, theta_min=500, theta_max=3000),
            tag_config=TagSelectionConfig(
                per_pair_paths=5, max_path_targets=40),
            eval_samples=200,
        )
        return Context(graph, targets, config)

    def close(self, ctx: Context) -> None:
        pass

    def queries(self, ctx: Context, seed: int) -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        i = 0
        while True:
            yield Query(i % len(ctx.targets), int(rng.integers(2**31)))
            i += 1

    def execute(self, ctx: Context, query: Query):
        from repro import JointQuery, jointly_select

        return jointly_select(
            ctx.graph,
            JointQuery(ctx.targets[query.city], k=K, r=R),
            ctx.config,
            rng=query.rng_seed,
        )

    def answer_key(self, answer) -> Tuple:
        return (answer.seeds, answer.tags, answer.spread, answer.rounds)

    def check(self, ctx: Context, query: Query, answer) -> List[str]:
        return (common.check_seeds(answer.seeds, K, ctx.graph.num_nodes)
                + common.check_tags(answer.tags, R, ctx.graph.tags))

    def spread_ratio(self, ctx, query, answer, verifier) -> float:
        return verifier.ratio(
            ctx.graph, answer.seeds, ctx.targets[query.city], answer.tags
        )


WORKLOAD = JointYelp()
