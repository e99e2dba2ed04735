"""seeds-twitter: closed loop, one client, ``find_seeds`` on Twitter-1.0.

The queries come from a fixed catalog of ``CATALOG`` campaigns: each
asks for k = 5 seeds under 1-5 tags for 60-300 targets of one cluster,
and a third each run on ``trs`` and ``imm`` (through one single-process
bit-parallel ``SamplingEngine``) and ``lltrs`` (scalar, as the joint
loop runs it). The workload seed shuffles the catalog once per pass and
draws every query's RNG seed. A query's cost varies tenfold with its
θ, so a run that sampled campaigns freshly would time a different mix
each seed; a run covers the whole catalog several times instead. No
query enumerates a path, so a tag-finding change must leave this
workload unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Tuple

import numpy as np

import common

K = 5
ENGINES = ("trs", "imm", "lltrs")
CATALOG = 30
CATALOG_SEED = 2018
SLO_S = 2.0


@dataclass(frozen=True)
class Campaign:
    engine: str
    targets: Tuple[int, ...]
    tags: Tuple[str, ...]


@dataclass(frozen=True)
class Query:
    campaign: Campaign
    rng_seed: int


@dataclass
class Context:
    data: Any
    sampler: Any
    config: Any
    catalog: List[Campaign]


def catalog(data) -> List[Campaign]:
    from repro.datasets import community_targets

    rng = np.random.default_rng(CATALOG_SEED)
    tags = list(data.graph.tags)
    clusters = data.community_names
    out = []
    for i in range(CATALOG):
        chosen = rng.choice(tags, size=int(rng.integers(1, 6)), replace=False)
        targets = community_targets(
            data, clusters[int(rng.integers(len(clusters)))],
            size=int(rng.integers(60, 301)), rng=int(rng.integers(2**31)),
        )
        out.append(Campaign(
            ENGINES[i % len(ENGINES)],
            tuple(int(t) for t in targets),
            tuple(sorted(str(t) for t in chosen)),
        ))
    return out


class SeedsTwitter:
    slo_s = SLO_S

    def setup(self) -> Context:
        from repro import SamplingEngine, SketchConfig, find_seeds
        from repro.datasets import twitter

        data = twitter(scale=1.0, seed=13)
        sampler = SamplingEngine(mode="bitparallel", workers=1)
        config = SketchConfig()
        # Warm-up: one small query per engine fills lazy graph caches.
        for engine in ENGINES:
            find_seeds(
                data.graph, range(60), data.graph.tags[:1], K,
                engine=engine, config=config, rng=0,
                sampler=sampler if engine != "lltrs" else None,
            )
        return Context(data, sampler, config, catalog(data))

    def close(self, ctx: Context) -> None:
        ctx.sampler.close()

    def queries(self, ctx: Context, seed: int) -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        while True:
            for i in rng.permutation(len(ctx.catalog)):
                yield Query(ctx.catalog[int(i)], int(rng.integers(2**31)))

    def execute(self, ctx: Context, query: Query):
        from repro import find_seeds

        c = query.campaign
        return find_seeds(
            ctx.data.graph, c.targets, c.tags, K,
            engine=c.engine, config=ctx.config, rng=query.rng_seed,
            sampler=ctx.sampler if c.engine != "lltrs" else None,
        )

    def answer_key(self, answer) -> Tuple:
        return (answer.seeds, answer.estimated_spread)

    def check(self, ctx: Context, query: Query, answer) -> List[str]:
        return common.check_seeds(answer.seeds, K, ctx.data.graph.num_nodes)

    def spread_ratio(self, ctx, query, answer, verifier) -> float:
        return verifier.ratio(
            ctx.data.graph, answer.seeds, query.campaign.targets,
            query.campaign.tags,
        )


WORKLOAD = SeedsTwitter()
