"""Concurrency of the mutable serving substrate.

**No torn reads.** A query is pinned to one ``(graph, epoch)`` pair for
its whole lifetime; a writer storming edits underneath concurrent
readers never produces an answer that mixes epochs. The proof is
behavioural: every answer is recomputed from a cold build on
``MutableTagGraph.snapshot(answer.epoch)`` — the historical-epoch
replay — and must match bit-for-bit. (Worker death under edits is
exercised against the real process fleet in ``test_shard_chaos.py``.)
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.joint import JointConfig
from repro.serve.server import CampaignServer
from repro.sketch import (
    SketchConfig,
    trs_build_repairable_sketch,
    trs_select_from_sketch,
)

from tests.test_mutable_differential import TAGS, EditStorm, make_graph

SMALL = SketchConfig(theta_min=64, theta_max=256, pilot_samples=60)

N_READERS = 3
QUERIES_PER_READER = 6
WRITER_BATCHES = 5


def _cold_seeds(mutable, epoch, targets, seed):
    """Library-level recomputation of the answer at a pinned epoch."""
    snap = mutable.snapshot(epoch)
    sketch = trs_build_repairable_sketch(
        snap, targets, TAGS, 3, seed=seed, config=SMALL, mode="scalar"
    )
    return trs_select_from_sketch(snap, sketch, 3).seeds


def test_readers_never_see_torn_epochs_during_edit_storm():
    rng = np.random.default_rng(404)
    graph = make_graph(rng, n=40, m=160)
    server = CampaignServer(
        graph, config=JointConfig(sketch=SMALL), mutable=True, pool_size=3
    )
    targets = list(range(0, graph.num_nodes, 2))
    per_reader: dict[int, list] = {r: [] for r in range(N_READERS)}
    errors: list[BaseException] = []
    started = threading.Barrier(N_READERS + 1)

    def reader(rid: int) -> None:
        try:
            started.wait(timeout=10)
            for i in range(QUERIES_PER_READER):
                seed = rid * 100 + i
                resp = server.find_seeds(
                    targets, list(TAGS), 3, engine="trs", seed=seed
                )
                per_reader[rid].append((resp.epoch, seed, resp.seeds))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def writer() -> None:
        try:
            started.wait(timeout=10)
            storm = EditStorm(graph, np.random.default_rng(405))
            for _ in range(WRITER_BATCHES):
                server.apply_edits(storm.batch(3))
                time.sleep(0.01)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(r,)) for r in range(N_READERS)
    ]
    threads.append(threading.Thread(target=writer))
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert server.epoch == WRITER_BATCHES

        mutable = server.mutable_graph
        for rid, answers in per_reader.items():
            assert len(answers) == QUERIES_PER_READER
            epochs = [e for e, _, _ in answers]
            # A reader issues queries sequentially, and epochs only
            # ever advance — so its observed epochs are monotone.
            assert epochs == sorted(epochs), (rid, epochs)
            for epoch, seed, seeds in answers:
                assert seeds == _cold_seeds(mutable, epoch, targets, seed), (
                    f"reader {rid} answer at epoch {epoch} (seed {seed}) "
                    "does not match a cold build of that epoch — torn read"
                )
    finally:
        server.close()
