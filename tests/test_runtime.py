"""Tests for the engine runtime: shard loop, budgets, interrupts, telemetry.

The core claim under test: **stopping a run never corrupts it**. A
budget stop hands back a prefix of the clean run, an interrupt
propagates as ``KeyboardInterrupt`` at a shard boundary, and every
high-level entry point wraps the partial work it can salvage.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.diffusion.monte_carlo import estimate_spread
from repro.engine import (
    Deadline,
    RunBudget,
    RunTelemetry,
    SamplingEngine,
)
from repro.engine.rr_storage import RRCollection
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.seeds.api import find_seeds
from repro.sketch.trs import trs_select_seeds
from repro.utils.validation import as_target_array


@pytest.fixture(scope="module")
def query(small_yelp):
    graph = small_yelp.graph
    targets = as_target_array(
        list(range(12)), graph.num_nodes, context="test"
    )
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    return graph, targets, edge_probs


def _rr(engine, query, theta=64, seed=11):
    graph, targets, edge_probs = query
    return engine.sample_rr_sets(
        graph, targets, edge_probs, theta, np.random.default_rng(seed)
    )


def _assert_same(a: RRCollection, b: RRCollection) -> None:
    np.testing.assert_array_equal(a.members, b.members)
    np.testing.assert_array_equal(a.indptr, b.indptr)


def _clean(query, theta=64, seed=11, **kwargs):
    with SamplingEngine(shard_size=8, **kwargs) as engine:
        return _rr(engine, query, theta=theta, seed=seed)


# ---------------------------------------------------------------------------
# Policy / budget primitives
# ---------------------------------------------------------------------------


def test_deadline_never_and_expiry():
    assert not Deadline(None).expired()
    assert Deadline(None).remaining() is None
    expired = Deadline(1e-9)
    time.sleep(0.005)
    assert expired.expired()
    assert expired.remaining() <= 0.0
    with pytest.raises(ConfigurationError):
        Deadline(0.0)


def test_budget_sample_cap_trips():
    budget = RunBudget(max_samples=10)
    budget.charge_samples(10)  # exactly at the cap: fine
    with pytest.raises(BudgetExceededError) as info:
        budget.charge_samples(1, partial="kept")
    assert info.value.reason == "max_samples"
    assert info.value.partial == "kept"


def test_budget_member_cap_trips():
    budget = RunBudget(max_rr_members=100)
    budget.charge_rr_members(60)
    with pytest.raises(BudgetExceededError) as info:
        budget.charge_rr_members(60)
    assert info.value.reason == "max_rr_members"


def test_telemetry_merge_and_summary():
    a = RunTelemetry(shards_run=3, checkpoint_writes=1)
    b = RunTelemetry(shards_run=2, checkpoint_loads=1)
    a.merge(b)
    assert a.shards_run == 5
    assert a.checkpoint_loads == 1
    assert "checkpoint_writes=1" in a.summary()
    assert RunTelemetry().summary() == "clean"
    with pytest.raises(TypeError):
        RunTelemetry(shards_retried=1)


def test_engine_validates_configuration():
    with pytest.raises(ConfigurationError):
        SamplingEngine(workers=0)
    with pytest.raises(ConfigurationError, match="shard fleet"):
        SamplingEngine(workers=2)
    with pytest.raises(ConfigurationError):
        SamplingEngine(mode="vectorized")
    with pytest.raises(ConfigurationError):
        SamplingEngine(shard_size=0)
    assert SamplingEngine(workers=1).mode == "bitparallel"


# ---------------------------------------------------------------------------
# Interrupts
# ---------------------------------------------------------------------------


def test_injected_interrupt_raises_keyboard_interrupt(
    query, interrupt_after_shards
):
    state = interrupt_after_shards(3)
    with SamplingEngine(shard_size=8) as engine:
        with pytest.raises(KeyboardInterrupt):
            _rr(engine, query)
        assert engine.telemetry.shards_run == 3
    assert state["done"] == 3


def test_for_query_isolates_telemetry(query):
    parent = SamplingEngine(mode="scalar", shard_size=16)
    view = parent.for_query()
    assert (view.mode, view.shard_size) == ("scalar", 16)
    assert view.checkpoint is None
    _rr(view, query)
    assert view.telemetry.shards_run == 4
    assert parent.telemetry.shards_run == 0
    _assert_same(_rr(parent, query), _rr(parent.for_query(), query))


# ---------------------------------------------------------------------------
# Budgets through the stack
# ---------------------------------------------------------------------------


def test_engine_budget_partial_is_prefix(query):
    clean = _clean(query)
    budget = RunBudget(max_rr_members=int(clean.members.size * 0.4))
    with SamplingEngine(shard_size=8) as engine:
        graph, targets, edge_probs = query
        with pytest.raises(BudgetExceededError) as info:
            engine.sample_rr_sets(
                graph, targets, edge_probs, 64,
                np.random.default_rng(11), budget=budget,
            )
    partial = info.value.partial
    assert isinstance(partial, RRCollection)
    assert 0 < len(partial) < 64
    # The partial is a prefix of the clean run, not some reshuffle.
    np.testing.assert_array_equal(
        partial.members, clean.members[: partial.members.size]
    )


def test_scalar_path_budget_partial(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with pytest.raises(BudgetExceededError) as info:
        estimate_spread(
            graph, list(range(3)), list(range(20)), tags,
            num_samples=50, rng=0, budget=RunBudget(wall_seconds=1e-6),
        )
    assert isinstance(info.value.partial, float)


def test_trs_budget_partial_result(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with SamplingEngine(shard_size=8) as engine:
        with pytest.raises(BudgetExceededError) as info:
            trs_select_seeds(
                graph, list(range(20)), tags, 3, rng=5, engine=engine,
                budget=RunBudget(max_samples=100),
            )
    partial = info.value.partial
    assert partial is not None
    assert partial.opt_t_estimate is None or partial.opt_t_estimate >= 1.0
    assert partial.theta <= 100


def test_find_seeds_wraps_budget_partial(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with pytest.raises(BudgetExceededError) as info:
        find_seeds(
            graph, list(range(20)), tags, 3, engine="trs", rng=5,
            budget=RunBudget(wall_seconds=1e-6),
        )
    from repro.seeds.api import SeedSelection

    assert isinstance(info.value.partial, SeedSelection)


# ---------------------------------------------------------------------------
# Telemetry propagation
# ---------------------------------------------------------------------------


def test_results_carry_telemetry(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with SamplingEngine(shard_size=8) as engine:
        selection = find_seeds(
            graph, list(range(20)), tags, 3, engine="trs", rng=5,
            sampler=engine,
        )
    assert selection.telemetry is not None
    assert selection.telemetry["shards_run"] >= 1
    scalar = find_seeds(graph, list(range(20)), tags, 3, rng=5)
    assert scalar.telemetry is None
