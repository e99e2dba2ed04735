"""The sampling engine: one in-process, sharded RR-set and cascade sampler.

This package is the performance layer of the reproduction:

* :mod:`repro.engine.parallel` — :class:`SamplingEngine`, the driver.
  It splits θ samples into fixed-size shards, keys each shard to a
  child ``SeedSequence`` (same master seed ⇒ identical results), and
  runs them in order with one of two per-shard kernels:
  ``"bitparallel"`` (the default) or ``"scalar"`` (the correctness
  oracle);
* :mod:`repro.engine.bitworld` — bit-parallel possible-world kernels:
  64 worlds per uint64 word, counter-based coins (pure function of
  ``(key, world, edge)``), popcount size accounting; one traversal
  yields 64 RR sets or 64 cascades;
* :mod:`repro.engine.rr_storage` — :class:`RRCollection`, a CSR-style
  flat store for RR sets with a lazy inverted node→set index, enabling
  an O(total membership) greedy max-coverage pass;
* :mod:`repro.engine.runtime` — the in-order shard loop with
  :class:`Deadline`/:class:`RunBudget` guards that raise
  :class:`~repro.exceptions.BudgetExceededError` carrying the partial
  result, and :class:`RunTelemetry` counters;
* :mod:`repro.engine.checkpoint` — :class:`CheckpointManager`,
  shard-granular checkpoint/resume of the flat collections under a
  deterministic-replay contract;
* :mod:`repro.engine.shared_csr` — zero-copy shared-memory publication
  of a whole graph (:class:`SharedTagGraph`) for the shard fleet's
  worker processes.

Process-level parallelism lives in the sharded campaign service
(:class:`repro.serve.ShardedCampaignService`), not here. The scalar
implementations in :mod:`repro.sketch` and :mod:`repro.diffusion`
remain the correctness oracle; pass a ``SamplingEngine`` through the
``engine=`` knobs of the high-level APIs to opt into this layer.
"""

from repro.engine.bitworld import (
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine.checkpoint import CheckpointManager, rng_state_digest
from repro.engine.parallel import (
    DEFAULT_BITPARALLEL_SHARD_SIZE,
    DEFAULT_SHARD_SIZE,
    MODES,
    SamplingEngine,
)
from repro.engine.shared_csr import SharedTagGraph, TagGraphHandle
from repro.engine.rr_storage import RRCollection
from repro.engine.runtime import Deadline, RunBudget, RunTelemetry

__all__ = [
    "DEFAULT_BITPARALLEL_SHARD_SIZE",
    "DEFAULT_SHARD_SIZE",
    "MODES",
    "CheckpointManager",
    "Deadline",
    "RRCollection",
    "RunBudget",
    "RunTelemetry",
    "SamplingEngine",
    "SharedTagGraph",
    "TagGraphHandle",
    "bitparallel_cascade_counts",
    "bitparallel_rr_members",
    "rng_state_digest",
]
