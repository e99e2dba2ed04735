"""The sampling engine: sharded, seeded RR-set and cascade sampling.

Sketch-based influence maximization is embarrassingly parallel across
samples (Cohen et al., VLDB 2014): each RR set / cascade only reads the
graph. :class:`SamplingEngine` takes that parallelism inside one
process — the bit-parallel kernel advances 64 possible worlds per
machine word — and leaves process-level parallelism to the sharded
campaign service (:mod:`repro.serve.shard`), where each worker process
runs its own engine.

Determinism contract
--------------------
The θ samples of one operation are split into fixed-size shards
(depending only on ``(theta, shard_size)``), and each shard is keyed to
a child ``SeedSequence`` spawned from the master generator's spawn
tree, in shard order. A shard's samples are a pure function of its
seed sequence, so:

* same master seed ⇒ bit-identical output, whether the shards run in
  one call, are spliced from checkpoints (:mod:`repro.engine.checkpoint`)
  or are partitioned across fleet workers
  (:meth:`SamplingEngine.sample_rr_partition`);
* successive calls on one engine with a shared generator consume the
  generator's spawn counter, so a session remains replayable end to end.

The ``mode`` knob selects the per-shard kernel: ``"bitparallel"`` (the
default) packs 64 possible worlds per uint64 word with counter-based
coins (:mod:`repro.engine.bitworld`); ``"scalar"`` runs the original
per-edge Python loops, the correctness oracle, under the identical
sharding and driver.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.bitworld import (
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine.checkpoint import CheckpointManager, rng_state_digest
from repro.engine.rr_storage import RRCollection
from repro.engine.runtime import RunBudget, RunTelemetry, execute_shards
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng, spawn_seed_sequences

MODES = ("scalar", "bitparallel")

#: Default samples per shard for the scalar mode: small enough that a
#: handful of shards exist even at pilot sizes (so checkpoints have a
#: useful granularity), large enough that per-shard overhead is
#: negligible.
DEFAULT_SHARD_SIZE = 512

#: Default samples per shard for the bit-parallel kernel. Each uint64
#: word carries 64 worlds, so a 512-sample shard would use only 8
#: blocks — too little work to amortize the per-level numpy overhead.
#: 8192 samples = 128 blocks keeps the kernel in its efficient regime
#: while still producing multiple shards at realistic θ. Like
#: ``shard_size`` generally, this is part of the determinism contract.
DEFAULT_BITPARALLEL_SHARD_SIZE = 8192


def _shard_counts(total: int, shard_size: int) -> list[int]:
    """Split ``total`` samples into fixed-size shards (last one ragged)."""
    if shard_size < 1:
        raise ConfigurationError(
            f"shard_size must be >= 1, got {shard_size}"
        )
    if total <= 0:
        return []
    full, rest = divmod(total, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def _rr_shard(
    graph: TagGraph,
    target_arr: np.ndarray,
    edge_probs: np.ndarray,
    count: int,
    seed_seq: np.random.SeedSequence,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """One shard of RR samples as flat ``(members, indptr)``.

    The shard's generator is rebuilt from ``seed_seq``, so the shard
    replays bit-identically in any run that reaches it.
    """
    rng = np.random.default_rng(seed_seq)
    roots = rng.choice(target_arr, size=count)
    if mode == "scalar":
        from repro.sketch.rr_sets import reverse_reachable_set

        sets = [
            reverse_reachable_set(graph, int(root), edge_probs, rng)
            for root in roots
        ]
        flat = RRCollection.from_sets(sets, graph.num_nodes)
        return flat.members, flat.indptr
    # The coin-stream key is drawn *after* the roots from the same
    # shard stream, so the (roots, key) pair is a pure function of
    # seed_seq.
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    return bitparallel_rr_members(graph, roots, edge_probs, key)


def _cascade_shard(
    graph: TagGraph,
    seed_arr: np.ndarray,
    edge_probs: np.ndarray,
    count: int,
    target_arr: np.ndarray,
    seed_seq: np.random.SeedSequence,
    mode: str,
) -> np.ndarray:
    """One shard of IC cascades; returns per-sample target counts."""
    rng = np.random.default_rng(seed_seq)
    if mode == "scalar":
        from repro.diffusion.cascade import simulate_cascade

        counts = np.empty(count, dtype=np.int64)
        for i in range(count):
            active = simulate_cascade(graph, seed_arr, edge_probs, rng)
            counts[i] = int(active[target_arr].sum())
        return counts
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    return bitparallel_cascade_counts(
        graph, seed_arr, edge_probs, count, target_arr, key
    )


def _rr_prefix_arrays(shards: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(members, indptr)`` results into flat CSR."""
    if not shards:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    members = np.concatenate([m for m, _ in shards])
    counts = np.concatenate([np.diff(p) for _, p in shards])
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return members, indptr


def _split_rr_prefix(
    members: np.ndarray, indptr: np.ndarray, counts: list[int],
    shards_done: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Invert :func:`_rr_prefix_arrays` back into per-shard results."""
    results = []
    cursor = 0
    for i in range(shards_done):
        c = counts[i]
        base = indptr[cursor]
        sub_indptr = (indptr[cursor:cursor + c + 1] - base).astype(np.int64)
        sub_members = members[base:indptr[cursor + c]].astype(np.int64)
        results.append((sub_members, sub_indptr))
        cursor += c
    return results


def _split_count_prefix(
    flat: np.ndarray, counts: list[int], shards_done: int
) -> list[np.ndarray]:
    """Split a flat cascade-count prefix back into per-shard arrays."""
    results = []
    cursor = 0
    for i in range(shards_done):
        results.append(flat[cursor:cursor + counts[i]].astype(np.int64))
        cursor += counts[i]
    return results


class SamplingEngine:
    """In-process sharded sampling driver.

    Parameters
    ----------
    mode:
        ``"bitparallel"`` (64 possible worlds per uint64 word — see
        :mod:`repro.engine.bitworld`; the default) or ``"scalar"`` (the
        original Python loops, as oracle).
    workers:
        Must be ``1``; kept so existing ``SamplingEngine(workers=1)``
        callers run unchanged. Process-level parallelism lives in the
        sharded campaign service
        (:class:`repro.serve.ShardedCampaignService`).
    shard_size:
        Samples per shard; ``None`` (default) resolves to
        :data:`DEFAULT_SHARD_SIZE` for the scalar mode and
        :data:`DEFAULT_BITPARALLEL_SHARD_SIZE` for the bit-parallel
        mode. Part of the determinism contract: changing it changes
        the RNG stream layout, so outputs for a fixed seed are only
        comparable at equal ``shard_size``.
    checkpoint:
        Optional :class:`~repro.engine.checkpoint.CheckpointManager`;
        sampling operations then persist their shard done-prefix and,
        when the manager is in resume mode, splice matching checkpoints
        back in instead of recomputing.

    Counters live on :attr:`telemetry`.
    """

    def __init__(
        self,
        mode: str = "bitparallel",
        workers: int = 1,
        shard_size: int | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown engine mode {mode!r}; expected one of {MODES}"
            )
        if workers != 1:
            raise ConfigurationError(
                f"SamplingEngine runs in-process (workers must be 1, got "
                f"{workers}); for multi-process sampling use the shard "
                f"fleet (repro.serve.ShardedCampaignService)"
            )
        if shard_size is None:
            shard_size = (
                DEFAULT_BITPARALLEL_SHARD_SIZE
                if mode == "bitparallel"
                else DEFAULT_SHARD_SIZE
            )
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        self.mode = mode
        self.shard_size = int(shard_size)
        self.checkpoint = checkpoint
        # Bind runtime counters to the observation active *now*, so an
        # engine built inside an ``obs.observe()`` scope reports its
        # shard and checkpoint counters in the global run report.
        self.telemetry = RunTelemetry(registry=obs.current_registry())
        self._op_counter = 0

    def for_query(self, registry=None) -> "SamplingEngine":
        """A fresh engine with this one's knobs and isolated telemetry.

        The returned engine samples exactly like this one (same mode
        and shard size) but owns a new
        :class:`~repro.engine.runtime.RunTelemetry` bound to
        ``registry`` (default: the observation active on the *calling
        thread*) and its own operation counter, so concurrent queries
        keep exact per-query ``runtime.*`` counters. It never
        checkpoints: per-query checkpoint files would collide across
        threads.
        """
        view = SamplingEngine(mode=self.mode, shard_size=self.shard_size)
        if registry is not None:
            view.telemetry = RunTelemetry(registry=registry)
        return view

    def close(self) -> None:
        """No-op: the engine holds no processes or shared segments."""

    def __enter__(self) -> "SamplingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def reset_ops(self) -> None:
        """Restart the operation counter (begin a new logical run).

        Checkpoint files are keyed by operation index; a resumed run
        must replay its operations from index 0 with a fresh engine or
        after calling this.
        """
        self._op_counter = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SamplingEngine(mode={self.mode!r}, "
            f"shard_size={self.shard_size}, "
            f"telemetry=[{self.telemetry.summary()}])"
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _signature(
        self, kind: str, total: int, rng: np.random.Generator,
        extra: int,
    ) -> dict:
        """Checkpoint signature pinning one sampling operation's identity."""
        seed_seq = rng.bit_generator.seed_seq
        return {
            "kind": kind,
            "total": int(total),
            "shard_size": self.shard_size,
            "mode": self.mode,
            "extra": int(extra),
            "rng": rng_state_digest(rng),
            "spawn_cursor": int(getattr(seed_seq, "n_children_spawned", 0)),
        }

    def _run_op(
        self,
        worker,
        tasks: list[tuple],
        counts: list[int],
        signature: dict,
        pack,
        split,
        budget: RunBudget | None,
        charge=None,
    ) -> list:
        """Run one checkpointable sampling operation through the runtime.

        ``pack(shards) -> dict[str, ndarray]`` flattens a done-prefix
        for storage; ``split(arrays, shards_done)`` inverts it back into
        per-shard results for resume splicing. ``charge(shard_result)``
        accounts one newly completed shard against the budget (raising
        :class:`BudgetExceededError` stops the run mid-growth).
        """
        op_index = self._op_counter
        self._op_counter += 1
        charged_upto = 0

        preloaded: list = []
        if self.checkpoint is not None:
            loaded = self.checkpoint.load(op_index, signature)
            if loaded is not None:
                arrays, shards_done, _total = loaded
                preloaded = split(arrays, min(shards_done, len(counts)))
                self.telemetry.checkpoint_loads += 1
                charged_upto = len(preloaded)

        def on_prefix(done: int, results: list, force: bool) -> None:
            nonlocal charged_upto
            if self.checkpoint is not None and done > 0 and (
                self.checkpoint.should_flush(op_index, done, force)
            ):
                self.checkpoint.save(
                    op_index, signature, pack(results[:done]), done,
                    len(counts),
                )
                self.telemetry.checkpoint_writes += 1
            if charge is not None and not force:
                while charged_upto < done:
                    charge(results[charged_upto])
                    charged_upto += 1

        return execute_shards(
            worker, tasks, self.telemetry,
            budget=budget,
            on_prefix=on_prefix,
            preloaded_results=preloaded,
        )

    def sample_rr_sets(
        self,
        graph: TagGraph,
        target_arr: np.ndarray,
        edge_probs: np.ndarray,
        theta: int,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> RRCollection:
        """Sample ``theta`` targeted RR sets (roots uniform over targets).

        ``target_arr`` must be a pre-validated int64 node-id array (see
        :func:`repro.utils.validation.as_target_array`). Returns a flat
        :class:`RRCollection`, deterministic for a fixed master ``rng``
        (including across checkpoint/resume). With a ``budget``, raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is the prefix :class:`RRCollection` collected so far.
        """
        rng = ensure_rng(rng)
        signature = self._signature("rr", theta, rng, extra=target_arr.size)
        counts = _shard_counts(theta, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        tasks = [
            (graph, target_arr, edge_probs, count, stream, self.mode)
            for count, stream in zip(counts, streams)
        ]

        def pack(shards):
            members, indptr = _rr_prefix_arrays(shards)
            return {"members": members, "indptr": indptr}

        def split(arrays, shards_done):
            return _split_rr_prefix(
                arrays["members"], arrays["indptr"], counts, shards_done
            )

        def charge(shard) -> None:
            budget.charge_rr_members(len(shard[0]))

        with obs.span(
            "engine.sample_rr_sets", theta=int(theta), mode=self.mode,
        ):
            try:
                if budget is not None:
                    budget.charge_samples(theta)
                shards = self._run_op(
                    _rr_shard, tasks, counts, signature, pack, split,
                    budget,
                    charge=charge if budget is not None else None,
                )
            except BudgetExceededError as exc:
                if exc.partial is None or isinstance(exc.partial, list):
                    exc.partial = self._collect_rr(
                        exc.partial or [], graph.num_nodes
                    )
                raise
            collection = self._collect_rr(shards, graph.num_nodes)
        # Counted from the returned object, at the driver: invariant to
        # checkpoint/resume splicing.
        obs.count("rr.samples_drawn", len(collection))
        obs.count("rr.members", int(collection.members.size))
        return collection

    def sample_rr_partition(
        self,
        graph: TagGraph,
        target_arr: np.ndarray,
        edge_probs: np.ndarray,
        theta: int,
        rng: np.random.Generator | int | None,
        part_index: int,
        part_count: int,
    ) -> tuple[RRCollection, int]:
        """Sample only this participant's slice of the ``theta`` shard plan.

        The determinism contract of :meth:`sample_rr_sets` makes RR
        sampling partitionable across *processes*: the shard plan
        (``_shard_counts``) and the per-shard seed-sequence spawn tree
        depend only on ``(theta, shard_size, rng)``, and each shard's
        samples are a pure function of its seed sequence. This method spawns the **full** stream list —
        keeping the spawn tree identical to a monolithic run — then
        materializes only the shards with ``index % part_count ==
        part_index``, round-robin so the ragged tail shard doesn't
        always land on the same participant.

        The union of all ``part_count`` partitions contains exactly the
        RR sets a single :meth:`sample_rr_sets` call would have drawn
        (grouped by shard, which per-set aggregates like coverage
        counts are invariant to). Returns ``(collection,
        total_shards)``; shards run in-process — in the sharded
        campaign service the calling worker process *is* the unit of
        parallelism.
        """
        if part_count < 1 or not 0 <= part_index < part_count:
            raise ConfigurationError(
                f"invalid partition {part_index}/{part_count}"
            )
        rng = ensure_rng(rng)
        counts = _shard_counts(theta, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        shards = [
            _rr_shard(
                graph, target_arr, edge_probs, counts[i], streams[i],
                self.mode,
            )
            for i in range(part_index, len(counts), part_count)
        ]
        collection = self._collect_rr(shards, graph.num_nodes)
        obs.count("rr.samples_drawn", len(collection))
        obs.count("rr.members", int(collection.members.size))
        return collection, len(counts)

    @staticmethod
    def _collect_rr(shards: list, num_nodes: int) -> RRCollection:
        if not shards:
            return RRCollection(
                np.empty(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                num_nodes,
            )
        return RRCollection.concat(
            [
                RRCollection(members, indptr, num_nodes)
                for members, indptr in shards
            ]
        )

    def cascade_target_counts(
        self,
        graph: TagGraph,
        seed_arr: np.ndarray,
        edge_probs: np.ndarray,
        num_samples: int,
        target_arr: np.ndarray,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> np.ndarray:
        """Per-cascade activated-target counts for ``num_samples`` runs.

        Deterministic for a fixed master ``rng`` (including across
        checkpoint/resume); the Monte-Carlo spread estimate is the mean.
        """
        rng = ensure_rng(rng)
        signature = self._signature(
            "cascade", num_samples, rng, extra=seed_arr.size
        )
        counts = _shard_counts(num_samples, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        tasks = [
            (graph, seed_arr, edge_probs, count, target_arr, stream,
             self.mode)
            for count, stream in zip(counts, streams)
        ]

        def pack(shards):
            return {"counts": np.concatenate(shards)}

        def split(arrays, shards_done):
            return _split_count_prefix(arrays["counts"], counts, shards_done)

        with obs.span(
            "engine.cascade_target_counts", num_samples=int(num_samples),
            mode=self.mode,
        ):
            try:
                if budget is not None:
                    budget.charge_samples(num_samples)
                shards = self._run_op(
                    _cascade_shard, tasks, counts, signature, pack, split,
                    budget,
                )
            except BudgetExceededError as exc:
                if exc.partial is None or isinstance(exc.partial, list):
                    exc.partial = (
                        np.concatenate(exc.partial)
                        if exc.partial else np.empty(0, dtype=np.int64)
                    )
                raise
            if shards:
                flat = np.concatenate(shards)
            else:
                flat = np.empty(0, dtype=np.int64)
        obs.count("cascade.samples_drawn", int(flat.size))
        return flat

    def estimate_spread(
        self,
        graph: TagGraph,
        seed_arr: np.ndarray,
        edge_probs: np.ndarray,
        num_samples: int,
        target_arr: np.ndarray,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> float:
        """Monte-Carlo ``σ(S, T, C1)`` through the engine (Eq. 5).

        On a budget stop the re-raised error's ``partial`` is the mean
        over however many cascades completed (``0.0`` when none did),
        matching the scalar path's partial shape.
        """
        try:
            counts = self.cascade_target_counts(
                graph, seed_arr, edge_probs, num_samples, target_arr, rng,
                budget=budget,
            )
        except BudgetExceededError as exc:
            done = exc.partial
            if isinstance(done, np.ndarray) and done.size > 0:
                exc.partial = float(done.sum()) / done.size
            else:
                exc.partial = 0.0
            raise
        if counts.size == 0:
            return 0.0
        return float(counts.sum()) / counts.size
