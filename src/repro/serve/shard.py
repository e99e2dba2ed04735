"""Sharded multi-process campaign service.

A front-end **router** (this module, in the caller's process) fans a
fleet of N **worker processes** out behind the single-process
``CampaignServer`` wire protocol. Each worker owns a full
:class:`~repro.serve.CampaignServer` — graded QoS queues, asset cache,
chaos hooks, mutable epochs — attached to the *same* graph, either via
a zero-copy shared-memory :class:`~repro.engine.SharedTagGraph` or a
per-worker pickled copy.

Topology (one box per process)::

    client ──► ShardedCampaignService (router)
                 │  RouterAdmission · HashRing · metrics merge
                 │  edit journal · respawn supervisor
          ┌──────┼──────────┬─ ... ─┐     (one duplex pipe each)
          ▼      ▼          ▼       ▼
        worker w0, w1, ..., wN-1   — CampaignServer + SamplingEngine

Routing and determinism
-----------------------
Every query is reduced to a :func:`~repro.serve.keys.routing_token`
(the campaign-identity fields only — never deadline/QoS/report) and
placed on a consistent-hash ring, so the same campaign always lands on
the same worker and its cached sketch: repeat queries never rebuild on
a different worker, and adding/removing a worker remaps only ~1/N of
tokens. Because each worker runs the identical ``handle_request`` code
path over the identical graph, the wire response is bit-identical to a
single-process server for every op, engine, and worker count.

Scatter/gather coverage
-----------------------
``find_seeds`` with ``"scatter": true`` partitions the θ RR-set shards
round-robin across all live workers (each spawns the *full* seed-stream
tree and materializes only its slice, so the union is exactly the
monolithic sample), then the router runs the greedy cover over summed
per-node residual counts: one broadcast per round (pick → workers mark
newly covered sets and return decremented counts). Counts are additive
across partitions and greedy's argmax tie-break (lowest node id) sees
the same totals, so seeds, marginals and the spread estimate are
bit-identical to the single-process TRS answer.

Failure model
-------------
A receiver thread per worker detects pipe EOF (crash or SIGKILL). The
supervisor respawns the worker under the same ring slot, replays the
edit journal so it rejoins at the current epoch, and transparently
re-sends the retryable in-flight requests; scatter rounds are not
retryable mid-flight — the whole (deterministic) scatter query
restarts. :class:`~repro.exceptions.WorkerDiedError` surfaces only
when the respawn budget is exhausted, after which the worker leaves
the ring and its ~1/N of tokens remap to survivors.

Epoch broadcast
---------------
``apply_edits`` takes the writer side of a router-level gate (queries
take the read side), appends the batch to the journal *before*
broadcasting, then requires every worker to report the same new epoch.
Pipes are FIFO, so every query dispatched after the broadcast observes
the new epoch on every worker.

Fleet observability
-------------------
With ``tracing=True`` the router owns one
:class:`~repro.obs.distributed.TraceCollector`: every routed query
opens a router-clock ``serve.query`` span whose
:class:`~repro.obs.distributed.TraceContext` rides the pipe message
(and, for scatter, every ``_shard.build``/``_shard.pick``); workers
ship their finished span bundles back piggy-backed on replies, where
the receive loop strips them *before* the caller's future resolves —
wire responses are byte-identical with tracing on or off, and the
flight recorder can attach the already-complete stitched trace. Worker
clocks are aligned per spawn handshake (each ready message carries the
worker's ``perf_counter``), so one Chrome trace covers the whole fleet
with non-negative durations. ``/events`` serves the causally merged
fleet stream (schema ``repro.obs.events/2``) and ``/debug/slow`` the
router's :class:`~repro.obs.distributed.FlightRecorder` ring.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    InvalidQueryError,
    QueryRejectedError,
    ReproError,
    ServerClosedError,
    WorkerDiedError,
)
from repro.obs.distributed import (
    SPAN_BUNDLE_KEY,
    TRACE_CONTEXT_KEY,
    FlightRecorder,
    TraceCollector,
    TraceContext,
    empty_trace_payload,
    merge_event_payloads,
)
from repro.serve.keys import routing_token
from repro.serve.qos import RouterAdmission
from repro.serve.ring import HashRing

__all__ = ["ShardedCampaignService", "WorkerSpec"]

_CONTROL_RID = -1
_QUERY_OPS = ("find_seeds", "find_tags", "joint", "spread")


# ----------------------------------------------------------------------
# Worker specification (pickled to every spawned worker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its ``CampaignServer``.

    Must stay picklable under the ``spawn`` start method — chaos is
    carried as :class:`~repro.serve.chaos.ServeFaultPlan` constructor
    kwargs (the plan itself holds a lock), and the engine as a mode
    string (each worker builds its own in-process
    :class:`~repro.engine.SamplingEngine`; process parallelism is the
    fleet itself).
    """

    config: Any = None  # JointConfig | None
    engine_mode: Optional[str] = None  # None -> scalar library path
    pool_size: int = 4
    queue_capacity: int = 32
    cache_bytes: int = 256 * 1024 * 1024
    default_deadline: Optional[float] = None
    default_max_samples: Optional[int] = None
    prob_cache_entries: int = 64
    qos: Any = None  # QosConfig | None
    chaos: Optional[Dict[str, Any]] = None  # ServeFaultPlan kwargs
    mutable: bool = False
    repair_mode: str = "scalar"
    listen: bool = False  # per-worker OpenMetrics endpoint on 127.0.0.1:0


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------


class _ScatterSessions:
    """Per-worker state for in-flight scatter/gather coverage queries.

    One session per router-side scatter query: the worker's RR-set
    partition plus the residual bookkeeping mirroring
    ``_greedy_max_coverage_flat`` (counts start as one bincount, each
    pick decrements by one bincount over the newly covered sets).
    """

    def __init__(self, server, sampler) -> None:
        self._server = server
        self._sampler = sampler
        self._lock = threading.Lock()
        self._sessions: Dict[str, Dict[str, Any]] = {}

    def handle(self, op: str, request: dict) -> dict:
        if op == "_shard.build":
            return self._build(request)
        if op == "_shard.pick":
            return self._pick(request)
        if op == "_shard.finish":
            return self._finish(request)
        raise ReproError(f"unknown shard op {op!r}")

    def _build(self, request: dict) -> dict:
        from repro.serve.keys import canonical_tags
        from repro.sketch.theta import compute_theta, estimate_opt_t
        from repro.utils.rng import ensure_rng
        from repro.utils.validation import (
            as_target_array,
            check_budget,
            check_tags_exist,
        )

        if self._sampler is None:
            raise ConfigurationError(
                "scatter coverage requires an engine_mode on WorkerSpec "
                "(the scalar library path draws RR sets sequentially)"
            )
        graph, epoch = self._server.graph_state
        expect = request.get("expect_epoch")
        if expect is not None and int(expect) != epoch:
            raise ReproError(
                f"epoch mismatch: worker at {epoch}, router expected {expect}"
            )
        sid = str(request["sid"])
        k = int(request["k"])
        tags = canonical_tags(request.get("tags", ()))
        # Identical validation + RNG pipeline to trs_build_sketch: the
        # pilot runs in full on every worker (it consumes the stream
        # prefix), only the main sampling pass is partitioned.
        check_budget(k, graph.num_nodes, what="seeds")
        check_tags_exist(tags, graph.tags)
        target_arr = as_target_array(
            request["targets"], graph.num_nodes, context="targets"
        )
        cfg = self._server.config.sketch
        rng = ensure_rng(int(request.get("seed", 0)))
        edge_probs = graph.edge_probabilities(tags)
        opt_t = estimate_opt_t(
            graph, target_arr, edge_probs, k, cfg, rng, engine=self._sampler
        )
        theta = compute_theta(
            graph.num_nodes, k, int(target_arr.size), opt_t, cfg
        )
        rr, _ = self._sampler.sample_rr_partition(
            graph, target_arr, edge_probs, theta, rng,
            int(request["part_index"]), int(request["part_count"]),
        )
        inv_indptr, inv_sets = rr.inverted()
        counts = np.bincount(rr.members, minlength=graph.num_nodes)
        with self._lock:
            self._sessions[sid] = {
                "members": rr.members,
                "indptr": rr.indptr,
                "inv_indptr": inv_indptr,
                "inv_sets": inv_sets,
                "counts": counts,
                "covered": np.zeros(rr.num_sets, dtype=bool),
                "num_nodes": graph.num_nodes,
            }
        return {
            "ok": True,
            "theta": int(theta),
            "opt_t": float(opt_t),
            "num_targets": int(target_arr.size),
            "epoch": epoch,
            "local_sets": int(rr.num_sets),
            "counts": counts,
        }

    def _pick(self, request: dict) -> dict:
        sid = str(request["sid"])
        node = int(request["node"])
        with self._lock:
            state = self._sessions.get(sid)
        if state is None:
            raise ReproError(f"unknown scatter session {sid!r}")
        covered = state["covered"]
        newly = state["inv_sets"][
            state["inv_indptr"][node]:state["inv_indptr"][node + 1]
        ]
        newly = newly[~covered[newly]]
        covered[newly] = True
        indptr = state["indptr"]
        starts = indptr[newly]
        lengths = indptr[newly + 1] - starts
        total = int(lengths.sum())
        if total:
            cumulative = np.cumsum(lengths)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cumulative - lengths), lengths
            )
            touched = state["members"][positions]
            state["counts"] -= np.bincount(
                touched, minlength=state["num_nodes"]
            )
        return {
            "ok": True,
            "counts": state["counts"],
            "covered": int(covered.sum()),
        }

    def _finish(self, request: dict) -> dict:
        with self._lock:
            self._sessions.pop(str(request["sid"]), None)
        return {"ok": True}


def _worker_main(conn, worker_id: str, graph_payload, spec: WorkerSpec):
    """Entry point of one spawned worker process.

    Handshakes readiness (or the construction error) on the pipe, then
    serves rid-tagged requests until ``_shard.shutdown`` or pipe EOF.
    Requests run on an internal thread pool so queries pipeline the
    same way they do inside a single-process ``CampaignServer``.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = sampler = endpoint = None
    try:
        graph = (
            graph_payload.attach()
            if hasattr(graph_payload, "attach")
            else graph_payload
        )
        if spec.engine_mode is not None:
            from repro.engine.parallel import SamplingEngine

            sampler = SamplingEngine(mode=spec.engine_mode, workers=1)
        from repro.core.joint import JointConfig
        from repro.serve.server import CampaignServer

        kwargs: Dict[str, Any] = {
            "config": spec.config if spec.config is not None else JointConfig(),
            "sampler": sampler,
            "pool_size": spec.pool_size,
            "queue_capacity": spec.queue_capacity,
            "cache_bytes": spec.cache_bytes,
            "default_deadline": spec.default_deadline,
            "default_max_samples": spec.default_max_samples,
            "prob_cache_entries": spec.prob_cache_entries,
            "qos": spec.qos,
            "mutable": spec.mutable,
            "repair_mode": spec.repair_mode,
        }
        if spec.chaos:
            from repro.serve.chaos import ServeFaultPlan

            kwargs["chaos"] = ServeFaultPlan(**spec.chaos)
        server = CampaignServer(graph, **kwargs)
        if spec.listen:
            from repro.obs.live import start_live_telemetry

            endpoint = start_live_telemetry(server, listen="127.0.0.1:0")
        conn.send({
            "_rid": _CONTROL_RID,
            "ok": True,
            "worker": worker_id,
            "pid": os.getpid(),
            "endpoint": getattr(endpoint, "url", None),
            # Clock-alignment handshake: the router subtracts this from
            # its own perf_counter at receipt to map shipped span
            # timestamps onto the router clock (repro.obs.distributed).
            "clock": time.perf_counter(),
        })
    except BaseException as exc:  # report the construction failure, then die
        try:
            conn.send({
                "_rid": _CONTROL_RID,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            })
        except OSError:
            pass
        conn.close()
        return
    try:
        _serve_conn(conn, server, sampler, spec)
    finally:
        if endpoint is not None:
            endpoint.close()
        server.close()
        if sampler is not None:
            sampler.close()
        try:
            conn.close()
        except OSError:
            pass


def _serve_conn(conn, server, sampler, spec: WorkerSpec) -> None:
    from repro import obs
    from repro.obs.distributed import span_bundle_from_tracer
    from repro.serve.protocol import handle_request

    scatter = _ScatterSessions(server, sampler)
    send_lock = threading.Lock()
    stop = threading.Event()

    def reply(rid, payload: dict) -> None:
        # Piggy-back any span bundles finished since the last reply;
        # the router strips the key before the caller's future resolves,
        # so the client-visible response is unchanged. Empty unless the
        # router propagated a trace context (zero overhead when off).
        spans = server.drain_span_exports()
        if spans:
            payload = {**payload, SPAN_BUNDLE_KEY: spans}
        with send_lock:
            try:
                conn.send({"_rid": rid, **payload})
            except (OSError, BrokenPipeError, ValueError):
                stop.set()

    def handle_shard_op(op: str, request: dict) -> dict:
        trace_ctx = TraceContext.pop_from(request)
        if op == "_shard.spans":
            # Explicit drain: the reply itself carries the buffered
            # bundles, bounding the export queue during long builds.
            return {"ok": True}
        if trace_ctx is None:
            return scatter.handle(op, request)
        # Observe the scatter phase so its spans join the stitched
        # fleet trace. Observability never perturbs results (PR 3
        # contract), so the payload is bit-identical either way.
        with obs.observe() as ob:
            ob.tracer.trace_id = trace_ctx.trace_id
            ob.tracer.parent_span_id = trace_ctx.parent_span_id
            with obs.span(op.lstrip("_")):
                payload = scatter.handle(op, request)
        server.export_span_bundle(span_bundle_from_tracer(
            ob.tracer, parent_span_id=trace_ctx.parent_span_id,
        ))
        return payload

    def handle(rid, request: dict) -> None:
        op = request.get("op")
        try:
            if isinstance(op, str) and op.startswith("_shard."):
                payload = handle_shard_op(op, request)
            else:
                payload = handle_request(server, request)
        except BaseException as exc:  # a request must never kill the loop
            payload = {
                "ok": False,
                "error": str(exc) or repr(exc),
                "type": type(exc).__name__,
            }
        reply(rid, payload)

    workers = max(int(spec.pool_size), 1) + 2  # queries + admin headroom
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="shard-worker"
    ) as pool:
        while not stop.is_set():
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict):
                continue
            rid = msg.pop("_rid", None)
            if msg.get("op") == "_shard.shutdown":
                reply(rid, {"ok": True})
                break
            pool.submit(handle, rid, msg)


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    future: Future
    payload: dict
    retryable: bool
    #: The pipe the request was last written to. A send that raced a
    #: respawn wrote to the dead pipe; the death handler finds it by
    #: comparing this against the worker's current conn.
    conn: object = None


class _Worker:
    """Router-side handle for one worker process."""

    def __init__(self, worker_id: str) -> None:
        self.id = worker_id
        self.process = None
        self.conn = None
        self.pid: Optional[int] = None
        self.endpoint: Optional[str] = None
        self.lock = threading.Lock()
        self.outstanding: Dict[int, _Pending] = {}
        self.respawns = 0
        self.dead = False  # permanently failed, removed from the ring
        #: router_perf_counter - worker_perf_counter at the spawn
        #: handshake; re-measured on every respawn. Maps shipped span
        #: timestamps onto the router clock when stitching traces.
        self.clock_offset = 0.0

    @property
    def alive(self) -> bool:
        return not self.dead and self.process is not None \
            and self.process.is_alive()


class ShardedCampaignService:
    """Router fronting N ``CampaignServer`` worker processes.

    Exposes the single-server surface the serving stack already speaks:
    :meth:`route_request` (consumed by ``repro.serve.protocol``),
    :meth:`metrics` / :meth:`health` / ``events`` (consumed by the live
    telemetry endpoint) and :meth:`apply_edits`. See the module
    docstring for routing, scatter, failure and epoch semantics.

    Parameters
    ----------
    graph:
        The :class:`~repro.graphs.TagGraph` to serve. With
        ``share_graph=True`` (default) its arrays are packed once into
        shared memory and every worker attaches zero-copy; the router
        owns the segments and unlinks them on :meth:`close`.
    workers:
        Fleet size (>= 1).
    spec:
        Per-worker :class:`WorkerSpec`.
    max_respawns:
        Per-worker budget of crash recoveries before the worker is
        declared permanently dead and leaves the ring.
    admission_capacity:
        Router-level in-flight cap; defaults to the fleet's aggregate
        ``pool_size + queue_capacity``.
    tracing:
        Enable fleet-wide distributed tracing: every routed query gets
        a router ``serve.query`` span, workers ship their span bundles
        back, and :meth:`chrome_trace` / the ``trace`` op serve one
        stitched Chrome trace. Off by default — when off, no trace
        context is injected and workers never open observations.
    trace_capacity:
        Bound on retained traces in the router collector (oldest
        evicted first).
    """

    def __init__(
        self,
        graph,
        workers: int = 2,
        spec: WorkerSpec = WorkerSpec(),
        *,
        max_respawns: int = 3,
        admission_capacity: Optional[int] = None,
        ring_replicas: int = 128,
        share_graph: bool = True,
        tracing: bool = False,
        trace_capacity: int = 256,
    ) -> None:
        from repro.obs.events import EventLog

        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        self._graph = graph
        self._spec = spec
        self._max_respawns = int(max_respawns)
        self._closing = False
        self._closed = False
        self._started = time.monotonic()
        self._ctx = mp.get_context("spawn")
        self._rids = itertools.count(1)
        self._sids = itertools.count(1)
        self._journal: List[Tuple[list, bool]] = []
        self._epoch = 0
        self._fleet_lock = threading.RLock()
        self.events = EventLog(capacity=512)

        # Router-local counters (merged into /metrics scrapes).
        self._stats_lock = threading.Lock()
        self._dispatched = 0
        self._retries = 0
        self._respawn_count = 0
        self._scatter_queries = 0
        self._scatter_restarts = 0
        self._unreachable = 0  # workers that died mid-scrape (cumulative)

        # Fleet tracing + slow-query flight recorder (see module docs).
        self._trace = (
            TraceCollector(int(trace_capacity), label="router")
            if tracing else None
        )
        self._trace_seq = itertools.count(1)
        qos_cfg = spec.qos
        self.flightrec = FlightRecorder(
            int(getattr(qos_cfg, "flight_capacity", None) or 64),
            slow_ms=getattr(qos_cfg, "flight_slow_ms", None),
        )

        # Reader/writer gate: queries read, apply_edits writes.
        self._gate = threading.Condition()
        self._gate_queries = 0
        self._gate_writer = False

        self._shared = None
        payload = graph
        if share_graph:
            from repro.engine.shared_csr import SharedTagGraph
            from repro.graphs.tag_graph import TagGraph

            if type(graph) is TagGraph:
                self._shared = SharedTagGraph(graph)
                payload = self._shared.handle
        self._graph_payload = payload

        capacity = admission_capacity
        if capacity is None:
            capacity = workers * (
                int(spec.pool_size) + int(spec.queue_capacity)
            )
        self._admission = RouterAdmission(max(int(capacity), 1))

        self._workers: Dict[str, _Worker] = {}
        try:
            for i in range(workers):
                worker = _Worker(f"w{i}")
                self._spawn(worker)
                self._workers[worker.id] = worker
        except BaseException:
            self.close()
            raise
        self.ring = HashRing(self._workers, replicas=ring_replicas)

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        """Start (or restart) one worker process and handshake it.

        On restart, replays the edit journal over the fresh pipe before
        the receiver thread starts, so the worker rejoins at the
        current epoch and FIFO ordering guarantees every subsequently
        dispatched query sees it.
        """
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, worker.id, self._graph_payload, self._spec),
            name=f"repro-shard-{worker.id}",
            daemon=True,
        )
        process.start()
        child.close()
        ready = parent.recv()  # blocks until the worker built its server
        # Clock alignment: sampled immediately after recv so the offset
        # over-counts by at most the one-way pipe latency — a positive
        # bias, so stitched worker spans never predate their dispatch.
        router_clock = time.perf_counter()
        if not ready.get("ok"):
            parent.close()
            process.join(timeout=5.0)
            raise ReproError(
                f"worker {worker.id} failed to start: {ready.get('error')}"
            )
        for index, (edits, repair) in enumerate(self._journal):
            parent.send({
                "op": "apply_edits", "edits": edits, "repair": repair,
                "_rid": _CONTROL_RID - 1 - index,
            })
            applied = parent.recv()
            if not applied.get("ok"):
                parent.close()
                process.terminate()
                raise ReproError(
                    f"worker {worker.id} failed journal replay: "
                    f"{applied.get('error')}"
                )
        worker.process = process
        worker.conn = parent
        worker.pid = ready.get("pid")
        worker.endpoint = ready.get("endpoint")
        worker_clock = ready.get("clock")
        worker.clock_offset = (
            router_clock - float(worker_clock)
            if isinstance(worker_clock, (int, float)) else 0.0
        )
        thread = threading.Thread(
            target=self._receive_loop,
            args=(worker, parent),
            name=f"shard-recv-{worker.id}",
            daemon=True,
        )
        thread.start()
        self.events.emit(
            "shard.worker_up", worker=worker.id, pid=worker.pid,
            respawns=worker.respawns,
        )

    def _receive_loop(self, worker: _Worker, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict):
                continue
            rid = msg.pop("_rid", None)
            # Strip piggy-backed span bundles unconditionally (wire
            # responses stay identical tracing on or off) and ingest
            # them BEFORE the future resolves, so a flight record cut
            # on response completion sees the full stitched trace.
            bundles = msg.pop(SPAN_BUNDLE_KEY, None)
            if bundles and self._trace is not None:
                for bundle in bundles:
                    self._trace.add_bundle(
                        bundle,
                        offset_seconds=worker.clock_offset,
                        worker=worker.id,
                        pid=worker.pid,
                    )
            with worker.lock:
                pending = worker.outstanding.pop(rid, None)
            if pending is not None:
                pending.future.set_result(msg)
        self._on_conn_down(worker, conn)

    def _on_conn_down(self, worker: _Worker, conn) -> None:
        """Handle a dead pipe: respawn + replay, or retire the worker."""
        with self._fleet_lock:
            if self._closing or worker.conn is not conn:
                return
            with worker.lock:
                orphans = dict(worker.outstanding)
                worker.outstanding.clear()
            worker.respawns += 1
            with self._stats_lock:
                self._respawn_count += 1
            self.events.emit(
                "shard.worker_down", worker=worker.id, pid=worker.pid,
                orphaned=len(orphans), respawns=worker.respawns,
            )
            if worker.respawns > self._max_respawns:
                self._retire(worker, orphans, "respawn budget exhausted")
                return
            try:
                self._spawn(worker)
            except (ReproError, OSError) as exc:
                self._retire(worker, orphans, f"respawn failed: {exc}")
                return
            # Sends that raced the respawn wrote to the dead pipe and
            # were swallowed; sweep them into the orphan set so they are
            # replayed (or failed) like everything else that was lost.
            with worker.lock:
                strays = {
                    rid: pending
                    for rid, pending in worker.outstanding.items()
                    if pending.conn is not worker.conn
                }
                for rid in strays:
                    del worker.outstanding[rid]
            orphans.update(strays)
            for rid, pending in orphans.items():
                if pending.retryable:
                    with self._stats_lock:
                        self._retries += 1
                    self._send(worker, rid, pending)
                else:
                    pending.future.set_exception(WorkerDiedError(
                        f"worker {worker.id} died mid-request "
                        "(non-retryable op)"
                    ))

    def _retire(self, worker: _Worker, orphans, reason: str) -> None:
        worker.dead = True
        with worker.lock:
            orphans = {**orphans, **worker.outstanding}
            worker.outstanding.clear()
        if worker.id in self.ring:
            self.ring.remove(worker.id)
        self.events.emit(
            "shard.worker_retired", worker=worker.id, reason=reason
        )
        for pending in orphans.values():
            pending.future.set_exception(WorkerDiedError(
                f"worker {worker.id} permanently dead: {reason}"
            ))

    def _live_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if not w.dead]

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _send(self, worker: _Worker, rid: int, pending: _Pending) -> None:
        with worker.lock:
            if worker.dead:
                pending.future.set_exception(WorkerDiedError(
                    f"worker {worker.id} permanently dead"
                ))
                return
            worker.outstanding[rid] = pending
            pending.conn = worker.conn
            try:
                worker.conn.send({**pending.payload, "_rid": rid})
            except (OSError, BrokenPipeError, ValueError):
                # The receiver thread sees the same broken pipe and runs
                # the death handler; the pending entry rides along.
                pass

    def _call(
        self, worker: _Worker, payload: dict, retryable: bool
    ) -> Future:
        if self._closed:
            raise ServerClosedError("sharded service is closed")
        rid = next(self._rids)
        pending = _Pending(Future(), dict(payload), retryable)
        with self._stats_lock:
            self._dispatched += 1
        self._send(worker, rid, pending)
        return pending.future

    def _enter_query(self) -> None:
        with self._gate:
            while self._gate_writer:
                self._gate.wait()
            self._gate_queries += 1

    def _exit_query(self) -> None:
        with self._gate:
            self._gate_queries -= 1
            if self._gate_queries == 0:
                self._gate.notify_all()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def route_request(self, request: dict) -> dict:
        """Dispatch one decoded wire request; returns the wire response.

        Raises :class:`~repro.exceptions.QueryRejectedError` subclasses
        for router-level admission rejections (the protocol layer turns
        them into structured error responses) and
        :class:`WorkerDiedError` when no worker can serve the request.
        """
        if self._closed:
            raise ServerClosedError("sharded service is closed")
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True,
                    "workers": len(self._live_workers())}
        if op == "metrics":
            return self._metrics_response()
        if op == "health":
            return {"ok": True, "health": self.health()}
        if op == "events":
            limit = request.get("limit")
            return {"ok": True, **self.events_payload(
                int(limit) if limit is not None else None
            )}
        if op == "trace":
            return {"ok": True,
                    **self.trace_payload(request.get("trace_id"))}
        if op == "flightrec":
            limit = request.get("limit")
            return {"ok": True, **self.flightrec.payload(
                int(limit) if limit is not None else None
            )}
        if op == "apply_edits":
            edits = request.get("edits")
            if not isinstance(edits, list):
                raise ReproError("apply_edits requires an \"edits\" list")
            return self.apply_edits(
                edits, repair=bool(request.get("repair", True))
            )
        if op == "find_seeds" and request.get("scatter"):
            return self._scatter_find_seeds(request)
        if op in _QUERY_OPS or op == "warm_index":
            return self._dispatch_affinity(request)
        raise ReproError(
            f"unknown op {op!r}; expected one of "
            f"{_QUERY_OPS + ('warm_index', 'apply_edits', 'metrics', 'health', 'events', 'trace', 'flightrec', 'ping')}"
        )

    # -- tracing + flight-recorder plumbing -----------------------------

    def _begin_trace(self, op, **attrs) -> Optional[dict]:
        """Open the router-clock ``serve.query`` span (None when off)."""
        if self._trace is None:
            return None
        trace_id = f"t-{next(self._trace_seq):06d}"
        return self._trace.begin(
            "serve.query", trace_id=trace_id, op=op, **attrs
        )

    @staticmethod
    def _with_trace_context(request: dict, record: Optional[dict]) -> dict:
        """Copy ``request`` with the propagation context injected.

        Called AFTER :func:`routing_token` so placement never sees the
        private key (the token only reads identity fields anyway).
        """
        if record is None:
            return request
        ctx = TraceContext(record["trace_id"], record["span_id"])
        return {**request, TRACE_CONTEXT_KEY: ctx.as_dict()}

    def _flight_rejection(self, exc, op, qos, record, started) -> None:
        """Flight-record a router-level admission rejection."""
        if record is not None:
            self._trace.finish(record, error=exc.code)
        self.flightrec.record(
            reason="rejected",
            op=op,
            qos_class=qos,
            phase="admission",
            code=exc.code,
            retry_after_ms=exc.retry_after_ms,
            elapsed_ms=round((time.monotonic() - started) * 1000.0, 3),
            trace_id=record["trace_id"] if record is not None else None,
        )

    def _finish_query(self, record, response, op, qos, request,
                      started) -> None:
        """Close the router span and flight-record qualifying queries."""
        elapsed_ms = (time.monotonic() - started) * 1000.0
        ok = bool(response.get("ok"))
        if record is not None:
            self._trace.finish(
                record, ok=ok,
                cache=response.get("cache"), tier=response.get("tier"),
            )
        error = response.get("error")
        kind = str(response.get("type") or "")
        # Only admission/budget failures are flight-worthy; a plain
        # validation error is the client's bug, not a serving incident.
        failed = not ok and (
            isinstance(error, dict) or kind == "BudgetExceededError"
        )
        deadline = request.get("deadline")
        deadline_ms = (
            float(deadline) * 1000.0 if deadline is not None else None
        )
        if not self.flightrec.should_record(
            elapsed_ms=elapsed_ms, deadline_ms=deadline_ms, failed=failed
        ):
            return
        if failed:
            reason = (
                "cancelled" if kind == "BudgetExceededError" else "rejected"
            )
        elif deadline_ms is not None and elapsed_ms > deadline_ms:
            reason = "deadline_miss"
        else:
            reason = "slow"
        decisions = None
        if ok:
            decisions = {
                "class": response.get("class"),
                "tier": response.get("tier"),
                "cache": response.get("cache"),
                "epoch": response.get("epoch"),
                "degraded": response.get("degraded") is not None,
            }
        # The stitched trace is already complete: worker bundles ride
        # the same reply and are ingested before the future resolves.
        trace = (
            self._trace.chrome_trace(record["trace_id"])
            if record is not None else None
        )
        self.flightrec.record(
            reason=reason,
            op=op,
            qos_class=qos,
            elapsed_ms=round(elapsed_ms, 3),
            deadline_ms=deadline_ms,
            code=error.get("code") if isinstance(error, dict) else None,
            error=error if isinstance(error, str) else None,
            tier=response.get("tier"),
            decisions=decisions,
            trace_id=record["trace_id"] if record is not None else None,
            trace=trace,
        )

    def _dispatch_affinity(self, request: dict) -> dict:
        op = request.get("op")
        qos = str(request.get("class", request.get("qos_class",
                                                   "interactive")))
        started = time.monotonic()
        record = self._begin_trace(op, **{"class": qos})
        try:
            self._admission.admit(qos)
        except QueryRejectedError as exc:
            self._flight_rejection(exc, op, qos, record, started)
            raise
        try:
            self._enter_query()
            try:
                token = routing_token(request)
                payload = self._with_trace_context(request, record)
                while True:
                    worker = self._place(token)
                    future = self._call(worker, payload, retryable=True)
                    try:
                        response = future.result()
                    except WorkerDiedError:
                        # The worker left the ring; re-place on survivors.
                        continue
                    self._finish_query(
                        record, response, op, qos, request, started
                    )
                    return response
            finally:
                self._exit_query()
        finally:
            self._admission.release(qos)

    def _place(self, token: str) -> _Worker:
        try:
            worker_id = self.ring.place(token)
        except ConfigurationError:
            raise WorkerDiedError(
                "no live workers remain in the sharded service"
            ) from None
        return self._workers[worker_id]

    def worker_for(self, request: dict) -> str:
        """Ring placement for a request — exposed for affinity tests."""
        return self.ring.place(routing_token(request))

    # -- scatter/gather greedy coverage --------------------------------

    def _scatter_find_seeds(self, request: dict) -> dict:
        qos = str(request.get("class", request.get("qos_class",
                                                   "interactive")))
        if request.get("engine") not in (None, "trs"):
            raise InvalidQueryError(
                "scatter coverage supports engine='trs' only"
            )
        started = time.monotonic()
        record = self._begin_trace("find_seeds", scatter=True,
                                   **{"class": qos})
        try:
            self._admission.admit(qos)
        except QueryRejectedError as exc:
            self._flight_rejection(exc, "find_seeds", qos, record, started)
            raise
        try:
            self._enter_query()
            try:
                with self._stats_lock:
                    self._scatter_queries += 1
                attempts = 0
                while True:
                    try:
                        response = self._scatter_once(
                            request, qos, trace=record
                        )
                    except WorkerDiedError:
                        attempts += 1
                        if attempts > 2:
                            raise
                        with self._stats_lock:
                            self._scatter_restarts += 1
                        # Deterministic pipeline: a clean restart over
                        # the surviving fleet gives the same answer.
                        continue
                    self._finish_query(
                        record, response, "find_seeds", qos, request,
                        started,
                    )
                    return response
            finally:
                self._exit_query()
        finally:
            self._admission.release(qos)

    def _scatter_once(
        self, request: dict, qos: str, trace: Optional[dict] = None
    ) -> dict:
        started = time.monotonic()
        live = self._live_workers()
        if not live:
            raise WorkerDiedError(
                "no live workers remain in the sharded service"
            )
        sid = f"scatter-{next(self._sids)}"
        part_count = len(live)
        k = int(request["k"])
        # Propagation context for the scatter phases: every build/pick
        # runs under the router's serve.query span, so the stitched
        # trace shows one query fanning across all worker pids.
        ctx = (
            TraceContext(trace["trace_id"], trace["span_id"]).as_dict()
            if trace is not None else None
        )
        base = {
            "op": "_shard.build",
            "sid": sid,
            "targets": list(request["targets"]),
            "tags": list(request.get("tags", ())),
            "k": k,
            "seed": int(request.get("seed", 0)),
            "part_count": part_count,
            "expect_epoch": self._epoch,
        }
        if ctx is not None:
            base[TRACE_CONTEXT_KEY] = ctx
        futures = [
            self._call(w, {**base, "part_index": i}, retryable=False)
            for i, w in enumerate(live)
        ]
        try:
            infos = self._gather(futures, "scatter build")
            thetas = {info["theta"] for info in infos}
            epochs = {info["epoch"] for info in infos}
            if len(thetas) != 1 or len(epochs) != 1:
                raise ReproError(
                    f"scatter divergence: thetas={sorted(thetas)} "
                    f"epochs={sorted(epochs)}"
                )
            theta = thetas.pop()
            num_targets = infos[0]["num_targets"]
            num_nodes = int(self._graph.num_nodes)
            counts = np.zeros(num_nodes, dtype=np.int64)
            for info in infos:
                counts += np.asarray(info["counts"], dtype=np.int64)

            # Greedy max coverage over summed residual counts — same
            # argmax/tie-break/stop/filler semantics as
            # repro.sketch.coverage (allowed = all nodes).
            seeds: List[int] = []
            marginals: List[int] = []
            used = np.zeros(num_nodes, dtype=bool)
            covered = 0
            budget = min(k, num_nodes)
            for _ in range(budget):
                masked = np.where(~used, counts, -1)
                best = int(masked.argmax())
                gain = int(masked[best])
                if gain <= 0:
                    break
                seeds.append(best)
                marginals.append(gain)
                used[best] = True
                pick = {"op": "_shard.pick", "sid": sid, "node": best}
                if ctx is not None:
                    pick[TRACE_CONTEXT_KEY] = ctx
                picks = [
                    self._call(w, dict(pick), retryable=False)
                    for w in live
                ]
                responses = self._gather(picks, "scatter pick")
                counts = np.zeros(num_nodes, dtype=np.int64)
                covered = 0
                for resp in responses:
                    counts += np.asarray(resp["counts"], dtype=np.int64)
                    covered += int(resp["covered"])
            if len(seeds) < budget:
                fillers = np.flatnonzero(~used)
                for node in fillers[: budget - len(seeds)].tolist():
                    seeds.append(int(node))
                    marginals.append(0)

            total = sum(int(info["local_sets"]) for info in infos)
            fraction = covered / total if total else 0.0
            elapsed_ms = (time.monotonic() - started) * 1000.0
            return {
                "ok": True,
                "seeds": [int(s) for s in seeds],
                "spread": float(fraction * num_targets),
                "engine": "trs",
                "cache": "scatter",
                "class": qos,
                "tier": "full",
                "epoch": self._epoch,
                "elapsed_ms": round(elapsed_ms, 3),
                "scatter": {
                    "workers": part_count,
                    "theta": int(theta),
                    "covered": int(covered),
                    "total_sets": int(total),
                    "marginals": [int(m) for m in marginals],
                },
            }
        finally:
            for w in live:
                if not w.dead:
                    try:
                        self._call(
                            w, {"op": "_shard.finish", "sid": sid},
                            retryable=False,
                        )
                    except ServerClosedError:  # pragma: no cover
                        break

    def _gather(self, futures: List[Future], what: str) -> List[dict]:
        results = []
        for future in futures:
            response = future.result()
            if not response.get("ok"):
                error = response.get("error")
                kind = response.get("type", "")
                if kind == "InvalidQueryError":
                    raise InvalidQueryError(str(error))
                raise ReproError(f"{what} failed: {error}")
            results.append(response)
        return results

    # -- epoch broadcast ------------------------------------------------

    def apply_edits(self, edits, repair: bool = True) -> dict:
        """Broadcast an edit batch to every worker (writer-gated).

        Appends to the journal *before* sending, so a worker that dies
        mid-apply replays the batch during respawn; afterwards every
        worker must report the same epoch or the call fails loudly.
        """
        if not self._spec.mutable:
            raise ReproError(
                "apply_edits requires a mutable service "
                "(WorkerSpec(mutable=True))"
            )
        batch = ([dict(e) for e in edits], bool(repair))
        with self._gate:
            while self._gate_writer:
                self._gate.wait()
            self._gate_writer = True
            while self._gate_queries:
                self._gate.wait()
        try:
            self._journal.append(batch)
            live = self._live_workers()
            if not live:
                raise WorkerDiedError(
                    "no live workers remain in the sharded service"
                )
            futures = {
                w.id: self._call(
                    w,
                    {"op": "apply_edits", "edits": batch[0],
                     "repair": batch[1]},
                    retryable=False,
                )
                for w in live
            }
            summary: Optional[dict] = None
            epochs = set()
            for worker_id, future in futures.items():
                try:
                    response = future.result()
                except WorkerDiedError:
                    # The respawn replayed the journal (including this
                    # batch); confirm its epoch through a health probe.
                    worker = self._workers[worker_id]
                    if worker.dead:
                        continue
                    probe = self._call(
                        worker, {"op": "health"}, retryable=True
                    ).result()
                    epochs.add(int(probe["health"]["epoch"]))
                    continue
                if not response.get("ok"):
                    raise ReproError(
                        f"apply_edits failed on {worker_id}: "
                        f"{response.get('error')}"
                    )
                epochs.add(int(response["epoch"]))
                if summary is None:
                    summary = response
            if len(epochs) != 1:
                raise ReproError(
                    f"epoch divergence after apply_edits: {sorted(epochs)}"
                )
            self._epoch = epochs.pop()
            if summary is None:  # every worker died and respawned
                summary = {"ok": True, "epoch": self._epoch}
            summary["epoch"] = self._epoch
            summary["workers"] = len(futures)
            self.events.emit(
                "shard.epoch_broadcast", epoch=self._epoch,
                workers=len(futures), edits=len(batch[0]),
            )
            return summary
        finally:
            with self._gate:
                self._gate_writer = False
                self._gate.notify_all()

    # -- observability ---------------------------------------------------

    def _router_snapshot(self) -> dict:
        with self._stats_lock:
            counters = {
                "router.dispatched": self._dispatched,
                "router.retries": self._retries,
                "router.respawns": self._respawn_count,
                "router.scatter_queries": self._scatter_queries,
                "router.scatter_restarts": self._scatter_restarts,
                "router.workers.unreachable": self._unreachable,
            }
        admission = self._admission.snapshot()
        counters["router.admitted"] = admission["admitted"]
        counters["router.rejected"] = admission["rejected"]
        return {
            "counters": counters,
            "gauges": {
                "router.workers": float(len(self._live_workers())),
                "router.in_flight": float(admission["in_flight"]),
            },
            "histograms": {},
        }

    def _metrics_response(self) -> dict:
        from repro.obs.live import merge_metrics_snapshots
        from repro.serve.server import METRICS_SCHEMA

        futures = [
            (w, self._call(w, {"op": "metrics"}, retryable=True))
            for w in self._live_workers()
        ]
        snapshots: List[dict] = []
        cache: Dict[str, Any] = {}
        per_worker: Dict[str, Dict[str, Any]] = {}
        unreachable = 0
        for worker, future in futures:
            info: Dict[str, Any] = {
                "pid": worker.pid,
                "endpoint": worker.endpoint,
                "respawns": worker.respawns,
            }
            try:
                response = future.result()
            except (WorkerDiedError, ServerClosedError) as exc:
                # A worker dying mid-scrape is a labeled gap in the
                # response, never a KeyError or a silently missing row.
                info["unreachable"] = True
                info["error"] = type(exc).__name__
                per_worker[worker.id] = info
                unreachable += 1
                continue
            if not response.get("ok"):
                info["unreachable"] = True
                info["error"] = str(response.get("error"))
                per_worker[worker.id] = info
                unreachable += 1
                continue
            metrics = response.get("metrics") or {}
            snapshots.append(metrics)
            counters = metrics.get("counters") or {}
            gauges = metrics.get("gauges") or {}
            info["queries"] = int(counters.get("serve.queries") or 0)
            info["inflight"] = float(gauges.get("serve.inflight") or 0.0)
            info["epoch"] = int(gauges.get("serve.epoch") or 0)
            per_worker[worker.id] = info
            for key, value in (response.get("cache") or {}).items():
                if isinstance(value, (int, float)):
                    cache[key] = cache.get(key, 0) + value
        if unreachable:
            with self._stats_lock:
                self._unreachable += unreachable
        # Router snapshot is taken AFTER the scrape so the unreachable
        # counter reflects this very scrape's gaps.
        snapshots.insert(0, self._router_snapshot())
        merged = merge_metrics_snapshots(snapshots)
        # Per-worker families are injected post-merge so they never sum
        # across workers; rendered as labeled OpenMetrics series and the
        # per-worker rows of `repro top`.
        for worker_id, info in per_worker.items():
            if info.get("unreachable"):
                continue
            merged["counters"][f"worker.{worker_id}.queries"] = (
                info["queries"]
            )
            merged["gauges"][f"worker.{worker_id}.inflight"] = (
                info["inflight"]
            )
            merged["gauges"][f"worker.{worker_id}.respawns"] = float(
                info["respawns"]
            )
            merged["gauges"][f"worker.{worker_id}.epoch"] = float(
                info["epoch"]
            )
        return {
            "ok": True,
            "schema": METRICS_SCHEMA,
            "metrics": merged,
            "cache": cache,
            "workers": per_worker,
        }

    def events_payload(self, limit: Optional[int] = None) -> dict:
        """Causally merged fleet event stream (``repro.obs.events/2``).

        Scrapes every live worker's event ring plus the router's own
        and merges them into one ordered stream; a worker that dies
        mid-scrape becomes a labeled gap in ``sources``.
        """
        futures = [
            (w, self._call(w, {"op": "events"}, retryable=True))
            for w in self._live_workers()
        ]
        payloads: Dict[str, Any] = {"router": self.events.payload(None)}
        for worker, future in futures:
            try:
                response = future.result()
            except (WorkerDiedError, ServerClosedError):
                payloads[worker.id] = None
                continue
            payloads[worker.id] = response if response.get("ok") else None
        return merge_event_payloads(
            payloads, epoch=self._epoch, limit=limit
        )

    def _drain_worker_spans(self) -> None:
        """Pull buffered span bundles out of every live worker.

        The ``_shard.spans`` reply carries the bundles piggy-backed, so
        by the time each future resolves the receive loop has already
        ingested them into the collector.
        """
        futures = [
            (w, self._call(w, {"op": "_shard.spans"}, retryable=False))
            for w in self._live_workers()
        ]
        for _worker, future in futures:
            try:
                future.result()
            except (WorkerDiedError, ServerClosedError):
                continue

    def chrome_trace(self, trace_id: Optional[str] = None) -> List[dict]:
        """One stitched fleet Chrome trace (empty when tracing is off)."""
        if self._trace is None:
            return []
        self._drain_worker_spans()
        return self._trace.chrome_trace(trace_id)

    def trace_payload(self, trace_id: Optional[str] = None) -> dict:
        """The ``/trace`` debug document for the fleet."""
        if self._trace is None:
            return empty_trace_payload()
        self._drain_worker_spans()
        return self._trace.payload(trace_id)

    def flight_payload(self, limit: Optional[int] = None) -> dict:
        """The ``/debug/slow`` document (always available)."""
        return self.flightrec.payload(limit)

    def metrics(self) -> dict:
        """Aggregated fleet metrics (one merged snapshot)."""
        return self._metrics_response()["metrics"]

    def cache_stats(self):
        """Summed per-worker cache stats as a plain dict-like object."""
        return _DictStats(self._metrics_response()["cache"])

    def health(self) -> dict:
        """Router-local health: never blocks on worker round-trips."""
        workers = {
            w.id: {
                "alive": w.alive,
                "pid": w.pid,
                "respawns": w.respawns,
                "endpoint": w.endpoint,
                "clock_offset_ms": round(w.clock_offset * 1000.0, 3),
            }
            for w in self._workers.values()
        }
        live = len(self._live_workers())
        if self._closed:
            status = "closed"
        elif live == len(self._workers):
            status = "ok"
        elif live:
            status = "degraded"
        else:
            status = "failed"
        return {
            "status": status,
            "epoch": self._epoch,
            "tracing": self._trace is not None,
            "workers": workers,
            "admission": self._admission.snapshot(),
            "ring": {
                "members": sorted(self.ring.members),
                "replicas": self.ring.replicas,
            },
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_workers(self) -> int:
        return len(self._live_workers())

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Live worker pids, for chaos tests that SIGKILL a worker."""
        return {w.id: w.pid for w in self._live_workers()}

    # -- convenience query helpers (wire-shaped responses) --------------

    def find_seeds(self, targets, tags=(), k=1, **kw) -> dict:
        return self.route_request({
            "op": "find_seeds", "targets": list(targets),
            "tags": list(tags), "k": k, **kw,
        })

    def find_tags(self, seeds, targets, r=1, **kw) -> dict:
        return self.route_request({
            "op": "find_tags", "seeds": list(seeds),
            "targets": list(targets), "r": r, **kw,
        })

    def estimate_spread(self, seeds, targets, tags=(), **kw) -> dict:
        return self.route_request({
            "op": "spread", "seeds": list(seeds),
            "targets": list(targets), "tags": list(tags), **kw,
        })

    def broadcast(self, request: dict) -> List[dict]:
        """Send one request to every live worker and gather the replies.

        For fleet-wide warming (``warm_index``) where affinity routing
        would prime only one worker's cache.
        """
        futures = [
            self._call(w, dict(request), retryable=True)
            for w in self._live_workers()
        ]
        return [f.result() for f in futures]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut the fleet down and release shared-memory segments."""
        with self._fleet_lock:
            if self._closed:
                return
            self._closing = True
            self._closed = True
            workers = list(self._workers.values())
        for worker in workers:
            if worker.conn is None:
                continue
            try:
                worker.conn.send({
                    "op": "_shard.shutdown", "_rid": _CONTROL_RID,
                })
            except (OSError, BrokenPipeError, ValueError):
                pass
        for worker in workers:
            if worker.process is not None:
                worker.process.join(timeout=10.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
            with worker.lock:
                orphans = dict(worker.outstanding)
                worker.outstanding.clear()
            for pending in orphans.values():
                pending.future.set_exception(
                    ServerClosedError("sharded service closed")
                )
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "ShardedCampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _DictStats(dict):
    """Summed cache counters with the ``CacheStats`` surface callers use.

    Numeric fields are fleet-wide sums; missing fields read as 0 so
    ``stats.entries``-style access keeps working against any worker
    cache-stats version.
    """

    def as_dict(self) -> dict:
        return dict(self)

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            return 0
