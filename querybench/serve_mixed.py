"""serve-mixed: open loop against a 2-worker mutable sharded fleet.

Requests are due at a fixed rate regardless of how fast replies come;
two client threads issue each one at its due time (or as soon as a
thread frees up) and latency is timed from the due time. The traffic
runs over a fixed catalog of campaigns whose popularity falls with
their index (Zipf); the workload seed draws the request sequence:

* reads split as the repo's serving traffic model does
  (``repro.serve.loadgen.LoadSpec``: ``op_mix`` 70% ``find_seeds``
  with ``engine="trs"`` / 30% ``estimate_spread``, RNG seeds from a
  pool of ``seed_pool`` = 4, so repeats hit the workers' asset caches
  and new (campaign, seed) keys miss them);
* small ``find_tags`` reads (one seed, five targets two hops away) on
  top of that mix, which the traffic model does not generate;
* every ``EDIT_EVERY``-th request an ``apply_edits`` batch of one
  ``tag_set`` edit from a fixed edit pool, which makes the workers
  promote, repair and drop cached assets while reads continue beside
  it.

The catalog is fixed because the pool's cost and memory vary widely
with the campaigns drawn: a pool drawn per seed would time a different
service each run.

The fleet runs the bit-parallel engine with no chaos plan and no
``build_slow`` sleeps, so the workload is CPU-bound. The whole run —
client threads, router and both workers — is pinned to one CPU (see
:func:`_pin_to_one_cpu`). The sleep-bound
``BENCH_serve.json`` sharded speed-up and the pooled-engine legs of
``BENCH_engine.json`` are not inputs to it.

Output checks: every answer's shape, a fixed sample of served
``find_seeds`` answers against a direct cold build on the same epoch's
snapshot (mirrored client-side from the applied edit batches), and
that every edit batch advanced every worker by exactly one epoch.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common
import layers
import stats

WORKERS = 2
CLIENT_THREADS = 2
#: Offered load (requests per second): sustained on a 2-core host
#: without a growing backlog.
RATE = 18.0
CAMPAIGNS = 16
CATALOG_SEED = 2018
ZIPF_S = 1.1
K = 5
FIND_TAGS_R = 2
EDIT_EVERY = 60
#: Size of the fixed edit pool: each edit once in a 30 s run.
EDITS = 9
SPREAD_SAMPLES = 4000
#: Read weights: ``LoadSpec.op_mix`` (find_seeds / spread) plus a small
#: find_tags weight, and ``LoadSpec.seed_pool``.
READ_MIX = (("find_seeds", 0.7), ("spread", 0.3), ("find_tags", 0.01))
SEED_POOL = 4
#: Every SAMPLE_EVERY-th find_seeds answer is re-derived directly.
SAMPLE_EVERY = 8
SLO_S = 0.1


@dataclass(frozen=True)
class Campaign:
    targets: Tuple[int, ...]
    tags: Tuple[str, ...]
    seed: int
    spread_seeds: Tuple[int, ...]
    #: find_tags reads: one seed and five targets two hops from it.
    tag_seed: int
    tag_targets: Tuple[int, ...]


@dataclass
class Slot:
    due: float
    request: Dict[str, Any]
    sent: float = 0.0
    done: float = 0.0
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    rejected: bool = False


@dataclass
class Fleet:
    service: Any
    data: Any

    @property
    def graph(self):
        return self.data.graph


def _config():
    from repro import JointConfig, SketchConfig, TagSelectionConfig

    # A capped path search keeps find_tags reads small: uncapped, one
    # unreachable target costs up to 100 000 pops (0.5 s).
    return JointConfig(
        sketch=SketchConfig(),
        tag_config=TagSelectionConfig(
            per_pair_paths=3, max_path_targets=5, max_queue=20_000),
    )


def _warm(service, graph) -> None:
    """One small request per op on each worker's ring arc."""
    tags = list(graph.tags[:1])
    for seed in range(4):
        service.find_seeds(range(20), tags, k=2, engine="trs", seed=seed)
        service.estimate_spread([0, 1], range(20), tags, num_samples=50,
                                seed=seed)


def setup(tracing: bool = False) -> Fleet:
    from repro.datasets import twitter
    from repro.serve import ShardedCampaignService, WorkerSpec

    data = twitter(scale=1.0, seed=13)
    spec = WorkerSpec(
        config=_config(), engine_mode="bitparallel", mutable=True,
        repair_mode="bitparallel",
    )
    # A traced fleet keeps every query's spans until the run ends.
    service = ShardedCampaignService(
        data.graph, workers=WORKERS, spec=spec, tracing=tracing,
        trace_capacity=1_000_000,
    )
    try:
        _warm(service, data.graph)
    except BaseException:
        service.close()
        raise
    return Fleet(service, data)


def _two_hop(graph, node: int) -> List[int]:
    indptr, edges = graph.forward_csr()
    dst = graph.dst

    def out(u: int) -> set:
        return {int(dst[e]) for e in edges[indptr[u]:indptr[u + 1]]}

    return sorted(set().union(*(out(u) for u in out(node))) - {node})


def edit_pool(graph) -> List[Dict[str, Any]]:
    """The fixed pool of ``tag_set`` edits the edit batches apply.

    One run applies each once, in a seed-drawn order: an edit's repair
    cost depends heavily on its edge and tag, so drawing edits per seed
    made the edit stalls, and the reads queued behind them, differ from
    run to run.
    """
    rng = np.random.default_rng([CATALOG_SEED, 1])
    tags = list(graph.tags)
    return [
        {"op": "tag_set", "edge_id": int(edge),
         "tag": str(rng.choice(tags)), "prob": float(rng.uniform(0.05, 0.5))}
        for edge in rng.choice(graph.num_edges, size=EDITS, replace=False)
    ]


def catalog(data) -> List[Campaign]:
    """The fixed campaign pool; popularity falls with the index."""
    from repro.datasets import community_targets

    graph = data.graph
    rng = np.random.default_rng(CATALOG_SEED)
    tags = list(graph.tags)
    clusters = data.community_names
    out = []
    while len(out) < CAMPAIGNS:
        tag_seed = int(rng.integers(graph.num_nodes))
        near = _two_hop(graph, tag_seed)
        if len(near) < 5:
            continue
        targets = community_targets(
            data, clusters[int(rng.integers(len(clusters)))],
            size=int(rng.integers(60, 301)), rng=int(rng.integers(2**31)),
        )
        out.append(Campaign(
            targets=tuple(int(t) for t in targets),
            tags=tuple(sorted(str(t) for t in rng.choice(
                tags, size=int(rng.integers(1, 6)), replace=False))),
            seed=int(rng.integers(2**31)),
            spread_seeds=tuple(int(s) for s in rng.choice(
                graph.num_nodes, size=K, replace=False)),
            tag_seed=tag_seed,
            tag_targets=tuple(int(t) for t in rng.choice(
                near, size=5, replace=False)),
        ))
    return out


def schedule(graph, pool: List[Campaign], seed: int,
             seconds: float) -> List[Slot]:
    """The request slots of one run: due offsets and request bodies."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, CAMPAIGNS + 1) ** ZIPF_S
    weights /= weights.sum()
    ops = [op for op, _ in READ_MIX]
    op_weights = np.array([w for _, w in READ_MIX])
    op_weights /= op_weights.sum()
    count = max(int(RATE * seconds), 1)
    pool_edits = edit_pool(graph)
    edits = iter([
        pool_edits[j]
        for _ in range(-(-(count // EDIT_EVERY) // EDITS))
        for j in rng.permutation(EDITS)
    ])
    slots = []
    for i in range(count):
        due = i / RATE
        if i % EDIT_EVERY == EDIT_EVERY - 1:
            slots.append(Slot(due, {"op": "apply_edits",
                                    "edits": [next(edits)]}))
            continue
        c = pool[int(rng.choice(CAMPAIGNS, p=weights))]
        op = ops[int(rng.choice(len(ops), p=op_weights))]
        query_seed = c.seed + int(rng.integers(SEED_POOL))
        if op == "spread":
            request = {"op": "spread", "seeds": list(c.spread_seeds),
                       "targets": list(c.targets), "tags": list(c.tags),
                       "num_samples": SPREAD_SAMPLES, "seed": query_seed}
        elif op == "find_tags":
            request = {"op": "find_tags", "seeds": [c.tag_seed],
                       "targets": list(c.tag_targets), "r": FIND_TAGS_R,
                       "seed": query_seed}
        else:
            request = {"op": "find_seeds", "targets": list(c.targets),
                       "tags": list(c.tags), "k": K, "engine": "trs",
                       "seed": query_seed}
        slots.append(Slot(due, request))
    return slots


def drive(service, slots: List[Slot], report: bool = False,
          clients: int = CLIENT_THREADS) -> float:
    """Issue every slot at its due time from the client threads.

    Returns the start instant all due offsets are relative to.
    """
    from repro.exceptions import QueryRejectedError

    lock = threading.Lock()
    cursor = iter(range(len(slots)))
    start = time.perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            slot = slots[i]
            wait = start + slot.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            request = dict(slot.request, report=True) if report else slot.request
            slot.sent = time.perf_counter()
            try:
                slot.response = service.route_request(request)
            except QueryRejectedError as exc:
                slot.rejected, slot.error = True, common.error_text(exc)
            except Exception as exc:  # counted as a failed request
                slot.error = common.error_text(exc)
            slot.done = time.perf_counter()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start


def _problems(slot: Slot, graph) -> Tuple[Optional[str], bool, List[str]]:
    """(error, rejected, answer problems) of one finished slot."""
    if slot.error is not None:
        return slot.error, slot.rejected, []
    resp = slot.response or {}
    if not resp.get("ok"):
        err = resp.get("error")
        return str(err), isinstance(err, dict), []
    op = slot.request["op"]
    if op == "find_seeds":
        return None, False, common.check_seeds(resp["seeds"], K, graph.num_nodes)
    if op == "find_tags":
        return None, False, common.check_tags(resp["tags"], FIND_TAGS_R,
                                              graph.tags)
    if op == "spread":
        if not 0.0 <= resp["spread"] <= len(set(slot.request["targets"])):
            return None, False, [f"spread {resp['spread']} out of range"]
        return None, False, []
    problems = []
    if resp.get("epoch") != resp.get("previous_epoch", -2) + 1:
        problems.append(f"edit batch moved epoch {resp.get('previous_epoch')}"
                        f" -> {resp.get('epoch')}")
    if resp.get("workers") != WORKERS:
        problems.append(f"edit batch reached {resp.get('workers')} workers")
    return None, False, problems


class Mirror:
    """Client-side replay of the applied edit batches, by epoch."""

    def __init__(self, graph, slots: List[Slot]) -> None:
        from repro.graphs.mutable import MutableTagGraph, edits_from_dicts

        batches = {
            s.response["epoch"]: s.request["edits"] for s in slots
            if s.request["op"] == "apply_edits" and s.response
            and s.response.get("ok")
        }
        self.graph = MutableTagGraph(graph)
        self._snaps: Dict[int, Any] = {0: graph}
        for epoch in sorted(batches):
            if epoch != self.graph.epoch + 1:
                break  # a gap: later epochs cannot be mirrored
            self.graph.apply(edits_from_dicts(batches[epoch]))

    def snapshot(self, epoch: int):
        if epoch not in self._snaps:
            self._snaps[epoch] = self.graph.snapshot(epoch)
        return self._snaps[epoch]


def _direct_seeds(snap, request, engine) -> Tuple[List[int], float]:
    from repro.serve.keys import canonical_tags
    from repro.sketch.incremental import trs_build_repairable_sketch
    from repro.sketch.trs import trs_select_from_sketch

    k = request["k"]
    sketch = trs_build_repairable_sketch(
        snap, request["targets"], canonical_tags(request["tags"]), k,
        seed=request["seed"], config=_config().sketch, mode="bitparallel",
        engine=engine,
    )
    result = trs_select_from_sketch(snap, sketch, k)
    return list(result.seeds), float(result.estimated_spread)


def _fleet_rss_mb(service) -> float:
    """Router peak plus each worker's private peak: the shared graph
    segment is counted once, in the router that created it."""
    total = common.self_rss_peak_mb()
    for pid in service.worker_pids().values():
        if pid is not None:
            total += common.process_private_rss_peak_mb(pid)
    return total


@dataclass
class Pass:
    slots: List[Slot]
    start: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    chrome: List[Dict[str, Any]] = field(default_factory=list)
    rss_mb: float = 0.0
    worker_epochs: Dict[str, float] = field(default_factory=dict)


def _one_pass(fleet: Fleet, slots: List[Slot], traced: bool) -> Pass:
    start = drive(fleet.service, slots, report=traced)
    out = Pass(slots, start)
    out.metrics = fleet.service.metrics()
    out.worker_epochs = {
        name: value for name, value in out.metrics["gauges"].items()
        if name.startswith("worker.") and name.endswith(".epoch")
    }
    if traced:
        out.chrome = fleet.service.trace_payload()["events"]
    out.rss_mb = _fleet_rss_mb(fleet.service)
    return out


def _account(p: Pass, graph, outcomes: stats.Outcomes) -> List[bool]:
    oks = []
    for slot in p.slots:
        error, rejected, problems = _problems(slot, graph)
        oks.append(outcomes.record(error=error, rejected=rejected,
                                   problems=problems))
    batches = sum(
        1 for s, ok in zip(p.slots, oks)
        if ok and s.request["op"] == "apply_edits"
    )
    for name, epoch in sorted(p.worker_epochs.items()):
        if epoch != batches and outcomes.ok:
            outcomes.fail_answer(
                f"{name} = {epoch} after {batches} edit batches")
    return oks


def _check_sample(p: Pass, oks: List[bool], mirror: Mirror,
                  outcomes: stats.Outcomes) -> int:
    """Served == direct on every SAMPLE_EVERY-th ok find_seeds answer."""
    from repro import SamplingEngine

    engine = SamplingEngine(mode="bitparallel", workers=1)
    checked = 0
    try:
        reads = [s for s, ok in zip(p.slots, oks)
                 if ok and s.request["op"] == "find_seeds"]
        for slot in reads[::SAMPLE_EVERY]:
            epoch = slot.response["epoch"]
            if epoch > mirror.graph.epoch:
                outcomes.fail_answer(f"epoch {epoch} cannot be mirrored")
                continue
            seeds, spread = _direct_seeds(
                mirror.snapshot(epoch), slot.request, engine)
            checked += 1
            if seeds != list(slot.response["seeds"]) or spread != slot.response["spread"]:
                outcomes.fail_answer(
                    f"served {slot.response['seeds']} != direct {seeds} "
                    f"at epoch {epoch}")
    finally:
        engine.close()
    return checked


def _spread_ratios(p: Pass, oks: List[bool], mirror: Mirror,
                   verifier: common.Verifier) -> List[float]:
    return [
        verifier.ratio(mirror.snapshot(s.response["epoch"]),
                       s.response["seeds"], s.request["targets"],
                       s.request["tags"])
        for s, ok in zip(p.slots, oks)
        if ok and s.request["op"] == "find_seeds"
        and s.response["epoch"] <= mirror.graph.epoch
    ]


def _answer(slot: Slot) -> Optional[Tuple]:
    resp = slot.response
    if not resp or not resp.get("ok") or slot.request["op"] == "apply_edits":
        return None
    return (resp.get("epoch"), resp.get("seeds"), resp.get("tags"),
            resp.get("spread"))


def _router_overheads(p: Pass, oks: List[bool]) -> List[float]:
    """Client-observed service time minus worker-reported elapsed, per read."""
    return [
        (s.done - s.sent) - s.response["elapsed_ms"] / 1000.0
        for s, ok in zip(p.slots, oks)
        if ok and s.request["op"] != "apply_edits"
        and "elapsed_ms" in s.response
    ]


def _edit_apply_s(p: Pass, oks: List[bool]) -> List[float]:
    """Worker-reported apply time of the ok edit batches."""
    return [
        s.response["elapsed_ms"] / 1000.0 for s, ok in zip(p.slots, oks)
        if ok and s.request["op"] == "apply_edits"
    ]


def _miss_work(p: Pass) -> Dict[str, float]:
    """Work counters summed over the replies that built their asset.

    A cache hit's inlined report repeats its build's counters, so only
    misses count.
    """
    work: Dict[str, float] = {}
    for slot in p.slots:
        resp = slot.response or {}
        if resp.get("cache") == "miss" and resp.get("report"):
            for name, value in resp["report"]["metrics"]["counters"].items():
                work[name] = work.get(name, 0) + value
    return work


def _pin_to_one_cpu() -> None:
    """Keep this process, its threads and the workers it spawns on one CPU.

    A cache-hit read crosses several thread hand-offs between three
    processes. Spread over the two CPUs of a shared virtual machine, hit
    latency doubled for minutes at a time while the workers' own time
    grew by a fifth: the hand-offs slowed, not the work. On one CPU a
    hand-off is a local context switch instead of a wake-up of another
    virtual CPU. At this offered load the fleet is busy about an eighth
    of the time, so it rarely has work for a second CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(seed: int, seconds: float, trace: bool) -> dict:
    _pin_to_one_cpu()
    fleet, setups = common.timed_setups(setup, lambda f: f.service.close())
    verifier = common.Verifier()
    try:
        graph = fleet.graph
        window = seconds / 2.0 if trace else seconds
        pool = catalog(fleet.data)
        untraced = _one_pass(fleet, schedule(graph, pool, seed, window), False)
        outcomes = stats.Outcomes()
        oks = _account(untraced, graph, outcomes)
        mirror = Mirror(graph, untraced.slots)
        checked = _check_sample(untraced, oks, mirror, outcomes)
        slots = untraced.slots
        latencies, late = stats.open_loop_latencies(
            [untraced.start + s.due for s in slots],
            [s.sent for s in slots], [s.done for s in slots])
        is_read = [s.request["op"] != "apply_edits" for s in slots]
        read_lat = [lat for lat, r, ok in zip(latencies, is_read, oks)
                    if r and ok]
        edit_lat = [lat for lat, r, ok in zip(latencies, is_read, oks)
                    if not r and ok]
        info = {"requests": len(slots), "sampled_direct_checks": checked,
                "generator_late_s_max": late,
                "edit_latency_p50_s": stats.median(edit_lat)}
        if not trace:
            # The median is taken over find_seeds reads: they are 70% of
            # reads and mostly cache hits, so it sits well inside the
            # hit path rather than at the edge of the hit/miss mix.
            seeds_lat = [
                lat for lat, s, ok in zip(latencies, slots, oks)
                if ok and s.request["op"] == "find_seeds"
            ]
            ratios = _spread_ratios(untraced, oks, mirror, verifier)
            fleet.service.close()
            setups += common.retimed_setups(
                setup, lambda f: f.service.close())
            metrics, e2e_info = common.end_to_end(
                setup_s=setups,
                latencies=seeds_lat,
                service_s=[s.done - s.sent for s in slots],
                completed=sum(1 for s in slots if s.response is not None),
                elapsed_s=max(s.done for s in slots) - untraced.start,
                slo_s=SLO_S,
                slo_hits=sum(1 for lat in read_lat if lat <= SLO_S),
                slo_total=sum(is_read),
                ok=outcomes.ok,
                attempted=outcomes.attempted,
                spread_ratios=ratios,
                rss_mb=untraced.rss_mb,
            )
            info.update(e2e_info)
            return {"outcomes": outcomes, "metrics": metrics, "info": info}

        # The traced pass replays the same schedule on a fresh traced
        # fleet; it supplies spans and work counters only. Timings and
        # fleet counters come from the untraced pass above.
        fleet.service.close()
        fleet = setup(tracing=True)
        traced = _one_pass(fleet, schedule(graph, pool, seed, window), True)
        _account(traced, graph, outcomes)
        for slot, again, ok in zip(slots, traced.slots, oks):
            a, b = _answer(slot), _answer(again)
            if ok and a is not None and b is not None and a[0] == b[0] and a != b:
                outcomes.fail_answer(
                    f"traced answer {b} differs from untraced {a}")
        per_layer = layers.fleet_layer_metrics(
            traced.chrome, untraced.metrics, _miss_work(traced),
            _router_overheads(untraced, oks), _edit_apply_s(untraced, oks),
            len(slots),
        )
        service_s = sum(s.done - s.sent for s in slots)
        traced_s = sum(s.done - s.sent for s in traced.slots)
        tail_value, tail_pct, samples = stats.tail(read_lat)
        per_layer.update({
            "latency_tail_s": tail_value,
            "obs.trace_overhead_frac": (traced_s - service_s) / service_s,
            "bench.generator_late_s_max": late,
            "bench.traced_query_s": traced_s / len(traced.slots),
            "bench.latency_tail_pct": tail_pct,
            "bench.samples": float(samples),
            "failed_frac": outcomes.failed / outcomes.attempted,
            "edit_latency_p50_s": stats.median(edit_lat),
        })
        return {"outcomes": outcomes, "metrics": per_layer, "info": info}
    finally:
        verifier.close()
        fleet.service.close()
