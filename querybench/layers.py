"""Per-layer metrics of a traced run, measured from outside the program.

Timed runs call the library untouched. Only the traced run installs
:class:`Instruments`, which rebinds three public callables to
span-opening wrappers so the layers that have no span of their own
become visible:

* ``repro.tags.batch.collect_paths``      -> span ``tags.collect_paths``
* ``repro.core.joint.estimate_spread``    -> span ``diffusion.mc``
* ``PathSpreadEvaluator.spread``          -> span ``tags.spread_eval``

``repro.tags.paths.top_paths_from_seed`` is also rebound, without a
span, only to learn which (seed, target) pairs each ``collect_paths``
call searched, so path-search truncation can be counted from the pool
it returns. Everything else comes from the spans and counters
``repro.obs`` already records (direct workloads) or from the fleet's
stitched trace and merged metrics (serve-mixed).
"""

from __future__ import annotations

import inspect
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

import stats

#: Span name -> layer. Spans without an entry take their parent's layer.
LAYER_OF = {
    "tags.collect_paths": "tags.collect_paths",
    "tags.build_lattice": "tags.lattice",
    "tags.batch": "tags.select",
    "tags.individual": "tags.select",
    "tags.spread_eval": "tags.spread_eval",
    "itrs.traverse": "index.traverse",
    "itrs.ensure_indexes": "index.build",
    "sketch.pilot": "sketch.pilot",
    "trs.pilot": "sketch.pilot",
    "itrs.pilot": "sketch.pilot",
    "trs.sample": "sketch.sample",
    "imm.search": "sketch.sample",
    "engine.sample_rr_sets": "sketch.sample",
    "trs.cover": "sketch.cover",
    "itrs.cover": "sketch.cover",
    "imm.select": "sketch.cover",
    "diffusion.mc": "diffusion.mc",
    "engine.cascade_target_counts": "diffusion.mc",
    "joint": "core.joint",
    "joint.init": "core.joint",
    "joint.round": "core.joint",
    "joint.seed_step": "core.joint",
    "joint.tag_step": "core.joint",
    # Engine entry spans and serving spans: their own self time is
    # glue, reported together as bench.other.self_s.
    "trs": "other",
    "imm": "other",
    "itrs": "other",
    "greedy_mc": "other",
    "serve.query": "other",
}

#: Everything inside these spans belongs to them (the pilot samples RR
#: sets and cascades through the same engine spans as the main phase).
INHERIT_UNDER = ("sketch.pilot", "trs.pilot", "itrs.pilot")

SELF_TIME_LAYERS = (
    "tags.collect_paths", "tags.lattice", "tags.select", "tags.spread_eval",
    "index.traverse", "index.build", "sketch.pilot", "sketch.sample",
    "sketch.cover", "diffusion.mc", "core.joint",
)

#: Program counter -> reported per-layer metric (summed per query).
COUNTER_AS = {
    "tags.batches_built": "tags.batches_built",
    "itrs.working_graphs": "index.working_graphs",
    "index.worlds_built": "index.worlds_built",
    "rr.samples_drawn": "rr.samples_drawn",
    "rr.members": "rr.members",
    "coverage.gain_evaluations": "coverage.gain_evaluations",
    "cascade.samples_drawn": "cascade.samples_drawn",
    "joint.rounds": "core.joint.rounds",
}

#: ``index.bytes`` is derived: 8 bytes per stored index edge.
INDEX_EDGE_BYTES = 8

SERVE_METRICS = (
    "serve.router.overhead_s_p50", "router.retries", "router.dispatched",
    "serve.queue.wait_s_p50", "serve.cache.hit_ratio", "serve.cache.builds",
    "serve.cache.singleflight_joins", "serve.rejected", "serve.degraded",
    "serve.edit.apply_s_p50", "serve.repair.promoted",
    "serve.repair.repaired", "serve.repair.dropped",
    "serve.repair.resampled_sets",
)

PATH_COUNTS = (
    "tags.collect_paths.calls", "tags.paths.found", "tags.paths.pairs_short",
    "tags.paths.targets_unreached", "tags.spread_eval.calls",
)


class Instruments:
    """The traced run's wrappers, with the counts they take.

    Use as a context manager; the original callables are restored on
    exit. Wrappers are not thread-safe and are only installed by the
    single-client direct workloads.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._searched: List[tuple] = []
        self._restore: List[Callable[[], None]] = []

    def _patch(self, owner: Any, name: str, make: Callable) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._restore.append(lambda: setattr(owner, name, original))

    def __enter__(self) -> "Instruments":
        from repro import obs
        import repro.core.joint as joint_mod
        import repro.tags.batch as batch_mod
        import repro.tags.paths as paths_mod
        from repro.tags.spread_eval import PathSpreadEvaluator

        def spanned(name: str, counter: Optional[str] = None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if counter:
                        self.counts[counter] += 1
                    with obs.span(name):
                        return fn(*args, **kwargs)
                return wrapper
            return make

        def recording(fn):
            def wrapper(graph, source, targets, *args, **kwargs):
                self._searched.append((int(source), list(targets)))
                return fn(graph, source, targets, *args, **kwargs)
            return wrapper

        def collecting(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._searched = []
                self.counts["tags.collect_paths.calls"] += 1
                with obs.span("tags.collect_paths"):
                    pool = fn(*args, **kwargs)
                self._count_pool(pool, bound.arguments["config"].per_pair_paths)
                return pool
            return wrapper

        self._patch(paths_mod, "top_paths_from_seed", recording)
        self._patch(batch_mod, "collect_paths", collecting)
        self._patch(joint_mod, "estimate_spread", spanned("diffusion.mc"))
        self._patch(PathSpreadEvaluator, "spread",
                    spanned("tags.spread_eval", "tags.spread_eval.calls"))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            self._restore.pop()()

    def _count_pool(self, pool: Sequence[Any], per_pair: int) -> None:
        """Truncation counts over the pairs the last call searched."""
        per_pair_found = Counter((p.source, p.target) for p in pool)
        self.counts["tags.paths.found"] += len(pool)
        for source, targets in self._searched:
            for target in {int(t) for t in targets}:
                if target == source:
                    continue
                got = per_pair_found.get((source, target), 0)
                if got < per_pair:
                    self.counts["tags.paths.pairs_short"] += 1
                if got == 0:
                    self.counts["tags.paths.targets_unreached"] += 1


def _work_metrics(roots, counters: Dict[str, float],
                  per: float) -> Dict[str, float]:
    """Self time per layer and program work counters, scaled by ``per``."""
    selfs = stats.self_times(roots, LAYER_OF, INHERIT_UNDER, default="other")
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) * per
           for layer in SELF_TIME_LAYERS}
    out["bench.other.self_s"] = selfs.get("other", 0.0) * per
    for name, metric in COUNTER_AS.items():
        out[metric] = counters.get(name, 0) * per
    out["index.bytes"] = (
        INDEX_EDGE_BYTES * counters.get("index.stored_edges", 0) * per
    )
    return out


def direct_layer_metrics(
    traces: Sequence[List[Dict[str, Any]]],
    counters: Dict[str, float],
    instrument_counts: Dict[str, int],
    queries: int,
) -> Dict[str, float]:
    """Per-query layer metrics of a direct workload's traced pass.

    ``traces`` are the exported span forests of every traced query,
    ``counters`` the program's summed work counters.
    """
    per = 1.0 / max(queries, 1)
    out = _work_metrics(
        [root for trace in traces for root in trace], counters, per)
    for name in PATH_COUNTS:
        out[name] = instrument_counts.get(name, 0) * per
    for name in SERVE_METRICS:
        out[name] = 0.0
    return out


def fleet_layer_metrics(
    chrome_events: Sequence[Dict[str, Any]],
    metrics: Dict[str, Any],
    counters: Dict[str, float],
    overheads: Sequence[float],
    edit_apply_s: Sequence[float],
    queries: int,
) -> Dict[str, float]:
    """Per-query layer metrics of serve-mixed.

    Self times come from the traced pass's stitched Chrome trace and
    work counters from its inlined reports (``counters``); serving
    counters from a merged fleet metrics snapshot.
    """
    per = 1.0 / max(queries, 1)
    out = _work_metrics(stats.chrome_to_trees(chrome_events), counters, per)
    for name in PATH_COUNTS:
        out[name] = 0.0
    fleet = metrics.get("counters", {})
    hists = metrics.get("histograms", {})
    hits = fleet.get("serve.cache.hits", 0)
    misses = fleet.get("serve.cache.misses", 0)
    out.update({
        "serve.router.overhead_s_p50": stats.median(overheads),
        "serve.queue.wait_s_p50":
            stats.quantile_p50(hists.get("serve.queue.wait_ms")) / 1000.0,
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.edit.apply_s_p50": stats.median(edit_apply_s),
    })
    for name in SERVE_METRICS:  # the rest are plain fleet counters
        out.setdefault(name, fleet.get(name, 0) * per)
    return out
