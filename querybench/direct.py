"""Closed-loop runner for the direct (in-process library) workloads.

One client issues the next query when the previous one returns. The
timed pass calls the library untouched. With tracing on, the run
instead spends half its window on an untraced pass and then replays the
same queries traced: each inside its own ``repro.obs.observe()`` scope,
with :class:`layers.Instruments` installed. The replay's answers must
equal the untraced ones, and the difference in their summed latency is
the trace overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple

import common
import layers
import stats


class DirectWorkload(Protocol):
    #: Latency limit behind ``within_slo_frac``.
    slo_s: float

    def setup(self) -> Any: ...
    def close(self, ctx: Any) -> None: ...
    def queries(self, ctx: Any, seed: int) -> Iterator[Any]: ...
    def execute(self, ctx: Any, query: Any) -> Any: ...
    def answer_key(self, answer: Any) -> Tuple: ...
    def check(self, ctx: Any, query: Any, answer: Any) -> List[str]: ...
    def spread_ratio(self, ctx: Any, query: Any, answer: Any,
                     verifier: common.Verifier) -> float: ...


@dataclass
class Record:
    query: Any
    answer: Any
    error: Optional[str]
    latency_s: float


def _run_one(wl: DirectWorkload, ctx: Any, query: Any) -> Record:
    t0 = time.perf_counter()
    try:
        answer, error = wl.execute(ctx, query), None
    except Exception as exc:  # a failed query is counted, not fatal
        answer, error = None, common.error_text(exc)
    return Record(query, answer, error, time.perf_counter() - t0)


def closed_loop(wl: DirectWorkload, ctx: Any, queries: Iterator[Any],
                seconds: float) -> Tuple[List[Record], float]:
    """Issue queries back to back; start new ones only inside the window."""
    records: List[Record] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(_run_one(wl, ctx, next(queries)))
    return records, time.perf_counter() - start


def _account(wl, ctx, records, outcomes: stats.Outcomes) -> List[bool]:
    oks = []
    for rec in records:
        problems = [] if rec.error else wl.check(ctx, rec.query, rec.answer)
        oks.append(outcomes.record(error=rec.error, problems=problems))
    return oks


def traced_replay(wl: DirectWorkload, ctx: Any, records: List[Record]):
    """Replay ``records``' queries traced; returns records, spans, counters."""
    from repro import obs

    replay: List[Record] = []
    traces = []
    counters: Dict[str, float] = {}
    with layers.Instruments() as instruments:
        for rec in records:
            with obs.observe() as ob:
                replay.append(_run_one(wl, ctx, rec.query))
            traces.append(ob.tracer.as_dicts())
            for name, value in ob.metrics.as_dict()["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return replay, traces, counters, dict(instruments.counts)


def run(wl: DirectWorkload, seed: int, seconds: float, trace: bool) -> dict:
    ctx, setups = common.timed_setups(wl.setup, wl.close)
    verifier = common.Verifier()
    try:
        queries = wl.queries(ctx, seed)
        window = seconds / 2.0 if trace else seconds
        records, elapsed = closed_loop(wl, ctx, queries, window)
        rss_mb = common.self_rss_peak_mb()
        outcomes = stats.Outcomes()
        oks = _account(wl, ctx, records, outcomes)
        latencies = [r.latency_s for r in records if r.error is None]
        if not trace:
            ratios = [
                wl.spread_ratio(ctx, r.query, r.answer, verifier)
                for r, ok in zip(records, oks) if ok
            ]
            wl.close(ctx)
            setups += common.retimed_setups(wl.setup, wl.close)
            metrics, info = common.end_to_end(
                setup_s=setups,
                latencies=latencies,
                service_s=[r.latency_s for r in records],
                completed=len(latencies),
                elapsed_s=elapsed,
                slo_s=wl.slo_s,
                slo_hits=sum(
                    1 for r, ok in zip(records, oks)
                    if ok and r.latency_s <= wl.slo_s
                ),
                slo_total=len(records),
                ok=outcomes.ok,
                attempted=outcomes.attempted,
                spread_ratios=ratios,
                rss_mb=rss_mb,
            )
            return {"outcomes": outcomes, "metrics": metrics, "info": info}

        replay, traces, counters, counts = traced_replay(wl, ctx, records)
        for rec, again, ok in zip(records, replay, oks):
            if not ok:
                continue
            if again.error is not None:
                outcomes.fail_answer(f"traced replay raised {again.error}")
            elif wl.answer_key(again.answer) != wl.answer_key(rec.answer):
                outcomes.fail_answer("traced answer differs from untraced")
        untraced = sum(r.latency_s for r in records)
        traced = sum(r.latency_s for r in replay)
        per_layer = layers.direct_layer_metrics(
            traces, counters, counts, len(replay)
        )
        tail_value, tail_pct, samples = stats.tail(latencies)
        per_layer.update({
            "latency_tail_s": tail_value,
            "obs.trace_overhead_frac": (traced - untraced) / untraced,
            "bench.generator_late_s_max": 0.0,
            "bench.traced_query_s": traced / len(replay),
            "bench.latency_tail_pct": tail_pct,
            "bench.samples": float(samples),
            "failed_frac": outcomes.failed / outcomes.attempted,
            "edit_latency_p50_s": 0.0,
        })
        return {"outcomes": outcomes, "metrics": per_layer,
                "info": {"traced_queries": len(replay)}}
    finally:
        verifier.close()
        wl.close(ctx)
