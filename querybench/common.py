"""Shared pieces of the workloads: output checks, the spread verifier,
set-up timing, peak memory and the end-to-end metric set."""

from __future__ import annotations

import resource
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import stats

#: Set-up is timed in two rounds, one before the measured window and
#: one after it. Each round repeats set-up at least SETUP_REPEATS times
#: and until SETUP_BUDGET_S seconds are spent (at most SETUP_MAX times);
#: ``setup_s`` is the median over both rounds.
SETUP_REPEATS = 2
SETUP_BUDGET_S = 2.0
SETUP_MAX = 8
#: The one Monte-Carlo verifier behind ``spread_ratio``: bit-parallel
#: cascades, fixed sample count and seed, so a given answer always
#: verifies to the same number.
VERIFY_SAMPLES = 4000
VERIFY_SEED = 2018

def check_seeds(seeds: Sequence[int], k: int, num_nodes: int) -> List[str]:
    """Problems with a seed answer: k distinct in-range node ids."""
    problems = []
    if len(seeds) != k or len(set(seeds)) != len(seeds):
        problems.append(f"expected {k} distinct seeds, got {list(seeds)}")
    if any(not 0 <= int(s) < num_nodes for s in seeds):
        problems.append(f"seed out of range in {list(seeds)}")
    return problems


def check_tags(tags: Sequence[str], r: int, known: Sequence[str]) -> List[str]:
    """Problems with a tag answer: at most r distinct known tags."""
    problems = []
    if len(tags) > r or len(set(tags)) != len(tags):
        problems.append(f"expected at most {r} distinct tags, got {list(tags)}")
    unknown = set(tags) - set(known)
    if unknown:
        problems.append(f"unknown tags {sorted(unknown)}")
    return problems


class Verifier:
    """Verified spread of answers, memoised per (seeds, targets, tags)."""

    def __init__(self) -> None:
        from repro import SamplingEngine

        self._engine = SamplingEngine(mode="bitparallel", workers=1)
        self._memo: Dict[Tuple, float] = {}

    def ratio(self, graph, seeds, targets, tags) -> float:
        """Verified spread of ``seeds`` under ``tags`` over ``|targets|``."""
        from repro import estimate_spread

        key = (id(graph), tuple(seeds), tuple(targets), tuple(sorted(tags)))
        if key not in self._memo:
            spread = estimate_spread(
                graph, seeds, targets, sorted(tags),
                num_samples=VERIFY_SAMPLES, rng=VERIFY_SEED,
                engine=self._engine,
            )
            self._memo[key] = spread / len(set(targets))
        return self._memo[key]

    def close(self) -> None:
        self._engine.close()


def _repeat_setups(build: Callable[[], Any], close: Callable[[Any], None],
                   ctx: Any = None) -> Tuple[Any, List[float]]:
    """One round of timed builds (see :data:`SETUP_REPEATS`); keeps the
    last result and closes each earlier one before the next build, so
    peak memory reflects one live set-up."""
    durations: List[float] = []
    while len(durations) < SETUP_REPEATS or (
        sum(durations) < SETUP_BUDGET_S and len(durations) < SETUP_MAX
    ):
        if ctx is not None:
            close(ctx)
            ctx = None
        t0 = time.perf_counter()
        ctx = build()
        durations.append(time.perf_counter() - t0)
    return ctx, durations


def timed_setups(build: Callable[[], Any],
                 close: Callable[[Any], None]) -> Tuple[Any, List[float]]:
    """The first round of set-up timing; returns the set-up to run on.

    The first build is not timed: it alone pays the process's one-off
    module imports, which made it the slowest and the least steady.
    """
    return _repeat_setups(build, close, build())


def retimed_setups(build: Callable[[], Any],
                   close: Callable[[Any], None]) -> List[float]:
    """The second round of set-up timing, after the measured window.

    The host's speed drifts over tens of seconds; timing set-up at both
    ends of a run keeps one slow stretch from setting ``setup_s``.
    Close the run's own set-up first.
    """
    ctx, durations = _repeat_setups(build, close)
    close(ctx)
    return durations


def self_rss_peak_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_private_rss_peak_mb(pid: int) -> float:
    """Peak resident memory of a live child process less its shared
    memory, in MiB: ``VmHWM`` − ``RssShmem``.

    Fleet workers map the router's shared graph segment; the router's
    own peak already counts those pages, so each worker adds only what
    it holds privately.
    """
    fields = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            name, _, value = line.partition(":")
            if name in ("VmHWM", "RssShmem"):
                fields[name] = int(value.split()[0])
    return (fields.get("VmHWM", 0) - fields.get("RssShmem", 0)) / 1024.0


def end_to_end(
    *,
    setup_s: Sequence[float],
    latencies: Sequence[float],
    service_s: Sequence[float],
    completed: int,
    elapsed_s: float,
    slo_s: float,
    slo_hits: int,
    slo_total: int,
    ok: int,
    attempted: int,
    spread_ratios: Sequence[float],
    rss_mb: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metric set, plus the latency tail for the log."""
    tail_value, tail_pct, samples = stats.tail(latencies)
    metrics = {
        "setup_s": stats.median(setup_s),
        "latency_p50_s": stats.median(latencies),
        "service_mean_s": (sum(service_s) / len(service_s)
                           if service_s else 0.0),
        "throughput_qps": completed / elapsed_s if elapsed_s > 0 else 0.0,
        "within_slo_frac": slo_hits / slo_total if slo_total else 0.0,
        "ok_frac": ok / attempted if attempted else 0.0,
        "spread_ratio": (sum(spread_ratios) / len(spread_ratios)
                         if spread_ratios else 0.0),
        "rss_peak_mb": rss_mb,
    }
    info = {"latency_tail_s": tail_value, "tail_percentile": tail_pct,
            "samples": samples, "slo_s": slo_s}
    return metrics, info


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
