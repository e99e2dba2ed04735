"""Pure measurement helpers for the campaign-query benchmark.

Nothing here imports the library under test, so these rules are unit
tested on hand-built inputs (``test_querybench.py``):

* percentiles and the ten-beyond tail rule;
* open-loop latency measured from each request's due time;
* per-query outcome accounting (``attempted == ok + failed``);
* span self time (span duration minus the union of its children's
  intervals) over nested span dicts and over stitched Chrome events.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail needs this many samples strictly beyond it.
TAIL_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the reportable latency tail.

    The tail is the highest percentile of :data:`TAIL_LADDER` with at
    least :data:`TAIL_BEYOND` samples beyond its nearest-rank value. A
    fixed ladder keeps the reported percentile the same from run to run
    while the sample count wobbles. With fewer than 100 samples no rung
    qualifies and the median (percentile 50) is reported: such a run has
    no measurable tail.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        # 1-based nearest rank ceil(pct/100 * n), in exact integers.
        rank = -(-round(pct * 10) * n // 1000)
        if n - rank >= TAIL_BEYOND:
            return float(ordered[rank - 1]), pct, n
    return median(ordered), 50.0, n


@dataclass
class Outcomes:
    """Per-query accounting: each attempted query is ok or failed, once.

    A query fails when the program raised or rejected it, or when any
    output check on its answer failed; a failed check on an answer that
    already counted as failed does not count twice.
    """

    ok: int = 0
    errors: int = 0
    rejected: int = 0
    bad_answers: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.bad_answers

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def record(self, *, error: Optional[str] = None, rejected: bool = False,
               problems: Sequence[str] = ()) -> bool:
        """Account one query; returns whether it counted as ok."""
        if rejected:
            self.rejected += 1
            self.notes.append(f"rejected: {error}")
            return False
        if error is not None:
            self.errors += 1
            self.notes.append(f"error: {error}")
            return False
        if problems:
            self.bad_answers += 1
            self.notes.append("bad answer: " + "; ".join(problems))
            return False
        self.ok += 1
        return True

    def fail_answer(self, problem: str) -> None:
        """Move one already-ok query to failed (a late output check)."""
        self.ok -= 1
        self.bad_answers += 1
        self.notes.append("bad answer: " + problem)


def open_loop_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], float]:
    """Latencies timed from due time, and the generator's worst lateness.

    ``due[i]`` is when request ``i`` was scheduled, ``sent[i]`` when a
    client thread actually issued it and ``done[i]`` when its reply
    arrived. Timing from ``due`` charges a stalled client's backlog to
    every request queued behind it; ``max(sent - due)`` reports how late
    the generator ran.
    """
    latencies = [d - s for d, s in zip(done, due)]
    late = max((s - d for s, d in zip(sent, due)), default=0.0)
    return latencies, max(late, 0.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    roots: Sequence[Dict[str, Any]],
    layer_of: Dict[str, str],
    inherit_under: Iterable[str] = (),
    default: str = "unattributed",
) -> Dict[str, float]:
    """Sum self seconds per layer over nested span dicts.

    Span dicts have the shape ``repro.obs`` exports: ``name``,
    ``start_seconds``, ``duration_seconds`` and ``children``. A span's
    self time is its duration minus the part of its interval that its
    children cover. Its layer is ``layer_of[name]``; a span without an
    entry inherits its parent's layer (``default`` at the root), and
    every span below a span named in ``inherit_under`` takes that
    span's layer whatever its own name.
    """
    sticky = frozenset(inherit_under)
    out: Dict[str, float] = {}

    def walk(span: Dict[str, Any], parent_layer: str, pinned: bool) -> None:
        name = span["name"]
        layer = parent_layer if pinned else layer_of.get(name, parent_layer)
        start = span.get("start_seconds") or 0.0
        dur = span.get("duration_seconds") or 0.0
        children = span.get("children") or []
        covered = _covered(
            ((c.get("start_seconds") or 0.0,
              (c.get("start_seconds") or 0.0) + (c.get("duration_seconds") or 0.0))
             for c in children),
            start, start + dur,
        )
        out[layer] = out.get(layer, 0.0) + max(dur - covered, 0.0)
        for child in children:
            walk(child, layer, pinned or name in sticky)

    for root in roots:
        walk(root, default, False)
    return out


def chrome_to_trees(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild nested span dicts from stitched Chrome ``X`` events.

    Parent links come from ``args.span_id`` / ``args.parent_span_id``;
    times are converted from microseconds to seconds. Events whose
    parent is missing become roots.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    order: List[Tuple[Optional[str], Dict[str, Any]]] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        node = {
            "name": ev["name"],
            "start_seconds": float(ev.get("ts", 0.0)) / 1e6,
            "duration_seconds": float(ev.get("dur", 0.0)) / 1e6,
            "children": [],
        }
        sid = args.get("span_id")
        if sid is not None:
            nodes[sid] = node
        order.append((args.get("parent_span_id"), node))
    roots = []
    for parent_id, node in order:
        parent = nodes.get(parent_id) if parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def quantile_p50(hist: Optional[Dict[str, Any]]) -> float:
    """The ``p50`` of an exported ``repro.obs`` histogram (0 if absent)."""
    if not hist:
        return 0.0
    value = hist.get("p50")
    return float(value) if value is not None and math.isfinite(value) else 0.0
