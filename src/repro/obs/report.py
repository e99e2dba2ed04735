"""Structured run reports.

A report is the JSON document emitted by ``--metrics-out``, attached
to result objects as ``.report``, and pretty-printed by
``repro report``.  Schema (``repro.obs.report/1``)::

    {
      "schema": "repro.obs.report/1",
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "trace": [ {name, duration_seconds, attrs?, children?}, ... ],
      "phases": [ {name, seconds, percent}, ... ],
      "trace_id": "q-000042",         # optional correlation id
      "parent_span_id": "3f2-a1"      # optional distributed parent link
    }

Both trailing fields are optional and additive — the schema string is
unchanged. ``parent_span_id`` appears only on reports produced while
serving a *distributed* query (a shard worker executing under a router
``TraceContext``): it names the router-side span the report's trace
roots graft under in the stitched fleet trace.

``phases`` is derived from the trace: every span name in the tree, in
first-seen (depth-first) order, with its summed *self* time — a span's
duration minus the part of its interval its children cover — and that
time's share of the roots' total. Self times of sequential spans
partition the traced time (rows add up to 100%; overlapping sibling
spans can push the sum above it), so a joint query's table shows the
path search, traversal and MC layers instead of one ``joint`` row —
the "where did the run go" summary the paper's runtime figures are
built from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["SCHEMA", "build_report", "render_report"]

SCHEMA = "repro.obs.report/1"


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals in ``[lo, hi]``."""
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


def _interval(span: Dict[str, Any]) -> Tuple[float, float]:
    start = span.get("start_seconds") or 0.0
    return start, start + (span.get("duration_seconds") or 0.0)


def _phase_table(trace_dicts: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Self seconds per span name over the whole tree, first-seen order."""
    selfs: Dict[str, float] = {}

    def walk(span: Dict[str, Any]) -> None:
        lo, hi = _interval(span)
        children = span.get("children") or []
        covered = _covered(map(_interval, children), lo, hi)
        name = span["name"]
        selfs[name] = selfs.get(name, 0.0) + max(hi - lo - covered, 0.0)
        for child in children:
            walk(child)

    for root in trace_dicts:
        walk(root)
    total = sum(d.get("duration_seconds") or 0.0 for d in trace_dicts)
    return [
        {
            "name": name,
            "seconds": seconds,
            "percent": (100.0 * seconds / total) if total > 0 else 0.0,
        }
        for name, seconds in selfs.items()
    ]


def build_report(observation) -> Dict[str, Any]:
    """Snapshot an :class:`~repro.obs.Observation` into report form."""
    trace = observation.tracer.as_dicts()
    report = {
        "schema": SCHEMA,
        "metrics": observation.metrics.as_dict(),
        "trace": trace,
        "phases": _phase_table(trace),
    }
    # Optional correlation id (set by the serving layer): lets a saved
    # report be matched to the same query's live event-log entries.
    if observation.tracer.trace_id is not None:
        report["trace_id"] = observation.tracer.trace_id
    # Distributed queries additionally record the router span their
    # trace grafts under (see repro.obs.distributed).
    parent_span_id = getattr(observation.tracer, "parent_span_id", None)
    if parent_span_id is not None:
        report["parent_span_id"] = parent_span_id
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable text rendering (used by ``repro report``)."""
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"unrecognised report schema: {report.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    lines: List[str] = []

    phases = report.get("phases") or []
    if phases:
        lines.append("Phases")
        width = max(len(p["name"]) for p in phases)
        for p in phases:
            lines.append(
                f"  {p['name']:<{width}}  {p['seconds']:>9.4f}s"
                f"  {p['percent']:>5.1f}%"
            )
        lines.append("")

    metrics = report.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("Counters")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")
        lines.append("")

    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("Gauges")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")
        lines.append("")

    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("Histograms")
        width = max(len(n) for n in histograms)
        for name, h in histograms.items():
            extra = ""
            if h.get("count"):
                extra = f" min={h['min']:g} max={h['max']:g}"
                if "p50" in h:
                    extra += (
                        f" p50={h['p50']:g} p95={h['p95']:g}"
                        f" p99={h['p99']:g}"
                    )
            lines.append(
                f"  {name:<{width}}  count={h['count']}"
                f" mean={h['mean']:.2f}" + extra
            )
        lines.append("")

    def depth(entries: List[Dict[str, Any]]) -> int:
        if not entries:
            return 0
        return 1 + max(depth(e.get("children") or []) for e in entries)

    trace = report.get("trace") or []
    if trace:
        lines.append(
            f"Trace: {len(trace)} root span(s), max depth {depth(trace)}"
        )

    return "\n".join(lines).rstrip() + "\n"
