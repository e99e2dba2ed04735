"""Tests of the benchmark's own measurement rules.

Run from the repository root: ``python3 -m pytest querybench -q``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402


def span(name, start, dur, *children):
    return {"name": name, "start_seconds": start, "duration_seconds": dur,
            "children": list(children)}


class TestSelfTime:
    def test_hand_built_tree(self):
        # joint [0, 10) holds a round [1, 9) that holds paths [2, 6) and
        # an MC measure [6, 8): self times 2, 4, 4 and 2 seconds.
        tree = span("joint", 0.0, 10.0,
                    span("joint.round", 1.0, 8.0,
                         span("tags.collect_paths", 2.0, 4.0),
                         span("diffusion.mc", 6.0, 2.0)))
        layer_of = {"joint": "core", "joint.round": "core",
                    "tags.collect_paths": "paths", "diffusion.mc": "mc"}
        got = stats.self_times([tree], layer_of)
        assert got == pytest.approx({"core": 4.0, "paths": 4.0, "mc": 2.0})
        assert sum(got.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        # Concurrent children (a fleet trace) cover [1, 5) together.
        tree = span("serve.query", 0.0, 6.0,
                    span("a", 1.0, 3.0), span("b", 2.0, 3.0))
        got = stats.self_times([tree], {"serve.query": "q", "a": "x", "b": "x"})
        assert got["q"] == pytest.approx(2.0)
        assert got["x"] == pytest.approx(6.0)

    def test_children_clipped_to_parent(self):
        tree = span("p", 0.0, 2.0, span("c", 1.5, 2.0))
        got = stats.self_times([tree], {"p": "p", "c": "c"})
        assert got["p"] == pytest.approx(1.5)

    def test_unmapped_inherits_and_sticky_subtree(self):
        tree = span("trs.pilot", 0.0, 4.0,
                    span("engine.sample_rr_sets", 1.0, 2.0),
                    span("helper", 3.0, 1.0))
        layer_of = {"trs.pilot": "pilot", "engine.sample_rr_sets": "sample"}
        # "helper" has no layer of its own, so it inherits the pilot's.
        assert stats.self_times([tree], layer_of) == pytest.approx(
            {"pilot": 2.0, "sample": 2.0})
        pinned = stats.self_times([tree], layer_of, inherit_under=["trs.pilot"])
        assert pinned == pytest.approx({"pilot": 4.0})

    def test_chrome_events_round_trip(self):
        events = [
            {"ph": "M", "name": "process_name", "args": {}},
            {"ph": "X", "name": "serve.query", "ts": 0.0, "dur": 5e6,
             "args": {"span_id": "r"}},
            {"ph": "X", "name": "trs.sample", "ts": 1e6, "dur": 3e6,
             "args": {"span_id": "w", "parent_span_id": "r"}},
            {"ph": "X", "name": "orphan", "ts": 0.0, "dur": 1e6,
             "args": {"span_id": "o", "parent_span_id": "gone"}},
        ]
        roots = stats.chrome_to_trees(events)
        assert [r["name"] for r in roots] == ["serve.query", "orphan"]
        got = stats.self_times(roots, {"serve.query": "serve",
                                       "trs.sample": "sample",
                                       "orphan": "other"})
        assert got == pytest.approx({"serve": 2.0, "sample": 3.0, "other": 1.0})


class TestTail:
    def test_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(values)
        assert (value, pct, n) == (90, 90.0, 100)
        assert sum(1 for v in values if v > value) == 10

    def test_highest_rung_with_ten_beyond(self):
        # 999 samples: p99 has only 9 beyond, so p90 is the tail.
        assert stats.tail([float(i) for i in range(999)])[1] == 90.0
        value, pct, n = stats.tail([float(i) for i in range(1, 1001)])
        assert (value, pct, n) == (990.0, 99.0, 1000)
        assert stats.tail([float(i) for i in range(10_000)])[1] == 99.9

    def test_percentile_steady_while_count_wobbles(self):
        pcts = {stats.tail([float(i) for i in range(n)])[1]
                for n in range(150, 990)}
        assert pcts == {90.0}

    def test_small_runs_report_the_median(self):
        for n in (1, 5, 99):
            values = [float(i) for i in range(n)]
            value, pct, count = stats.tail(values)
            assert pct == 50.0 and count == n
            assert value == stats.median(values)

    def test_empty(self):
        assert stats.tail([]) == (0.0, 0.0, 0)


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        lat, late = stats.open_loop_latencies(
            due=[0.0, 1.0], sent=[0.5, 1.0], done=[0.7, 1.2])
        assert lat == pytest.approx([0.7, 0.2])
        assert late == pytest.approx(0.5)

    def test_stall_inflates_later_requests(self):
        """One client, requests due every 10 ms, the first stalls 100 ms:
        the requests queued behind it inherit the stall."""
        due = [i * 0.01 for i in range(5)]
        service = [0.1, 0.001, 0.001, 0.001, 0.001]
        sent, done = [], []
        clock = 0.0
        for d, s in zip(due, service):
            clock = max(clock, d)
            sent.append(clock)
            clock += s
            done.append(clock)
        lat, late = stats.open_loop_latencies(due, sent, done)
        service_only = [b - a for a, b in zip(sent, done)]
        assert all(x > 0.05 for x in lat[1:])
        assert all(x < 0.002 for x in service_only[1:])
        assert late == pytest.approx(0.1 - 0.01)

    def test_serve_client_times_from_due(self):
        """The real load generator against a fake service whose first call stalls."""
        import serve_mixed

        class Stalling:
            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def route_request(self, request):
                with self.lock:
                    self.calls += 1
                    first = self.calls == 1
                time.sleep(0.3 if first else 0.0)
                return {"ok": True}

        slots = [serve_mixed.Slot(i * 0.02, {"op": "spread"}) for i in range(6)]
        start = serve_mixed.drive(Stalling(), slots, clients=1)
        lat, late = stats.open_loop_latencies(
            [start + s.due for s in slots], [s.sent for s in slots],
            [s.done for s in slots])
        assert late >= 0.2
        assert all(x >= 0.15 for x in lat[1:4])


class TestOutcomes:
    def test_every_query_counted_once(self):
        out = stats.Outcomes()
        assert out.record()
        assert not out.record(error="boom")
        assert not out.record(rejected=True, error="shed")
        assert not out.record(problems=["2 seeds", "unknown tag"])
        assert out.record()
        out.fail_answer("traced answer differs")
        assert (out.ok, out.failed, out.attempted) == (1, 4, 5)
        assert out.attempted == out.ok + out.failed
        assert (out.errors, out.rejected, out.bad_answers) == (1, 1, 2)

    def test_rejection_wins_over_error_text(self):
        out = stats.Outcomes()
        out.record(rejected=True, error="queue full")
        assert out.rejected == 1 and out.errors == 0


class TestSetupTiming:
    def test_first_build_untimed_and_earlier_builds_closed(self):
        import common

        built, closed = [], []

        def build():
            built.append(len(built))
            return built[-1]

        ctx, durations = common.timed_setups(build, closed.append)
        assert len(durations) >= common.SETUP_REPEATS
        assert len(built) == len(durations) + 1
        assert closed == built[:-1] and ctx == built[-1]

    def test_second_round_closes_every_build(self):
        import common

        built, closed = [], []

        def build():
            built.append(len(built))
            return built[-1]

        durations = common.retimed_setups(build, closed.append)
        assert len(durations) == len(built) >= common.SETUP_REPEATS
        assert closed == built


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="adopting orphans needs PR_SET_CHILD_SUBREAPER")
class TestSupervisor:
    """run.py returns only after every process the run started has ended."""

    def supervise(self, script: str, grace: float = 10.0):
        code = (f"import sys, run\nrun.DRAIN_GRACE_S = {grace}\n"
                f"sys.exit(run.supervise([sys.executable, '-c', {script!r}]))")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              capture_output=True, text=True, timeout=60)
        return proc, time.perf_counter() - t0

    @staticmethod
    def gone(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False

    def test_waits_for_orphans_and_keeps_exit_code(self):
        proc, elapsed = self.supervise(
            "import subprocess, sys\n"
            "print(subprocess.Popen(['sleep', '0.5']).pid)\n"
            "sys.exit(3)")
        assert proc.returncode == 3
        assert elapsed >= 0.4
        assert self.gone(int(proc.stdout.split()[0]))

    def test_kills_what_outlives_the_grace(self):
        proc, elapsed = self.supervise(
            "import subprocess\n"
            "print(subprocess.Popen(['sleep', '30'],"
            " start_new_session=True).pid)", grace=0.2)
        assert proc.returncode == 0
        assert elapsed < 10
        assert self.gone(int(proc.stdout.split()[0]))
