"""Chaos-harness suite: seeded, replayable serve-layer fault injection.

The :class:`ServeFaultPlan` contract under test:

* **Determinism** — every injection decision is a pure function of
  ``(seed, site, per-site ordinal)``: two plans with the same seed and
  rates take identical decision sequences; a different seed takes a
  different one.
* **Site independence** — enabling one site (or its rate) never shifts
  another site's decision sequence, and per-kind build sites are
  independent of each other.
* **Server integration** — injected admission failures reject cleanly
  before accounting; injected dequeue failures surface on the query's
  future without leaking in-system slots; injected build failures
  drive the circuit breaker.
"""

from __future__ import annotations

import pytest

from repro.core.joint import JointConfig
from repro.exceptions import ConfigurationError
from repro.serve import CampaignServer, InjectedChaosError, ServeFaultPlan
from repro.sketch.theta import SketchConfig
from tests.conftest import FIG9_TARGETS

WAIT = 120.0

FAST_SKETCH = SketchConfig(theta_max=2_000, pilot_samples=50)


def _server(graph, **kwargs):
    kwargs.setdefault("config", JointConfig(sketch=FAST_SKETCH))
    kwargs.setdefault("pool_size", 4)
    return CampaignServer(graph, **kwargs)


def _admission_decisions(plan: ServeFaultPlan, n: int = 200) -> list[int]:
    """Ordinals at which the admission site fires over ``n`` events."""
    fired = []
    for i in range(n):
        try:
            plan.at_admission()
        except InjectedChaosError as exc:
            assert exc.site == "admission"
            assert exc.ordinal == i
            fired.append(i)
    return fired


def _build_decisions(plan: ServeFaultPlan, kind: str,
                     n: int = 200) -> list[int]:
    fired = []
    for _ in range(n):
        try:
            plan.before_build(kind)
        except InjectedChaosError as exc:
            assert exc.site == "build"
            fired.append(exc.ordinal)
    return fired


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = ServeFaultPlan(seed=42, admission_error_rate=0.3)
        b = ServeFaultPlan(seed=42, admission_error_rate=0.3)
        fired_a = _admission_decisions(a)
        fired_b = _admission_decisions(b)
        assert fired_a == fired_b
        assert fired_a  # at rate 0.3 over 200 events, some must fire
        assert a.counters() == b.counters() == {"admission": 200}

    def test_different_seed_different_decisions(self):
        a = ServeFaultPlan(seed=0, admission_error_rate=0.3)
        b = ServeFaultPlan(seed=1, admission_error_rate=0.3)
        assert _admission_decisions(a) != _admission_decisions(b)

    def test_rate_zero_never_fires_but_counts(self):
        plan = ServeFaultPlan(seed=0)
        assert _admission_decisions(plan) == []
        plan.at_dequeue()
        plan.before_build("trs_sketch")
        assert plan.counters() == {
            "admission": 200,
            "dequeue": 1,
            "build_slow:trs_sketch": 1,
            "build:trs_sketch": 1,
        }

    def test_rate_one_always_fires(self):
        plan = ServeFaultPlan(seed=0, dequeue_error_rate=1.0)
        for i in range(5):
            with pytest.raises(InjectedChaosError) as err:
                plan.at_dequeue()
            assert err.value.ordinal == i


class TestSiteIndependence:
    def test_sites_have_independent_counters(self):
        """Admission events never shift dequeue decisions."""
        a = ServeFaultPlan(seed=7, dequeue_error_rate=0.4)
        b = ServeFaultPlan(seed=7, dequeue_error_rate=0.4)
        for _ in range(50):  # only plan a sees admission traffic
            a.at_admission()
        fired_a, fired_b = [], []
        for plan, fired in ((a, fired_a), (b, fired_b)):
            for _ in range(100):
                try:
                    plan.at_dequeue()
                except InjectedChaosError as exc:
                    fired.append(exc.ordinal)
        assert fired_a == fired_b

    def test_slow_site_does_not_shift_error_site(self):
        """Enabling build slow-down keeps build-error ordinals fixed."""
        base = ServeFaultPlan(seed=3, build_error_rate=0.4)
        slowed = ServeFaultPlan(
            seed=3, build_error_rate=0.4,
            build_slow_rate=1.0, build_slow_seconds=0.0,
        )
        assert (_build_decisions(base, "trs_sketch")
                == _build_decisions(slowed, "trs_sketch"))

    def test_build_sites_keyed_by_kind(self):
        """Different asset kinds draw from independent sequences."""
        plan = ServeFaultPlan(seed=5, build_error_rate=0.4)
        fired_a = _build_decisions(plan, "trs_sketch", n=100)
        fired_b = _build_decisions(plan, "result", n=100)
        # Interleaving order cannot matter: a fresh plan seeing only
        # "result" events reproduces the same "result" sequence.
        fresh = ServeFaultPlan(seed=5, build_error_rate=0.4)
        assert _build_decisions(fresh, "result", n=100) == fired_b
        assert fired_a != fired_b  # and the kinds genuinely differ


class TestValidationAndErrors:
    @pytest.mark.parametrize("kwargs", [
        {"admission_error_rate": -0.1},
        {"dequeue_error_rate": 1.5},
        {"build_slow_rate": 2.0},
        {"build_error_rate": -1.0},
        {"build_slow_seconds": -0.5},
    ])
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeFaultPlan(seed=0, **kwargs)

    def test_injected_error_is_catchable_library_error(self):
        from repro.exceptions import ReproError

        err = InjectedChaosError("dequeue", 3, detail="spice")
        assert isinstance(err, ReproError)
        assert err.site == "dequeue"
        assert err.ordinal == 3
        assert "spice" in str(err)

    def test_deadline_skew(self):
        plan = ServeFaultPlan(seed=0, deadline_skew_s=0.25)
        assert plan.skew_deadline(1.0) == pytest.approx(0.75)
        assert plan.skew_deadline(None) is None
        assert ServeFaultPlan(seed=0).skew_deadline(1.0) == 1.0


class TestServerIntegration:
    def test_admission_chaos_rejects_before_accounting(self, fig9_graph):
        chaos = ServeFaultPlan(seed=0, admission_error_rate=1.0)
        with _server(fig9_graph, chaos=chaos) as server:
            with pytest.raises(InjectedChaosError):
                server.submit_find_seeds(
                    FIG9_TARGETS, ("c5",), 1, engine="trs",
                )
            health = server.health()
            metrics = server.metrics()["counters"]
            events = server.events.snapshot()
        # The query never entered the system.
        assert health["in_flight"] == 0
        assert health["queued"] == 0
        assert metrics["serve.chaos.admission"] == 1
        injected = [e for e in events if e["kind"] == "chaos.injected"]
        assert injected and injected[0]["attrs"]["site"] == "admission"

    def test_dequeue_chaos_fails_future_without_leaking(self, fig9_graph):
        chaos = ServeFaultPlan(seed=0, dequeue_error_rate=1.0)
        with _server(fig9_graph, chaos=chaos) as server:
            futures = [
                server.submit_find_seeds(
                    FIG9_TARGETS, ("c5",), 1, engine="trs",
                )
                for _ in range(4)
            ]
            for future in futures:
                with pytest.raises(InjectedChaosError):
                    future.result(timeout=WAIT)
            health = server.health()
            metrics = server.metrics()["counters"]
        # Every slot was reclaimed: nothing in flight, nothing queued.
        assert health["in_flight"] == 0
        assert health["queued"] == 0
        assert health["utilization"] == 0.0
        assert metrics["serve.chaos.dequeue"] == 4
        assert metrics["serve.errors"] == 4

    def test_build_chaos_is_deterministic_across_servers(self, fig9_graph):
        """The same seed yields the same per-query outcome sequence."""
        tag_sets = [("c1",), ("c2",), ("c3",), ("c4",), ("c5",), ("c6",)]

        def outcomes(seed):
            chaos = ServeFaultPlan(seed=seed, build_error_rate=0.5)
            record = []
            with _server(fig9_graph, chaos=chaos) as server:
                for tags in tag_sets:
                    try:
                        server.submit_find_seeds(
                            FIG9_TARGETS, tags, 1, engine="trs",
                        ).result(timeout=WAIT)
                        record.append("ok")
                    except InjectedChaosError:
                        record.append("chaos")
                    except Exception as exc:  # breaker may open mid-run
                        record.append(type(exc).__name__)
            return record

        first = outcomes(11)
        assert outcomes(11) == first
        assert set(first) & {"ok", "chaos", "CircuitOpenError"}
