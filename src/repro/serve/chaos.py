"""Deterministic serve-layer fault injection (``repro.serve.chaos``).

This module is the repository's one fault-injection harness: a seeded
:class:`ServeFaultPlan` that injects failures at the server's seams —
admission, dequeue, and asset builds — so every shedding, breaker,
cancellation, and retry path can be driven deterministically and
replayed bit-identically from the same seed. Process death is
exercised for real instead: the fleet chaos tests SIGKILL shard
workers, and the CLI's kill-and-resume smoke SIGTERMs a checkpointed
run.

Decision model
--------------
Each injection site keeps its own monotonically increasing counter
(``admission`` #0, #1, … independent of ``dequeue`` #0, #1, …). For the
``n``-th event at a site the plan derives an independent PRNG from
``(seed, site, n)`` and draws once against the configured probability.
Because the decision depends only on the seed and the per-site ordinal
— never on wall clock, thread ids, or interleaving — a replay with the
same seed and the same per-site event ordering takes identical
decisions. Sites that are serialized under the server's admission lock
(admission, dequeue) therefore replay exactly; the build site is keyed
by asset kind so concurrent builds of different kinds cannot perturb
each other's sequences.

All injected exceptions are :class:`InjectedChaosError`, a
:class:`~repro.exceptions.ReproError` subclass, so injected chaos is
catchable by the protocol loop like any other library error.
"""

from __future__ import annotations

import hashlib
import random
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import ConfigurationError, ReproError

__all__ = ["InjectedChaosError", "ServeFaultPlan"]


class InjectedChaosError(ReproError):
    """Raised by :class:`ServeFaultPlan` at an injection site.

    Carries the ``site`` (``"admission"`` / ``"dequeue"`` /
    ``"build"``) and the per-site event ordinal ``ordinal`` so tests
    can assert exactly which injection fired.
    """

    def __init__(self, site: str, ordinal: int, detail: str = "") -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"injected chaos at {site} (event #{ordinal}){suffix}"
        )
        self.site = site
        self.ordinal = ordinal


def _derive_rng(seed: int, site: str, ordinal: int) -> random.Random:
    """Independent PRNG for one (seed, site, ordinal) decision."""
    digest = hashlib.blake2b(
        site.encode("utf-8") + struct.pack("<qq", seed, ordinal),
        digest_size=8,
    ).digest()
    return random.Random(int.from_bytes(digest, "little"))


@dataclass
class ServeFaultPlan:
    """Seeded, replayable fault plan for the serving layer.

    Parameters
    ----------
    seed:
        Root seed; identical seeds yield identical per-site decision
        sequences.
    admission_error_rate / dequeue_error_rate:
        Probability of raising :class:`InjectedChaosError` at the
        admission boundary (before any accounting) / at the dequeue
        boundary (after a queued query is picked, exercising the
        server's must-not-leak-accounting error path).
    build_slow_rate / build_slow_seconds:
        Probability of sleeping ``build_slow_seconds`` inside an asset
        build (models a pathologically slow sketch build; drives
        queue-wait prediction, deadline cancellation, and SLO pressure).
    build_error_rate:
        Probability of failing an asset build with
        :class:`InjectedChaosError` (drives the per-kind circuit
        breaker; the error is *not* a rejection, so it counts as a
        build failure).
    deadline_skew_s:
        Constant subtracted from every query's remaining deadline at
        admission (positive = clock running fast: deadlines look
        tighter than the client intended). Exercises predictive
        rejection and queue-expiry paths without real waiting.
    """

    seed: int = 0
    admission_error_rate: float = 0.0
    dequeue_error_rate: float = 0.0
    build_slow_rate: float = 0.0
    build_slow_seconds: float = 0.05
    build_error_rate: float = 0.0
    deadline_skew_s: float = 0.0
    _counters: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in (
            "admission_error_rate",
            "dequeue_error_rate",
            "build_slow_rate",
            "build_error_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.build_slow_seconds < 0:
            raise ConfigurationError(
                "build_slow_seconds must be >= 0, got "
                f"{self.build_slow_seconds}"
            )

    def _next_ordinal(self, site: str) -> int:
        with self._lock:
            ordinal = self._counters.get(site, 0)
            self._counters[site] = ordinal + 1
        return ordinal

    def _decide(self, site: str, rate: float) -> Optional[int]:
        """Ordinal if the ``site``'s next event fires, else ``None``.

        The counter advances on every call (fired or not) so decision
        sequences are stable regardless of which ones fire.
        """
        ordinal = self._next_ordinal(site)
        if rate <= 0.0:
            return None
        if _derive_rng(self.seed, site, ordinal).random() < rate:
            return ordinal
        return None

    # -- injection sites -------------------------------------------------

    def at_admission(self) -> None:
        """Maybe raise before a query is admitted (no accounting yet)."""
        ordinal = self._decide("admission", self.admission_error_rate)
        if ordinal is not None:
            raise InjectedChaosError("admission", ordinal)

    def at_dequeue(self) -> None:
        """Maybe raise after a queued query is dequeued for dispatch."""
        ordinal = self._decide("dequeue", self.dequeue_error_rate)
        if ordinal is not None:
            raise InjectedChaosError("dequeue", ordinal)

    def before_build(self, kind: str) -> None:
        """Maybe slow down and/or fail an asset build of ``kind``.

        Slow-down and failure draw from distinct per-kind sites
        (``build_slow:<kind>``, ``build:<kind>``) so enabling one does
        not shift the other's decision sequence.
        """
        slow = self._decide(f"build_slow:{kind}", self.build_slow_rate)
        if slow is not None:
            time.sleep(self.build_slow_seconds)
        ordinal = self._decide(f"build:{kind}", self.build_error_rate)
        if ordinal is not None:
            raise InjectedChaosError("build", ordinal, detail=kind)

    def skew_deadline(self, deadline_s: Optional[float]) -> Optional[float]:
        """Apply the configured clock skew to a remaining deadline."""
        if deadline_s is None or self.deadline_skew_s == 0.0:
            return deadline_s
        return deadline_s - self.deadline_skew_s

    def counters(self) -> Dict[str, int]:
        """Per-site event counts so far (diagnostics / determinism tests)."""
        with self._lock:
            return dict(self._counters)
