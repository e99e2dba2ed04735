"""Exception hierarchy for the ``repro`` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphConstructionError(ReproError):
    """Raised when a :class:`~repro.graphs.TagGraph` cannot be built.

    Typical causes: dangling node ids, probabilities outside ``(0, 1]``,
    duplicate ``(edge, tag)`` assignments, or mismatched array lengths.
    """


class InvalidQueryError(ReproError):
    """Raised when a query (seed/tag/joint) is malformed.

    Examples: empty target set, budget larger than the universe it draws
    from, unknown tag names, seeds outside the node range.
    """


class ConfigurationError(ReproError):
    """Raised when an algorithm configuration value is out of range."""


class EstimationError(ReproError):
    """Raised when a spread/θ estimation cannot be carried out.

    For example, exact possible-world enumeration refuses graphs with too
    many active edges, and the OPT estimator requires a non-empty target
    set reachable by at least one edge.
    """


class IndexError_(ReproError):
    """Raised on misuse of possible-world index structures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class BudgetExceededError(ReproError):
    """Raised when a run exceeds its :class:`~repro.engine.RunBudget`.

    Unlike a crash, the run's work so far is not lost: the ``partial``
    attribute carries whatever partial result the raising layer could
    assemble (a prefix :class:`~repro.engine.RRCollection`, a partial
    ``TRSResult``, …) and ``reason`` names the limit that tripped
    (``"wall_seconds"``, ``"max_samples"`` or ``"max_rr_members"``).
    """

    def __init__(self, reason: str, partial: object = None) -> None:
        super().__init__(f"run budget exceeded: {reason}")
        self.reason = reason
        self.partial = partial


class QueryRejectedError(ReproError):
    """Base class for *clean* admission-control rejections.

    Every rejection the serving layer issues — overload, unmeetable
    deadline, load shed, open circuit breaker — derives from this class
    and carries a machine-readable triple the protocol layer serializes
    verbatim:

    ``code``
        Short stable identifier (``"overloaded"``, ``"deadline"``,
        ``"shed"``, ``"breaker_open"``).
    ``retry_after_ms``
        The server's estimate of when a retry could be admitted
        (``None`` when it has no basis for one).
    ``qos_class``
        The QoS class of the rejected query.

    Rejections are side-effect free: nothing was partially executed and
    no shared state was touched, so retrying after ``retry_after_ms``
    is always safe.
    """

    code = "rejected"

    def __init__(
        self,
        message: str,
        retry_after_ms: float | None = None,
        qos_class: str = "interactive",
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = (
            None if retry_after_ms is None else float(retry_after_ms)
        )
        self.qos_class = qos_class


class ServerOverloadedError(QueryRejectedError):
    """Raised when a :class:`~repro.serve.CampaignServer` rejects a query.

    The server's admission control is a bounded queue: when every worker
    is busy and the queue is at capacity, new queries are rejected
    *cleanly* — nothing is partially executed, no shared state is
    touched — so callers can retry with backoff. Carries the queue
    ``capacity`` that was exceeded.
    """

    code = "overloaded"

    def __init__(
        self,
        capacity: int,
        retry_after_ms: float | None = None,
        qos_class: str = "interactive",
    ) -> None:
        super().__init__(
            f"server overloaded: bounded queue at capacity {capacity}",
            retry_after_ms=retry_after_ms,
            qos_class=qos_class,
        )
        self.capacity = capacity


class DeadlineRejectedError(QueryRejectedError):
    """Raised when admission predicts a query cannot meet its deadline.

    The server predicts queue wait plus execution time from its rolling
    per-op p95 latencies; when the predicted completion blows the
    query's deadline the query is rejected *up front* (cheaper for
    everyone than admitting work that is already doomed). Also raised
    at dequeue time when a queued query's deadline expired while it
    waited.
    """

    code = "deadline"

    def __init__(
        self,
        deadline_s: float,
        predicted_ms: float,
        retry_after_ms: float | None = None,
        qos_class: str = "interactive",
        phase: str = "admission",
    ) -> None:
        super().__init__(
            f"deadline {deadline_s * 1000.0:.0f}ms unmeetable at {phase}: "
            f"predicted completion {predicted_ms:.0f}ms",
            retry_after_ms=retry_after_ms,
            qos_class=qos_class,
        )
        self.deadline_s = deadline_s
        self.predicted_ms = predicted_ms
        self.phase = phase


class QueryShedError(QueryRejectedError):
    """Raised when load shedding drops a query under pressure.

    Only issued after the graded degradation ladder is exhausted: the
    query's class was downgrade-eligible, no reduced-θ tier applied and
    no (slightly stale) cached asset could answer it.
    """

    code = "shed"

    def __init__(
        self,
        utilization: float,
        retry_after_ms: float | None = None,
        qos_class: str = "best_effort",
    ) -> None:
        super().__init__(
            f"query shed: server at {utilization:.0%} utilization and no "
            "degraded answer available",
            retry_after_ms=retry_after_ms,
            qos_class=qos_class,
        )
        self.utilization = utilization


class CircuitOpenError(QueryRejectedError):
    """Raised when an asset kind's circuit breaker refuses a build.

    After ``failure_threshold`` consecutive build failures the breaker
    opens and fails fast for ``reset_timeout`` seconds (then half-opens
    to probe). Resident cached assets are still served while a breaker
    is open — only fresh builds are refused.
    """

    code = "breaker_open"

    def __init__(
        self,
        kind: str,
        retry_after_ms: float | None = None,
        qos_class: str = "interactive",
    ) -> None:
        super().__init__(
            f"circuit breaker open for asset kind {kind!r}",
            retry_after_ms=retry_after_ms,
            qos_class=qos_class,
        )
        self.kind = kind


class ServerClosedError(ReproError):
    """Raised when a query is submitted to a closed campaign server."""


class WorkerDiedError(ReproError):
    """Raised when a shard worker process died and could not be replaced.

    The shard router retries queries interrupted by a worker death on
    the respawned worker transparently; this error surfaces only when
    the respawn budget is exhausted (or the service is shutting down),
    so seeing it means the fleet is genuinely degraded, not that one
    process blinked.
    """


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be written or restored.

    Signature mismatches on load are *not* errors (the stale checkpoint
    is ignored and recomputed); this covers corrupt files and unusable
    checkpoint directories.
    """
