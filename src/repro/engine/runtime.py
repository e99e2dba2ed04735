"""In-order shard loop with run budgets and checkpoint hooks.

A long IMM/I-TRS campaign is many seconds of sampling, and operators
hit Ctrl-C or set wall-clock limits. This module keeps those from
losing the work already done:

* **Shard loop** — :func:`execute_shards` runs an operation's shards in
  shard order, in-process. Each shard is keyed to a ``SeedSequence``
  from the master generator's spawn tree, so a shard's samples never
  depend on when (or in which run) it executes; a resumed run splices
  checkpointed shards in front of freshly sampled ones without
  changing a bit.
* **Deadlines & budgets** — a :class:`RunBudget` (wall-clock
  :class:`Deadline`, max samples, max RR memory) is checked between
  shards and raises :class:`~repro.exceptions.BudgetExceededError`
  carrying the partial result instead of dying.
* **Checkpoint flushes** — the done-prefix is handed to a flush hook
  after every shard, and force-flushed on completion, on
  ``KeyboardInterrupt`` and on a budget stop.
* **Observability** — a :class:`RunTelemetry` counter block records
  shards run and checkpoint activity in result objects and CLI
  summaries.

Process-level parallelism is not this module's concern: the sharded
campaign service (:mod:`repro.serve.shard`) runs one engine per worker
process.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import BudgetExceededError, ConfigurationError


# ---------------------------------------------------------------------------
# Deadlines & budgets
# ---------------------------------------------------------------------------


class Deadline:
    """A wall-clock deadline anchored at construction time.

    ``Deadline(None)`` never expires; ``Deadline(30.0)`` expires 30
    seconds after it is created (monotonic clock).
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds <= 0:
            raise ConfigurationError(
                f"deadline seconds must be positive, got {seconds}"
            )
        self.seconds = seconds
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for a never-expiring deadline."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(seconds={self.seconds})"


class RunBudget:
    """Hard limits on one run: wall clock, sample count, RR memory.

    Threaded through the high-level entry points
    (``trs``/``imm``/``itrs``/``greedy_mc``/``estimate_spread``) and
    checked between shard completions; exceeding any limit raises
    :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
    attribute carries the work completed so far. The wall deadline is
    anchored lazily at the first check, so a budget can be built ahead
    of the run it guards.
    """

    def __init__(
        self,
        wall_seconds: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
    ) -> None:
        if max_samples is not None and max_samples <= 0:
            raise ConfigurationError(
                f"max_samples must be positive, got {max_samples}"
            )
        if max_rr_members is not None and max_rr_members <= 0:
            raise ConfigurationError(
                f"max_rr_members must be positive, got {max_rr_members}"
            )
        if wall_seconds is not None and wall_seconds <= 0:
            raise ConfigurationError(
                f"wall_seconds must be positive, got {wall_seconds}"
            )
        self.wall_seconds = wall_seconds
        self.max_samples = max_samples
        self.max_rr_members = max_rr_members
        self.samples_used = 0
        self.rr_members_used = 0
        self._deadline: Deadline | None = None

    def deadline(self) -> Deadline:
        """The (lazily anchored) wall-clock deadline of this budget."""
        if self._deadline is None:
            self._deadline = Deadline(self.wall_seconds)
        return self._deadline

    def check(self, partial: object = None) -> None:
        """Raise :class:`BudgetExceededError` if any limit is exceeded."""
        if self.deadline().expired():
            raise BudgetExceededError("wall_seconds", partial=partial)
        if (
            self.max_samples is not None
            and self.samples_used > self.max_samples
        ):
            raise BudgetExceededError("max_samples", partial=partial)
        if (
            self.max_rr_members is not None
            and self.rr_members_used > self.max_rr_members
        ):
            raise BudgetExceededError("max_rr_members", partial=partial)

    def charge_samples(self, count: int, partial: object = None) -> None:
        """Account for ``count`` drawn samples, then :meth:`check`."""
        self.samples_used += int(count)
        self.check(partial=partial)

    def charge_rr_members(self, count: int, partial: object = None) -> None:
        """Account for ``count`` stored RR members, then :meth:`check`."""
        self.rr_members_used += int(count)
        self.check(partial=partial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunBudget(wall_seconds={self.wall_seconds}, "
            f"max_samples={self.max_samples}, "
            f"max_rr_members={self.max_rr_members}, "
            f"samples_used={self.samples_used}, "
            f"rr_members_used={self.rr_members_used})"
        )


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class RunTelemetry:
    """Counters for shard and checkpoint activity.

    Attached to a :class:`~repro.engine.parallel.SamplingEngine` and
    accumulated across its runs; result objects snapshot it via
    :meth:`as_dict` and :class:`~repro.core.session.CampaignSession`
    exposes :meth:`summary` in its repr.

    This is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry`: each field reads and
    writes a ``runtime.<field>`` counter. An engine constructed inside
    an :func:`repro.obs.observe` scope binds to that scope's registry,
    so runtime counters appear in the global run report for free; with
    no scope active (the default) each telemetry block owns a private
    registry and behaves like a plain counter block.
    """

    FIELDS = (
        "shards_run",
        "checkpoint_writes",
        "checkpoint_loads",
    )
    _PREFIX = "runtime."

    __slots__ = ("registry",)

    def __init__(self, registry=None, **counts: int) -> None:
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        for key, value in counts.items():
            if key not in self.FIELDS:
                raise TypeError(
                    f"RunTelemetry has no counter {key!r}"
                )
            if value:
                setattr(self, key, value)

    def __getattr__(self, name: str) -> int:
        if name in self.FIELDS:
            return int(self.registry.value(self._PREFIX + name, 0))
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value: int) -> None:
        if name in self.FIELDS:
            self.registry.counter(self._PREFIX + name).value = int(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for result objects / JSON)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def merge(self, other: "RunTelemetry") -> None:
        """Add another telemetry block into this one."""
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)

    def summary(self) -> str:
        """One-line human-readable summary (only non-zero counters)."""
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return ", ".join(parts) if parts else "clean"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunTelemetry({self.summary()})"


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


def execute_shards(
    worker: Callable,
    tasks: list[tuple],
    telemetry: RunTelemetry,
    budget: RunBudget | None = None,
    on_prefix: Callable[[int, list, bool], None] | None = None,
    preloaded_results: list | None = None,
) -> list:
    """Run shard ``tasks`` in order and return their results.

    Parameters
    ----------
    worker:
        Shard function; ``tasks[i]`` is its argument tuple. Each task
        derives all randomness from the ``SeedSequence`` embedded in its
        arguments, so a shard's result does not depend on which run
        computes it.
    telemetry:
        :class:`RunTelemetry` sink; ``shards_run`` counts executed
        (not preloaded) shards.
    budget:
        Optional :class:`RunBudget`, checked before every shard.
    on_prefix:
        ``on_prefix(done, results, force)`` is invoked after every
        completed shard (checkpoint hook) and once with ``force=True``
        when the run completes, is interrupted, or stops on its budget.
    preloaded_results:
        Resume support: these results stand in for the first shards,
        which are never executed.

    Raises :class:`BudgetExceededError` (partial = done-prefix results)
    on budget exhaustion and re-raises ``KeyboardInterrupt`` after
    force-flushing the prefix.
    """
    results = list(preloaded_results or [])[: len(tasks)]

    def flush(force: bool = False) -> None:
        if on_prefix is not None:
            on_prefix(len(results), results, force)

    try:
        for args in tasks[len(results):]:
            if budget is not None:
                budget.check()
            results.append(worker(*args))
            telemetry.shards_run += 1
            flush()
    except KeyboardInterrupt:
        flush(force=True)
        raise
    except BudgetExceededError as exc:
        flush(force=True)
        if exc.partial is None:
            exc.partial = list(results)
        raise
    # A completed operation always gets a durable checkpoint (one write
    # per op), so a later interrupt never forces recomputing it.
    flush(force=True)
    return results
