"""The query governor: per-query limits, cancellation, admission control.

The serving-layer story ("heavy traffic from millions of users") needs
more than fast queries — it needs **no query to be able to take the
endpoint down**.  This module is that resource-governance layer:

* :class:`QueryLimits` — per-query wall-clock deadline, result-row
  budget and binding-memory budget, an optional caller-held
  :class:`CancellationToken`, and the ``allow_partial`` opt-in for
  graceful degradation (deadline hit on a streamable query → partial
  results flagged ``truncated=True`` instead of an error);
* :class:`GovernorContext` — the per-request enforcement object the
  evaluator checks **cooperatively at batch boundaries** (join steps,
  streamed batches, index-scan strides); raises the typed taxonomy of
  :mod:`repro.sparql.errors` with the telemetry gathered so far;
* :class:`AdmissionController` — bounded concurrent-query slots plus a
  bounded wait queue; when both are full the request is **shed** with
  :class:`~repro.sparql.errors.EndpointOverloaded` instead of queueing
  unboundedly (load shedding beats collapse);
* :class:`QueryGovernor` — the endpoint-level bundle: default limits +
  an admission controller;
* :class:`CircuitBreaker` and :func:`retry_with_backoff` — the
  resilience primitives the enrichment layer wraps external fetches in
  (bounded exponential backoff, fail-fast once a source is known bad).

What the governor did is counted per endpoint, in the ``governor_*``
fields of :class:`~repro.sparql.endpoint.EndpointStatistics` (rendered
by that endpoint's ``EXPLAIN``).

Cancellation is **cooperative**: nothing is preempted mid-batch, so a
check cadence of one deadline read per batch (and one per
:data:`SCAN_CHECK_STRIDE` index entries inside a long scan) bounds
overshoot to a batch's worth of work while keeping the un-governed
fast path untouched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sparql.errors import (
    EndpointOverloaded,
    QueryCancelled,
    QueryTimeout,
    ResourceExhausted,
)

__all__ = [
    "AdmissionController",
    "CancellationToken",
    "CircuitBreaker",
    "CircuitOpenError",
    "GovernorContext",
    "QueryGovernor",
    "QueryLimits",
    "retry_with_backoff",
]

#: Index entries scanned between deadline checks inside one join-step
#: scan (the only loop that can run long between batch boundaries).
SCAN_CHECK_STRIDE = 2048


class CancellationToken:
    """A caller-held handle to cancel an in-flight query.

    Thread-safe: the caller cancels from any thread; the evaluator
    observes the flag at its next batch boundary.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled by caller") -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason}" if self.cancelled else "armed"
        return f"<CancellationToken {state}>"


@dataclass(frozen=True)
class QueryLimits:
    """Per-query resource limits (all optional; ``None`` = unlimited).

    ``deadline_seconds`` — wall-clock budget for the whole evaluation;
    ``max_rows`` — budget on *produced solution rows* (streamed rows
    and join-step outputs both count);
    ``max_binding_cells`` — budget on binding-table cells materialized
    (rows × columns), the evaluator's memory proxy;
    ``allow_partial`` — deadline/row-budget hits on a *streamable*
    query return the rows gathered so far with ``truncated=True``
    instead of raising;
    ``token`` — a caller-held :class:`CancellationToken`.
    """

    deadline_seconds: Optional[float] = None
    max_rows: Optional[int] = None
    max_binding_cells: Optional[int] = None
    allow_partial: bool = False
    token: Optional[CancellationToken] = None

    @property
    def unlimited(self) -> bool:
        return (self.deadline_seconds is None and self.max_rows is None
                and self.max_binding_cells is None and self.token is None)

    def merged_over(self, defaults: "QueryLimits") -> "QueryLimits":
        """These limits with unset fields filled from ``defaults``."""
        return QueryLimits(
            deadline_seconds=(self.deadline_seconds
                              if self.deadline_seconds is not None
                              else defaults.deadline_seconds),
            max_rows=(self.max_rows if self.max_rows is not None
                      else defaults.max_rows),
            max_binding_cells=(self.max_binding_cells
                               if self.max_binding_cells is not None
                               else defaults.max_binding_cells),
            allow_partial=self.allow_partial or defaults.allow_partial,
            token=self.token if self.token is not None else defaults.token)


class GovernorContext:
    """Per-request limit enforcement, checked at batch boundaries.

    Built by the endpoint once per governed request and handed to the
    evaluator through the :class:`~repro.sparql.evaluator.DatasetContext`.
    Not thread-safe (one request evaluates on one thread); the token it
    observes is.
    """

    __slots__ = ("limits", "started", "deadline", "rows", "cells",
                 "scanned", "_stride", "truncated")

    def __init__(self, limits: QueryLimits,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.limits = limits
        self.started = clock()
        self.deadline = (self.started + limits.deadline_seconds
                         if limits.deadline_seconds is not None else None)
        self.rows = 0         # solution rows produced so far
        self.cells = 0        # binding-table cells materialized so far
        self.scanned = 0      # index entries pulled through metered scans
        self._stride = SCAN_CHECK_STRIDE
        self.truncated = False

    # -- telemetry -----------------------------------------------------------

    def telemetry(self) -> Dict[str, object]:
        """Progress gathered so far, attached to governed errors."""
        return {
            "elapsed_seconds": round(time.monotonic() - self.started, 6),
            "rows_produced": self.rows,
            "binding_cells": self.cells,
            "entries_scanned": self.scanned,
        }

    # -- checks --------------------------------------------------------------

    def check(self) -> None:
        """One batch-boundary check: cancellation, then deadline."""
        token = self.limits.token
        if token is not None and token.cancelled:
            raise QueryCancelled(
                f"query cancelled: {token.reason}",
                telemetry=self.telemetry())
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout(
                f"query exceeded its {self.limits.deadline_seconds:.3f}s "
                f"deadline", telemetry=self.telemetry())

    def charge_rows(self, rows: int, width: int = 1) -> None:
        """Account one produced batch (``rows`` solutions of ``width``
        columns), then run the boundary check."""
        self.rows += rows
        self.cells += rows * width
        limits = self.limits
        if limits.max_rows is not None and self.rows > limits.max_rows:
            raise ResourceExhausted(
                f"query produced more than max_rows={limits.max_rows} "
                f"solution rows", telemetry=self.telemetry())
        if limits.max_binding_cells is not None \
                and self.cells > limits.max_binding_cells:
            raise ResourceExhausted(
                f"query materialized more than max_binding_cells="
                f"{limits.max_binding_cells} binding cells",
                telemetry=self.telemetry())
        self.check()

    def charge_scan(self, entries: int) -> None:
        """Account ``entries`` scanned index entries at once (a scan
        produces a whole range per call).  The deadline check fires
        whenever the total crosses a :data:`SCAN_CHECK_STRIDE`
        boundary, so long scans stay interruptible between batch
        boundaries."""
        if entries <= 0:
            return
        before = self.scanned
        self.scanned = before + entries
        if before // self._stride != self.scanned // self._stride:
            self.check()


class _AdmissionSlot:
    """RAII handle for one admitted query (returned by ``admit``)."""

    __slots__ = ("controller", "waited", "_released")

    def __init__(self, controller: "AdmissionController",
                 waited: bool) -> None:
        self.controller = controller
        self.waited = waited
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.controller._release()

    def __enter__(self) -> "_AdmissionSlot":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


class AdmissionController:
    """Bounded concurrent-query slots with a bounded wait queue.

    ``max_concurrent`` queries run at once; up to ``max_queue`` more
    wait (at most ``queue_timeout`` seconds each).  Anything beyond
    that is **shed** immediately with
    :class:`~repro.sparql.errors.EndpointOverloaded` — bounded queues
    keep latency bounded; unbounded ones convert overload into
    collapse.
    """

    def __init__(self, max_concurrent: int, max_queue: int = 0,
                 queue_timeout: Optional[float] = None) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._condition = threading.Condition()
        self.active = 0
        self.queued = 0

    def admit(self) -> _AdmissionSlot:
        """Take a slot (waiting in the bounded queue if necessary) or
        shed with :class:`EndpointOverloaded`."""
        with self._condition:
            if self.active < self.max_concurrent:
                self.active += 1
                return _AdmissionSlot(self, waited=False)
            if self.queued >= self.max_queue:
                raise EndpointOverloaded(
                    f"endpoint overloaded: {self.active} queries active, "
                    f"wait queue full ({self.queued}/{self.max_queue})",
                    telemetry={"active": self.active,
                               "queued": self.queued,
                               "max_concurrent": self.max_concurrent,
                               "max_queue": self.max_queue})
            self.queued += 1
            deadline = (time.monotonic() + self.queue_timeout
                        if self.queue_timeout is not None else None)
            try:
                while self.active >= self.max_concurrent:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise EndpointOverloaded(
                                f"endpoint overloaded: queued "
                                f"{self.queue_timeout:.3f}s without a "
                                f"free slot",
                                telemetry={"active": self.active,
                                           "queued": self.queued})
                    self._condition.wait(remaining)
            finally:
                self.queued -= 1
            self.active += 1
            return _AdmissionSlot(self, waited=True)

    def _release(self) -> None:
        with self._condition:
            self.active -= 1
            self._condition.notify()

    def __repr__(self) -> str:
        return (f"<AdmissionController active={self.active}/"
                f"{self.max_concurrent} queued={self.queued}/"
                f"{self.max_queue}>")


@dataclass
class QueryGovernor:
    """The endpoint-level governance bundle.

    ``defaults`` apply to every request (per-call
    :class:`QueryLimits` override field-by-field); ``admission`` is
    the optional concurrent-slot controller.
    """

    defaults: QueryLimits = field(default_factory=QueryLimits)
    admission: Optional[AdmissionController] = None

    @classmethod
    def for_serving(cls, max_concurrent: int = 8, max_queue: int = 16,
                    queue_timeout: Optional[float] = 1.0,
                    **limit_fields: object) -> "QueryGovernor":
        """A production-shaped governor in one call."""
        return cls(defaults=QueryLimits(**limit_fields),
                   admission=AdmissionController(
                       max_concurrent, max_queue, queue_timeout))

    def effective(self, limits: Optional[QueryLimits]) -> QueryLimits:
        if limits is None:
            return self.defaults
        return limits.merged_over(self.defaults)


# ---------------------------------------------------------------------------
# Resilience primitives for external sources
# ---------------------------------------------------------------------------


class CircuitOpenError(RuntimeError):
    """Fail-fast signal: the circuit breaker is open for this source."""

    code = "circuit_open"


class CircuitBreaker:
    """A classic three-state circuit breaker.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses instantly (no doomed fetch burns a
    worker).  After ``cooldown_seconds`` one *probe* call is let
    through (half-open); its success closes the circuit, its failure
    re-opens it for another cooldown.  ``clock`` is injectable so tests
    drive state transitions deterministically.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown_seconds: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None

    def allow(self) -> bool:
        """Whether a call may proceed (True also for the probe call)."""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if (self._clock() - self.opened_at
                        >= self.cooldown_seconds):
                    self.state = "half-open"
                    return True
                return False
            return True  # half-open: the probe is in flight

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self.opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if (self.state == "half-open"
                    or self.consecutive_failures >= self.failure_threshold):
                self.state = "open"
                self.opened_at = self._clock()

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state} "
                f"failures={self.consecutive_failures}>")


def retry_with_backoff(operation: Callable[[], object], *,
                       attempts: int = 3,
                       base_delay: float = 0.05,
                       max_delay: float = 1.0,
                       retry_on: tuple = (Exception,),
                       breaker: Optional[CircuitBreaker] = None,
                       sleep: Callable[[float], None] = time.sleep
                       ) -> object:
    """Run ``operation`` with bounded exponential-backoff retries.

    Delays are ``base_delay * 2**attempt`` capped at ``max_delay`` —
    *bounded*: after ``attempts`` tries the last exception propagates.
    A ``breaker`` is consulted before each attempt (fail-fast with
    :class:`CircuitOpenError` while open) and fed every outcome.
    ``sleep`` is injectable so tests run instantly.
    """
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit open after {breaker.consecutive_failures} "
                f"consecutive failures")
        try:
            result = operation()
        except retry_on as error:
            if breaker is not None:
                breaker.record_failure()
            last = error
            if attempt + 1 < attempts:
                sleep(min(max_delay, base_delay * (2 ** attempt)))
            continue
        if breaker is not None:
            breaker.record_success()
        return result
    if last is None:
        # only reachable with attempts < 1: the loop never ran, so
        # there is no operation outcome to report
        raise ValueError("retry_with_backoff needs attempts >= 1")
    raise last
