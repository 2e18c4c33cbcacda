"""The query governor: limits, cancellation, degradation, admission.

Every test builds its own small endpoint (the shared session fixture
must stay unmutated and ungoverned), and governor activity is read off
that endpoint's own statistics.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import EndpointStatistics, LocalEndpoint
from repro.sparql.evaluator import DatasetContext, GraphSource, \
    evaluate_select
from repro.sparql.errors import (
    EndpointError,
    EndpointOverloaded,
    GovernedQueryError,
    QueryCancelled,
    QueryTimeout,
    ResourceExhausted,
)
from repro.sparql.governor import (
    AdmissionController,
    CancellationToken,
    CircuitBreaker,
    CircuitOpenError,
    GovernorContext,
    QueryGovernor,
    QueryLimits,
    retry_with_backoff,
)
from repro.sparql.parser import parse_query

EX = "http://example.org/"


def make_endpoint(rows: int = 50, **governor_kwargs) -> LocalEndpoint:
    dataset = Dataset()
    for index in range(rows):
        dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                            Literal(index))
    governor = None
    if governor_kwargs:
        governor = QueryGovernor.for_serving(**governor_kwargs)
    return LocalEndpoint(dataset, governor=governor)


QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"


class TestLimits:
    def test_ungoverned_endpoint_unchanged(self):
        endpoint = make_endpoint()
        assert len(endpoint.select(QUERY)) == 50

    def test_deadline_raises_query_timeout(self):
        endpoint = make_endpoint()
        with pytest.raises(QueryTimeout) as info:
            endpoint.select(QUERY, limits=QueryLimits(deadline_seconds=1e-9))
        assert info.value.code == "query_timeout"
        assert info.value.query == QUERY
        assert info.value.telemetry["elapsed_seconds"] >= 0

    def test_max_rows_raises_resource_exhausted(self):
        endpoint = make_endpoint()
        with pytest.raises(ResourceExhausted) as info:
            endpoint.select(QUERY, limits=QueryLimits(max_rows=10))
        assert info.value.code == "resource_exhausted"
        assert info.value.telemetry["rows_produced"] > 10

    def test_max_rows_governs_ask(self):
        """ASK runs the same join steps as SELECT, so the row budget
        applies to it too (the join below produces 50 rows per step and
        never finds a solution, so there is no early exit)."""
        endpoint = make_endpoint()
        ask = (f"ASK {{ ?s <{EX}p> ?o . ?t <{EX}p> ?o "
               f"FILTER(?s != ?t) }}")
        assert endpoint.ask(ask) is False
        with pytest.raises(ResourceExhausted) as info:
            endpoint.ask(ask, limits=QueryLimits(max_rows=10))
        assert info.value.telemetry["rows_produced"] > 10

    def test_streamed_limit_charges_each_row_once(self):
        """A streamed SELECT … LIMIT pays for the rows its join steps
        produce and nothing on top: the 1000 rows asked for come out of
        two scan windows (1024 entries), so any budget from 1024 up
        passes — as it did before the step loop was shared."""
        endpoint = make_endpoint(rows=3000)
        for budget in (1024, 1100, 1500):
            table = endpoint.select(QUERY + " LIMIT 1000",
                                    limits=QueryLimits(max_rows=budget))
            assert len(table) == 1000
        assert endpoint.statistics.streamed_selects == 3
        with pytest.raises(ResourceExhausted) as info:
            endpoint.select(QUERY + " LIMIT 1000",
                            limits=QueryLimits(max_rows=1023))
        assert info.value.telemetry["rows_produced"] == 1024

    def test_streamed_and_materialized_charge_the_same_steps(self):
        """One window holds the whole scan below, so the streamed drain
        executes exactly the materialized steps and charges their
        totals: 300 rows × 2 columns, then 300 rows × 3 columns."""
        dataset = make_endpoint(rows=300).dataset
        for index in range(300):
            dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}q"),
                                Literal(-index))
        join = f"SELECT * WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}"
        charged = []
        for text in (join, join + " LIMIT 1000"):
            gov = GovernorContext(QueryLimits(max_rows=10 ** 9))
            table = evaluate_select(
                parse_query(text), DatasetContext(dataset, governor=gov))
            assert len(table) == 300
            charged.append((gov.rows, gov.cells))
        assert charged == [(600, 1500), (600, 1500)]

    def test_max_binding_cells_raises_resource_exhausted(self):
        endpoint = make_endpoint()
        with pytest.raises(ResourceExhausted):
            endpoint.select(QUERY, limits=QueryLimits(max_binding_cells=20))

    def test_cancellation_token(self):
        endpoint = make_endpoint()
        token = CancellationToken()
        token.cancel("test says stop")
        with pytest.raises(QueryCancelled) as info:
            endpoint.select(QUERY, limits=QueryLimits(token=token))
        assert info.value.code == "query_cancelled"
        assert "test says stop" in str(info.value)

    def test_cancellation_from_another_thread(self):
        endpoint = make_endpoint(rows=200)
        token = CancellationToken()
        results = {}

        def run():
            try:
                # an endless-ish workload: cross product, cancelled
                # cooperatively at a batch boundary
                endpoint.select(
                    f"SELECT ?a ?b WHERE {{ ?a <{EX}p> ?x . "
                    f"?b <{EX}p> ?y }}",
                    limits=QueryLimits(token=token))
            except QueryCancelled as error:
                results["error"] = error

        worker = threading.Thread(target=run)
        worker.start()
        token.cancel("cancelled mid-flight")
        worker.join(timeout=30)
        assert not worker.is_alive()
        # the query either finished before the cancel landed or died
        # with the typed error — never anything else
        if "error" in results:
            assert results["error"].code == "query_cancelled"

    def test_limits_apply_to_ask_and_construct(self):
        endpoint = make_endpoint()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            endpoint.ask(f"ASK {{ ?s <{EX}p> ?o }}",
                         limits=QueryLimits(token=token))
        with pytest.raises(QueryCancelled):
            endpoint.construct(
                f"CONSTRUCT {{ ?s <{EX}p> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
                limits=QueryLimits(token=token))

    def test_query_dispatch_passes_limits(self):
        endpoint = make_endpoint()
        with pytest.raises(ResourceExhausted):
            endpoint.query(QUERY, limits=QueryLimits(max_rows=5))

    def test_governed_errors_are_endpoint_taxonomy(self):
        assert issubclass(QueryTimeout, GovernedQueryError)
        assert issubclass(ResourceExhausted, GovernedQueryError)
        assert issubclass(EndpointOverloaded, GovernedQueryError)

    def test_deadline_inside_a_keyed_probe_step(self, monkeypatch):
        """40 rows probe 40 keys at once: one keyed read of 4 000
        entries, charged as one scan.  The deadline runs out inside
        that read; the scan meter, crossing its stride, raises the
        typed error — no partial table — and the endpoint serves the
        next request in full."""
        dataset = Dataset()
        for index in range(40):
            dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                                IRI(f"{EX}o{index}"))
            for value in range(100):
                dataset.default.add(IRI(f"{EX}o{index}"), IRI(f"{EX}q"),
                                    Literal(value))
        endpoint = LocalEndpoint(dataset)
        query = (f"SELECT ?s ?v WHERE {{ ?s <{EX}p> ?o . "
                 f"?o <{EX}q> ?v }}")
        read = GraphSource.match_arrays
        keyed = []

        def slow(source, pattern):
            if any(isinstance(cell, np.ndarray) for cell in pattern):
                keyed.append(len(next(cell for cell in pattern
                                      if cell is not None)))
                time.sleep(0.3)  # the deadline passes inside the step
            return read(source, pattern)

        monkeypatch.setattr(GraphSource, "match_arrays", slow)
        with pytest.raises(QueryTimeout) as info:
            endpoint.select(query, limits=QueryLimits(deadline_seconds=0.2))
        assert isinstance(info.value, EndpointError)
        assert keyed == [40]
        assert info.value.telemetry["entries_scanned"] == 40 + 4000
        monkeypatch.undo()
        assert len(endpoint.select(query)) == 4000
        assert endpoint.statistics.governor_timeouts == 1


class TestDegradation:
    def test_allow_partial_returns_truncated_table(self):
        endpoint = make_endpoint()
        table = endpoint.select(
            QUERY + " LIMIT 40",
            limits=QueryLimits(max_rows=10, allow_partial=True))
        assert table.truncated is True
        assert len(table) <= 10
        # every served row is individually correct
        for row in table:
            assert row["s"].value.startswith(EX)

    def test_without_allow_partial_streamable_still_raises(self):
        endpoint = make_endpoint()
        with pytest.raises(ResourceExhausted):
            endpoint.select(QUERY + " LIMIT 40",
                            limits=QueryLimits(max_rows=10))

    def test_materialized_queries_never_degrade(self):
        endpoint = make_endpoint()
        with pytest.raises(ResourceExhausted):
            endpoint.select(
                QUERY + " ORDER BY ?o LIMIT 40",
                limits=QueryLimits(max_rows=10, allow_partial=True))

    def test_untruncated_table_not_flagged(self):
        endpoint = make_endpoint()
        table = endpoint.select(
            QUERY + " LIMIT 5",
            limits=QueryLimits(max_rows=10_000, allow_partial=True))
        assert table.truncated is False
        assert len(table) == 5


class TestDefaultsMerging:
    def test_governor_defaults_apply(self):
        endpoint = make_endpoint(max_concurrent=4, max_rows=10)
        with pytest.raises(ResourceExhausted):
            endpoint.select(QUERY)

    def test_per_call_limits_override_defaults(self):
        endpoint = make_endpoint(max_concurrent=4, max_rows=10)
        table = endpoint.select(QUERY, limits=QueryLimits(max_rows=10_000))
        assert len(table) == 50

    def test_unlimited_is_free(self):
        limits = QueryLimits()
        assert limits.unlimited
        assert not QueryLimits(max_rows=1).unlimited
        assert not QueryLimits(token=CancellationToken()).unlimited


class TestAdmission:
    def test_sheds_when_slots_and_queue_full(self):
        control = AdmissionController(max_concurrent=1, max_queue=0)
        slot = control.admit()
        with pytest.raises(EndpointOverloaded) as info:
            control.admit()
        assert info.value.code == "endpoint_overloaded"
        assert info.value.telemetry["max_concurrent"] == 1
        slot.release()
        control.admit().release()  # slot is reusable after release

    def test_queue_timeout_sheds(self):
        control = AdmissionController(max_concurrent=1, max_queue=4,
                                      queue_timeout=0.05)
        slot = control.admit()
        with pytest.raises(EndpointOverloaded):
            control.admit()
        slot.release()

    def test_queued_request_proceeds_after_release(self):
        control = AdmissionController(max_concurrent=1, max_queue=4,
                                      queue_timeout=10.0)
        slot = control.admit()
        got = []

        def wait_for_slot():
            with control.admit() as second:
                got.append(second.waited)

        worker = threading.Thread(target=wait_for_slot)
        worker.start()
        while control.queued == 0:  # the worker is parked in the queue
            pass
        slot.release()
        worker.join(timeout=30)
        assert got == [True]

    def test_endpoint_sheds_with_query_attached(self):
        endpoint = make_endpoint(max_concurrent=1, max_queue=0)
        slot = endpoint.governor.admission.admit()
        try:
            with pytest.raises(EndpointOverloaded) as info:
                endpoint.select(QUERY)
            assert info.value.query == QUERY
        finally:
            slot.release()
        assert endpoint.statistics.governor_shed == 1


class TestTelemetry:
    def test_statistics_count_governor_activity(self):
        endpoint = make_endpoint(max_concurrent=4)
        endpoint.select(QUERY)
        with pytest.raises(QueryTimeout):
            endpoint.select(QUERY, limits=QueryLimits(deadline_seconds=1e-9))
        with pytest.raises(ResourceExhausted):
            endpoint.select(QUERY, limits=QueryLimits(max_rows=1))
        endpoint.select(QUERY + " LIMIT 40",
                        limits=QueryLimits(max_rows=10, allow_partial=True))
        stats = endpoint.statistics
        assert stats.governor_admitted == 4
        assert stats.governor_timeouts == 1
        assert stats.governor_budget_kills == 1
        assert stats.governor_truncated_serves == 1
        assert stats.governor_shed == stats.governor_cancelled == 0

    def test_statistics_reset_zeroes_governor_counters(self):
        """``reset`` puts every field back to its default in place, so
        whoever holds the statistics object sees the reset too."""
        endpoint = make_endpoint(max_concurrent=2)
        endpoint.select(QUERY)
        held = endpoint.statistics
        assert held.governor_admitted == 1
        for counter in dataclasses.fields(held):
            setattr(held, counter.name, 7)
        endpoint.reset_statistics()
        assert endpoint.statistics is held
        assert held == EndpointStatistics()

    def test_explain_renders_governor_line(self):
        """The ``governor:`` line is the explaining endpoint's own
        count: another endpoint's sheds and verdicts do not show."""
        endpoint = make_endpoint(max_concurrent=2)
        other = make_endpoint(max_concurrent=2)
        endpoint.select(QUERY)
        with pytest.raises(QueryTimeout):
            other.select(QUERY, limits=QueryLimits(deadline_seconds=1e-9))
        plan = endpoint.explain(QUERY)
        governor_lines = [line for line in plan.splitlines()
                          if line.startswith("governor:")]
        assert governor_lines == [
            "governor: admitted=1 queued=0 shed=0 timeouts=0 cancelled=0 "
            "budget_kills=0 truncated=0 internal=0"]


class TestQLIntegration:
    def test_ql_report_carries_truncated_flag(self, engine):
        from repro.demo import MARY_QL
        result = engine.execute(MARY_QL)
        assert result.report.truncated is False

    def test_ql_does_not_fall_back_on_governed_error(self, engine,
                                                     enriched):
        from repro.demo import MARY_QL
        timeouts_before = enriched.endpoint.statistics.governor_timeouts
        with pytest.raises(QueryTimeout):
            engine.execute(MARY_QL, variant="auto",
                           limits=QueryLimits(deadline_seconds=1e-9))
        timeouts = (enriched.endpoint.statistics.governor_timeouts
                    - timeouts_before)
        # exactly one governed kill: no second (fallback) execution ran
        assert timeouts == 1

    def test_ql_cancellation_between_stages(self, engine):
        from repro.demo import MARY_QL
        token = CancellationToken()
        token.cancel("session closed")
        with pytest.raises(QueryCancelled):
            engine.execute(MARY_QL, limits=QueryLimits(token=token))


class TestResiliencePrimitives:
    def test_retry_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        delays = []
        assert retry_with_backoff(flaky, attempts=4, base_delay=0.1,
                                  sleep=delays.append) == "ok"
        assert len(calls) == 3
        assert delays == [0.1, 0.2]  # exponential, one per retry

    def test_retry_exhaustion_raises_last_error(self):
        def always_fails():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            retry_with_backoff(always_fails, attempts=3,
                               sleep=lambda _s: None)

    def test_backoff_is_capped(self):
        attempts = 6
        delays = []

        def always_fails():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            retry_with_backoff(always_fails, attempts=attempts,
                               base_delay=0.1, max_delay=0.3,
                               sleep=delays.append)
        assert len(delays) == attempts - 1
        assert max(delays) == 0.3

    def test_breaker_opens_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=10.0,
                                 clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # fail-fast while open
        clock[0] = 11.0
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_breaker_reopens_on_failed_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_retry_respects_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2)
        failures = []

        def always_fails():
            failures.append(1)
            raise RuntimeError("down")

        with pytest.raises(RuntimeError):
            retry_with_backoff(always_fails, attempts=2, breaker=breaker,
                               sleep=lambda _s: None)
        with pytest.raises(CircuitOpenError):
            retry_with_backoff(always_fails, attempts=2, breaker=breaker,
                               sleep=lambda _s: None)
        assert len(failures) == 2  # the open breaker blocked new attempts

