"""No raw engine exception escapes the endpoint's read or write path.

Failpoints force deterministic raw exceptions (``KeyError``,
``RecursionError``, ``ValueError``) out of the parser and evaluator;
every one must reach the caller as :class:`QueryExecutionError` with
its machine-readable code, the offending request text and the original
exception chained as ``__cause__``.
"""

from __future__ import annotations

import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.errors import (
    EndpointError,
    QueryExecutionError,
    QuerySyntaxError,
    SPARQLError,
    UpdateError,
)
from repro.testing import faults

EX = "http://example.org/"


@pytest.fixture(autouse=True)
def clean_registry():
    faults.FAILPOINTS.reset()
    yield
    faults.FAILPOINTS.reset()


@pytest.fixture()
def endpoint():
    dataset = Dataset()
    for index in range(5):
        dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                            Literal(index))
    return LocalEndpoint(dataset)


QUERY = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"


class TestEvaluatorExceptionMapping:
    @pytest.mark.parametrize("raw", [KeyError, RecursionError, ValueError])
    def test_raw_evaluator_exception_is_wrapped(self, endpoint, raw):
        with faults.failpoint("evaluator.step", raises=raw):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(QUERY)
        error = info.value
        assert error.code == "internal_error"
        assert error.query == QUERY
        assert isinstance(error.__cause__, raw)
        assert raw.__name__ in str(error)
        assert isinstance(error, SPARQLError)  # callers catch one base

    def test_ask_path_is_mapped(self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.ask(f"ASK {{ ?s <{EX}p> ?o . "
                             f"?s <{EX}q> ?v }}")
        assert info.value.code == "internal_error"

    def test_construct_path_is_mapped(self, endpoint):
        with faults.failpoint("evaluator.step", raises=RecursionError):
            with pytest.raises(QueryExecutionError):
                endpoint.construct(
                    f"CONSTRUCT {{ ?s <{EX}p> ?o }} "
                    f"WHERE {{ ?s <{EX}p> ?o }}")

    def test_describe_path_is_mapped(self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.describe(
                    f"DESCRIBE ?s WHERE {{ ?s <{EX}p> ?o }}")

    def test_query_dispatch_is_mapped(self, endpoint):
        with faults.failpoint("evaluator.step", raises=ValueError):
            with pytest.raises(QueryExecutionError):
                endpoint.query(QUERY)

    def test_limit_select_is_mapped(self, endpoint):
        """A LIMIT window is cut after the same step loop."""
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(QUERY + " LIMIT 3")
        assert info.value.code == "internal_error"

    def test_exists_walk_is_mapped(self, endpoint):
        """The outer BGP runs; the seeded EXISTS walk raises."""
        query = (f"SELECT ?s WHERE {{ ?s <{EX}p> ?o "
                 f"FILTER EXISTS {{ ?s <{EX}p> 3 }} }}")
        with faults.failpoint("evaluator.step", raises=KeyError,
                              skip_first=1) as point:
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(query)
        assert point.hits == 2
        assert info.value.query == query

    def test_counter_increments(self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.select(QUERY)
        assert endpoint.statistics.internal_errors == 1


class TestParserExceptionMapping:
    def test_raw_parser_exception_is_wrapped(self, endpoint):
        with faults.failpoint("endpoint.parse", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select("SELECT ?never WHERE { ?cached ?q ?y }")
        assert info.value.code == "internal_error"
        assert isinstance(info.value.__cause__, KeyError)

    def test_real_syntax_errors_stay_typed(self, endpoint):
        # the mapping must not swallow the parser's own taxonomy
        with pytest.raises(QuerySyntaxError):
            endpoint.select("SELECT WHERE {{{")


class TestTypedErrorsPassThrough:
    def test_endpoint_errors_keep_their_class(self, endpoint):
        with pytest.raises(EndpointError) as info:
            endpoint.select(f"ASK {{ ?s <{EX}p> ?o }}")
        # a wrong-form request is an EndpointError, not an internal one
        assert not isinstance(info.value, QueryExecutionError)

    def test_mapped_error_query_attached(self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(QUERY)
        assert info.value.query == QUERY


class TestUpdateExceptionMapping:
    """``update()`` runs its operations inside the same boundary as
    the read path."""

    @pytest.mark.parametrize("update", [
        f"INSERT {{ ?s <{EX}q> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
        f"DELETE {{ ?s <{EX}p> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
    ], ids=["insert-where", "delete-where"])
    def test_raw_evaluator_exception_is_wrapped(self, endpoint, update):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.update(update)
        error = info.value
        assert error.code == "internal_error"
        assert error.query == update
        assert isinstance(error.__cause__, KeyError)
        assert endpoint.statistics.internal_errors == 1

    def test_typed_errors_pass_through(self, endpoint):
        with faults.failpoint("evaluator.step", raises=UpdateError):
            with pytest.raises(UpdateError) as info:
                endpoint.update(f"INSERT {{ ?s <{EX}q> ?o }} "
                                f"WHERE {{ ?s <{EX}p> ?o }}")
        assert not isinstance(info.value, QueryExecutionError)
        assert endpoint.statistics.internal_errors == 0


RAWS = [KeyError, RecursionError, ValueError]

#: one request per update form that evaluates a WHERE pattern
UPDATES = {
    "insert-where": f"INSERT {{ ?s <{EX}q> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
    "delete-where": f"DELETE {{ ?s <{EX}p> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
    "delete-where-shortcut": f"DELETE WHERE {{ ?s <{EX}p> ?o }}",
    "delete-insert": (f"DELETE {{ ?s <{EX}p> ?o }} "
                      f"INSERT {{ ?s <{EX}q> ?o }} "
                      f"WHERE {{ ?s <{EX}p> ?o }}"),
    "with-graph": (f"WITH <{EX}g> INSERT {{ ?s <{EX}q> ?o }} "
                   f"WHERE {{ ?s <{EX}p> ?o }}"),
}

#: per read request: the read method and the request text
READS = {
    "select": ("select", QUERY),
    "limit-select": ("select", QUERY + " LIMIT 3"),
    "ask": ("ask", f"ASK {{ ?s <{EX}p> ?o . ?s <{EX}p> 3 }}"),
    "construct": ("construct", f"CONSTRUCT {{ ?s <{EX}q> ?o }} "
                               f"WHERE {{ ?s <{EX}p> ?o }}"),
    "describe": ("describe", f"DESCRIBE ?s WHERE {{ ?s <{EX}p> ?o }}"),
    "query": ("query", QUERY),
}


def seeded_endpoint(**options) -> LocalEndpoint:
    """Five ``ex:p`` triples in the default graph and two in ``ex:g``;
    none is counted as inserted through the endpoint."""
    dataset = Dataset()
    for index in range(5):
        dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                            Literal(index))
    for index in range(2):
        dataset.graph(IRI(f"{EX}g")).add(IRI(f"{EX}t{index}"),
                                         IRI(f"{EX}p"), Literal(index))
    return LocalEndpoint(dataset, **options)


def answer(result):
    """A read result in a form two results can be compared by."""
    if isinstance(result, bool):
        return result
    if hasattr(result, "rows"):
        return sorted(map(str, result.rows))
    return sorted(map(str, result))


class TestFailedUpdateWritesNothing:
    """A mapped failure in an update's WHERE pattern surfaces before
    any template is instantiated: nothing is written or counted."""

    @pytest.mark.parametrize("raw", RAWS)
    @pytest.mark.parametrize("update", UPDATES.values(), ids=UPDATES.keys())
    def test_failed_where_writes_nothing(self, update, raw):
        endpoint = seeded_endpoint()
        before = endpoint.dump_trig()
        with faults.failpoint("evaluator.step", raises=raw):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.update(update)
        assert info.value.query == update
        assert isinstance(info.value.__cause__, raw)
        assert endpoint.dump_trig() == before
        stats = endpoint.statistics
        assert (stats.updates, stats.triples_inserted,
                stats.triples_deleted, stats.internal_errors) == (0, 0, 0, 1)

    def test_failure_names_the_whole_request(self):
        endpoint = seeded_endpoint()
        request = (f"INSERT DATA {{ <{EX}a> <{EX}q> 1 }} ; "
                   + UPDATES["insert-where"])
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.update(request)
        assert info.value.query == request


class TestFailedReadIsNotServed:
    @pytest.mark.parametrize("form", READS.values(), ids=READS.keys())
    def test_failed_read_is_not_served(self, form):
        """No answer, no read counter, no log entry; the reader gauge
        is released; the error is counted once."""
        from repro.rdf.concurrency import CONCURRENCY
        method, text = form
        endpoint = seeded_endpoint(keep_query_log=True)
        readers = CONCURRENCY.active_readers
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                getattr(endpoint, method)(text)
        assert info.value.query == text
        assert isinstance(info.value.__cause__, KeyError)
        assert CONCURRENCY.active_readers == readers
        stats = endpoint.statistics
        assert (stats.selects, stats.asks, stats.internal_errors) == (0, 0, 1)
        assert endpoint.query_log == []


class TestEndpointRecovers:
    """After a mapped failure the same request, re-sent, answers as it
    does on an endpoint that never failed: the cached parse and the
    dataset are left as they were."""

    @pytest.mark.parametrize("form", READS.values(), ids=READS.keys())
    def test_read_answers_after_a_failure(self, form):
        method, text = form
        expected = answer(getattr(seeded_endpoint(), method)(text))
        endpoint = seeded_endpoint()
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                getattr(endpoint, method)(text)
        assert answer(getattr(endpoint, method)(text)) == expected
        assert endpoint.statistics.parse_cache_hits == 1

    @pytest.mark.parametrize("update", UPDATES.values(), ids=UPDATES.keys())
    def test_update_applies_after_a_failure(self, update):
        reference = seeded_endpoint()
        touched = reference.update(update)
        endpoint = seeded_endpoint()
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.update(update)
        assert endpoint.update(update) == touched
        assert endpoint.dump_trig() == reference.dump_trig()
        assert endpoint.statistics.updates == 1


class TestParseFailures:
    @pytest.mark.parametrize("form", READS.values(), ids=READS.keys())
    def test_every_read_form_is_mapped(self, endpoint, form):
        method, text = form
        with faults.failpoint("endpoint.parse", raises=ValueError):
            with pytest.raises(QueryExecutionError) as info:
                getattr(endpoint, method)(text)
        assert info.value.query == text
        assert isinstance(info.value.__cause__, ValueError)

    def test_failed_parse_is_not_cached(self, endpoint):
        with faults.failpoint("endpoint.parse", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.select(QUERY)
        assert endpoint.statistics.parse_cache_misses == 0
        assert len(endpoint.select(QUERY)) == 5
        stats = endpoint.statistics
        assert (stats.parse_cache_misses, stats.parse_cache_hits) == (1, 0)

    @pytest.mark.parametrize("update", [
        f"INSERT DATA {{ ?s <{EX}p> 1 }}",
        "DELETE {",
        "SELECT * WHERE { ?s ?p ?o }",
    ], ids=["variable-in-data", "truncated", "query-form"])
    def test_update_syntax_errors_stay_typed(self, endpoint, update):
        with pytest.raises(QuerySyntaxError) as info:
            endpoint.update(update)
        assert not isinstance(info.value, QueryExecutionError)
        assert endpoint.statistics.internal_errors == 0


def test_internal_errors_count_reads_and_writes(endpoint):
    with faults.failpoint("evaluator.step", raises=KeyError):
        for request in (lambda: endpoint.select(QUERY),
                        lambda: endpoint.update(UPDATES["insert-where"]),
                        lambda: endpoint.ask(READS["ask"][1])):
            with pytest.raises(QueryExecutionError):
                request()
    assert endpoint.statistics.internal_errors == 3
