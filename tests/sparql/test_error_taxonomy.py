"""No raw engine exception escapes the endpoint's read path.

Failpoints force deterministic raw exceptions (``KeyError``,
``RecursionError``, ``ValueError``) out of the parser and evaluator;
every one must reach the caller as :class:`QueryExecutionError` with
its machine-readable code, the offending query text and the original
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

    def test_streamed_path_is_mapped(self, endpoint):
        with faults.failpoint("evaluator.batch", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.select(QUERY + " LIMIT 3")

    def test_streamed_path_fires_the_step_failpoint(self, endpoint):
        """Streamed and materialized SELECT run the same step loop."""
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(QUERY + " LIMIT 3")
        assert info.value.code == "internal_error"

    def test_counter_increments(self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                endpoint.select(QUERY)
        assert endpoint.statistics.governor_internal_errors == 1


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

    def test_mapped_error_query_attached_even_without_governor(
            self, endpoint):
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError) as info:
                endpoint.select(QUERY)
        assert info.value.query == QUERY
        assert info.value.telemetry == {}  # ungoverned: no progress data
