"""Per-request counters stay with their request under concurrency.

Two endpoints answer a ``LIMIT`` query each on their own thread.  The
first reader is parked inside its BGP evaluation (a thread-scoped
``evaluator.step`` failpoint waits on an event) while the second runs
its whole request, so a counter read as a before/after delta of
process-wide state would charge the first endpoint for the second's
work.  Each endpoint must count exactly its own request.
"""

import threading

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.testing import faults

EX = "http://example.org/counters/"
QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }} LIMIT 10"


def make_endpoint() -> LocalEndpoint:
    dataset = Dataset()
    for index in range(300):
        dataset.default.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                            Literal(index))
    return LocalEndpoint(dataset, keep_query_log=True)


def counted(endpoint: LocalEndpoint) -> tuple:
    stats = endpoint.statistics
    return (stats.selects, stats.asks, stats.internal_errors,
            [(entry.kind, entry.rows) for entry in endpoint.query_log])


def test_each_endpoint_counts_only_its_own_request():
    solo = make_endpoint()
    assert len(solo.select(QUERY)) == 10
    expected = counted(solo)
    assert expected == (1, 0, 0, [("select", 10)])

    first, second = make_endpoint(), make_endpoint()
    paused, second_done = threading.Event(), threading.Event()
    errors = []

    def park_first_reader() -> None:
        paused.set()
        assert second_done.wait(timeout=30)

    def run_first() -> None:
        try:
            first.select(QUERY)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def run_second() -> None:
        try:
            assert paused.wait(timeout=30)
            second.select(QUERY)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
        finally:
            second_done.set()

    reader_one = threading.Thread(target=run_first)
    reader_two = threading.Thread(target=run_second)
    with faults.failpoint("evaluator.step", only_threads=[reader_one],
                          max_hits=1, callback=park_first_reader):
        reader_one.start()
        reader_two.start()
        reader_two.join(timeout=60)
        reader_one.join(timeout=60)
    assert not reader_one.is_alive() and not reader_two.is_alive()
    assert not errors, errors
    assert second_done.is_set()
    assert counted(first) == expected
    assert counted(second) == expected


def test_scoped_and_nested_selects_count_once_per_request():
    """A ``FROM``-scoped query and a sub-SELECT evaluate under their
    own contexts, and the request is still counted once."""
    endpoint = make_endpoint()
    endpoint.dataset.graph(f"{EX}g").add(
        IRI(f"{EX}s0"), IRI(f"{EX}p"), Literal(0))
    scoped = endpoint.select(f"SELECT ?s FROM <{EX}g> WHERE "
                             f"{{ ?s <{EX}p> ?o }} LIMIT 3")
    assert len(scoped) == 1
    assert counted(endpoint) == (1, 0, 0, [("select", 1)])
    nested = endpoint.select(f"SELECT * WHERE {{ {{ SELECT ?s WHERE "
                             f"{{ ?s <{EX}p> ?o }} LIMIT 3 }} }}")
    assert len(nested) == 3
    assert counted(endpoint)[:2] == (2, 0)
