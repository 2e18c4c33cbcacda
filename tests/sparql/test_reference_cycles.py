"""A SELECT frees what it built when it returns.

The expression context of a FILTER, BIND or EXISTS must not sit in a
reference cycle: one would keep the evaluator, its sub-SELECT tables
and, for a FILTER, the whole filtered table alive until the cyclic
collector next runs.  Each query here runs once warm, then again with
the collector off; ``gc.collect()`` must then find nothing.
"""

import gc

import pytest

from repro.sparql import LocalEndpoint

DATA = """
PREFIX ex: <http://example.org/>
INSERT DATA {
  ex:a ex:p 1 ; ex:q ex:b .
  ex:b ex:p 2 ; ex:q ex:c .
  ex:c ex:p 3 .
  ex:d ex:p 4 ; ex:q ex:a .
}
"""

QUERIES = {
    "filter": "SELECT ?s WHERE { ?s <http://example.org/p> ?v "
              "FILTER(?v > 1 && ?v < 4) }",
    "exists": "SELECT ?s WHERE { ?s <http://example.org/p> ?v "
              "FILTER NOT EXISTS { ?s <http://example.org/q> ?o } }",
    "bind": "SELECT ?s ?w WHERE { ?s <http://example.org/p> ?v "
            "BIND(?v * 2 AS ?w) }",
    "having": "SELECT ?s (SUM(?v) AS ?t) WHERE { ?s <http://example.org/p> ?v }"
              " GROUP BY ?s HAVING (SUM(?v) > 1) ORDER BY ?s",
    "subselect": "SELECT ?s ?t WHERE { { SELECT ?s (SUM(?v) AS ?t) WHERE "
                 "{ ?s <http://example.org/p> ?v } GROUP BY ?s } "
                 "FILTER(?t > 2) }",
}


def garbage_left_by(run):
    """How many unreachable objects one warm ``run()`` leaves."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def endpoint():
    endpoint = LocalEndpoint()
    endpoint.update(DATA)
    return endpoint


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_select_leaves_no_cycle(endpoint, name):
    assert len(endpoint.select(QUERIES[name])) > 0
    assert garbage_left_by(lambda: endpoint.select(QUERIES[name])) == 0
