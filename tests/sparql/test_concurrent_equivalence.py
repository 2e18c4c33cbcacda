"""Differential property suite: concurrent == single-threaded results.

For a corpus of query shapes drawn from the experiment families —
enrichment lookups (E2), translated OLAP aggregations (E3),
exploration walks (E5) and the demo's preference query shape (E6) —
results under 8-way concurrent execution must be **row-identical** to
single-threaded execution on the same snapshot.  The dataset is static
during the comparison, so the queries all pin the same snapshot epoch
and evaluation is deterministic: any divergence (row content *or*
order) is a concurrency bug, not noise.

A second pass repeats the comparison while a writer mutates an
*unrelated* predicate, checking that reader results for the corpus
stay epoch-consistent even though the pinned snapshots now advance.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data import small_demo
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint

CITIZEN = "http://eurostat.linked-statistics.org/property#citizen"
GEO = "http://eurostat.linked-statistics.org/property#geo"
OBS_VALUE = "http://purl.org/linked-data/sdmx/2009/measure#obsValue"
CONTINENT = "http://reference.example.org/property#continent"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
DATASET = "http://purl.org/linked-data/cube#dataSet"

#: E2/E3/E5/E6-shaped corpus (see each entry's comment for the family)
CORPUS = {
    # E2: enrichment membership walk — one hop per member, DISTINCT
    "e2_member_listing": f"""
        SELECT DISTINCT ?member WHERE {{
            ?obs <{CITIZEN}> ?member
        }}""",
    # E2: discovery probe — members joined to candidate reference data
    "e2_candidate_join": f"""
        SELECT ?member ?continent WHERE {{
            ?obs <{CITIZEN}> ?member .
            ?member <{CONTINENT}> ?continent
        }} LIMIT 40""",
    # E3: translated OLAP aggregation (group by dimension, sum measure)
    "e3_rollup_sum": f"""
        SELECT ?c (SUM(?v) AS ?total) WHERE {{
            ?obs <{CITIZEN}> ?c .
            ?obs <{OBS_VALUE}> ?v
        }} GROUP BY ?c""",
    # E3: dice + aggregation over two dimensions
    "e3_two_dim_count": f"""
        SELECT ?c ?g (COUNT(?obs) AS ?n) WHERE {{
            ?obs <{CITIZEN}> ?c .
            ?obs <{GEO}> ?g
        }} GROUP BY ?c ?g""",
    # E5: exploration cluster walk — dimension members to their level
    "e5_cluster_by_level": f"""
        SELECT DISTINCT ?member ?continent WHERE {{
            ?obs <{CITIZEN}> ?member .
            ?member <{CONTINENT}> ?continent
        }}""",
    # E5: instance browsing with OPTIONAL labels, under LIMIT
    "e5_labelled_members": f"""
        SELECT ?member ?label WHERE {{
            ?obs <{CITIZEN}> ?member
            OPTIONAL {{ ?member <{LABEL}> ?label }}
        }} LIMIT 60""",
    # E6: the demo query shape — filtered join with ORDER BY
    "e6_filtered_totals": f"""
        SELECT ?c (SUM(?v) AS ?total) WHERE {{
            ?obs <{CITIZEN}> ?c .
            ?obs <{OBS_VALUE}> ?v .
            ?c <{CONTINENT}> ?continent .
            FILTER(?v > 5)
        }} GROUP BY ?c ORDER BY ?c""",
    # E6: sub-select shape the alternative translation produces
    "e6_subselect": f"""
        SELECT ?c ?total WHERE {{
            {{ SELECT ?c (SUM(?v) AS ?total) WHERE {{
                ?obs <{CITIZEN}> ?c .
                ?obs <{OBS_VALUE}> ?v
            }} GROUP BY ?c }}
            FILTER(?total > 0)
        }} ORDER BY ?c""",
}

WORKERS = 8


@pytest.fixture(scope="module")
def endpoint() -> LocalEndpoint:
    return small_demo(observations=240).endpoint


def run_corpus(endpoint: LocalEndpoint):
    """Every corpus query once, in name order: [(name, rows, epoch)]."""
    out = []
    for name in sorted(CORPUS):
        table = endpoint.select(CORPUS[name])
        out.append((name, table.rows, table.snapshot_epoch))
    return out


def test_concurrent_results_are_row_identical(endpoint):
    reference = {name: rows for name, rows, _ in run_corpus(endpoint)}
    assert all(len(rows) > 0 for rows in reference.values()), \
        "corpus queries must produce rows for the comparison to mean much"

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = list(pool.map(
            lambda _: run_corpus(endpoint), range(WORKERS)))

    epochs = set()
    for run in runs:
        for name, rows, epoch in run:
            assert rows == reference[name], \
                f"{name} diverged under {WORKERS}-way concurrency"
            epochs.add(epoch)
    # the dataset never changed: every query pinned the same snapshot
    assert len(epochs) == 1


def test_concurrent_results_stay_consistent_under_unrelated_writes(endpoint):
    """Readers racing a writer on an unrelated predicate still see
    exactly their pinned epoch's rows (equal *as a multiset* to the
    static reference, because the writes never touch the corpus'
    predicates; physical row order may legally vary across epochs for
    queries without ORDER BY, since copy-on-write re-clones the
    mutated graph's index sets)."""
    reference = {name: sorted(map(repr, rows))
                 for name, rows, _ in run_corpus(endpoint)}
    # LIMIT without ORDER BY picks an implementation-defined subset:
    # across epochs the *chosen* rows may legally differ, so those
    # queries are checked against their full (un-limited) result set
    limited = {}
    for name, text in CORPUS.items():
        if "LIMIT" in text and "ORDER BY" not in text:
            full = endpoint.select(text.rsplit("LIMIT", 1)[0])
            limited[name] = {repr(row) for row in full.rows}
    graph = endpoint.dataset.graph("http://example.org/graphs/reference")
    noise = IRI("http://example.org/noise/p")

    def write_noise(steps: int) -> None:
        for k in range(steps):
            s = IRI(f"http://example.org/noise/s{k}")
            graph.add(s, noise, Literal(k))
        graph.remove((None, noise, None))

    def read_corpus(_index: int):
        return run_corpus(endpoint)

    with ThreadPoolExecutor(max_workers=WORKERS + 1) as pool:
        writer = pool.submit(write_noise, 120)
        runs = list(pool.map(read_corpus, range(WORKERS)))
        writer.result()

    epochs = set()
    for run in runs:
        for name, rows, epoch in run:
            if name in limited:
                assert len(rows) == len(reference[name])
                missing = {repr(row) for row in rows} - limited[name]
                assert not missing, \
                    f"{name} returned rows outside the full result set"
            else:
                assert sorted(map(repr, rows)) == reference[name], \
                    f"{name} diverged while unrelated writes were in flight"
            epochs.add(epoch)
    # writers really did advance the epoch while readers ran
    assert len(epochs) >= 1
    final = endpoint.select(CORPUS["e2_member_listing"])
    assert final.snapshot_epoch >= max(epochs)
