"""Reader/writer storm: snapshot isolation under concurrent load.

Eight reader threads hammer a :class:`LocalEndpoint` with the
LIMIT shapes the translated OLAP workload leans on (DISTINCT/LIMIT,
OPTIONAL, plain joins) while one writer thread keeps adding and
removing observation pairs.  The writer records, per mutation epoch,
the exact set of subjects alive at that epoch; every reader asserts
that its result is *precisely* the state of the single epoch its query
was pinned to — a torn read mixing two epochs (or observing half an
atomic pair) fails the set comparison or the pair-completeness check.

After the storm, the shared caches and statistics must still satisfy
their structural invariants, and a final single-threaded run must
agree with the concurrent results at the final epoch (zero
divergence).
"""

import threading

import pytest

from repro.rdf.concurrency import CONCURRENCY
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.optimizer import PLAN_CACHE

from tests.rdf.rows import id_rows

EX = "http://example.org/storm/"
DIM = IRI(EX + "dim")
VAL = IRI(EX + "val")
MEMBERS = [IRI(EX + f"member{i}") for i in range(8)]

READERS = 8
QUERIES_PER_READER = 70     # 8 × 70 = 560 total queries
WRITER_STEPS = 240

JOIN_QUERY = f"""
    SELECT ?s ?m ?v WHERE {{
        ?s <{DIM.value}> ?m .
        ?s <{VAL.value}> ?v
    }}
"""

OPTIONAL_LIMIT_QUERY = f"""
    SELECT ?s ?v WHERE {{
        ?s <{DIM.value}> ?m
        OPTIONAL {{ ?s <{VAL.value}> ?v }}
    }} LIMIT 50
"""

DISTINCT_LIMIT_QUERY = f"""
    SELECT DISTINCT ?m WHERE {{
        ?s <{DIM.value}> ?m
    }} LIMIT 4
"""

DISTINCT_WIDE_QUERY = f"""
    SELECT DISTINCT ?s WHERE {{
        ?s <{DIM.value}> ?m
    }} LIMIT 100000
"""


def subject(tag: str) -> IRI:
    return IRI(EX + "subject/" + tag)


def build_endpoint(n: int = 160) -> LocalEndpoint:
    endpoint = LocalEndpoint()
    rows = []
    for i in range(n):
        s = subject(f"seed{i}")
        rows.append((s, DIM, MEMBERS[i % len(MEMBERS)]))
        rows.append((s, VAL, Literal(i)))
    endpoint.insert_triples(rows)
    return endpoint


class Storm:
    """Shared state between the writer and the readers."""

    def __init__(self, endpoint: LocalEndpoint, seed_count: int) -> None:
        self.endpoint = endpoint
        self.failures: list = []
        self.failures_lock = threading.Lock()
        #: default-graph epoch -> frozenset of live subject IRIs (the
        #: exact state a snapshot at that epoch must observe); filled
        #: by the writer *inside* the dataset write lock, so every
        #: pinnable epoch has an entry before any reader can pin it
        self.expected = {}
        graph = endpoint.dataset.default
        self.live = [subject(f"seed{i}") for i in range(seed_count)]
        self.expected[graph.epoch] = frozenset(
            s.value for s in self.live)

    def record_failure(self, message: str) -> None:
        with self.failures_lock:
            self.failures.append(message)


def writer_loop(storm: Storm, steps: int) -> None:
    dataset = storm.endpoint.dataset
    graph = dataset.default
    for k in range(steps):
        fresh = subject(f"storm{k}")
        with dataset.locked():
            # the pair is one atomic batch: no snapshot may see half
            graph.add_all([(fresh, DIM, MEMBERS[k % len(MEMBERS)]),
                           (fresh, VAL, Literal(10_000 + k))])
            storm.live.append(fresh)
            storm.expected[graph.epoch] = frozenset(
                s.value for s in storm.live)
        if k % 3 == 0 and storm.live:
            victim = storm.live[0]
            with dataset.locked():
                removed = graph.remove((victim, None, None))
                if removed:
                    storm.live.pop(0)
                    storm.expected[graph.epoch] = frozenset(
                        s.value for s in storm.live)


def reader_loop(storm: Storm, queries: int, index: int) -> None:
    endpoint = storm.endpoint
    for k in range(queries):
        kind = (index + k) % 4
        try:
            if kind == 0:
                table = endpoint.select(JOIN_QUERY)
                expected = storm.expected[table.snapshot_epoch]
                got = {row[0].value for row in table.rows}
                if got != expected:
                    storm.record_failure(
                        f"join diverged at epoch {table.snapshot_epoch}: "
                        f"{len(got)} subjects vs {len(expected)} expected")
                if any(cell is None for row in table.rows for cell in row):
                    storm.record_failure("join produced an unbound cell")
            elif kind == 1:
                table = endpoint.select(OPTIONAL_LIMIT_QUERY)
                # pairs are written atomically, so ?v must always bind:
                # an unbound optional side is a torn read
                for row in table.rows:
                    if row[1] is None:
                        storm.record_failure(
                            f"torn read: {row[0]} lost its value at "
                            f"epoch {table.snapshot_epoch}")
                        break
            elif kind == 2:
                table = endpoint.select(DISTINCT_LIMIT_QUERY)
                if len(table) > 4:
                    storm.record_failure("DISTINCT LIMIT overflowed")
                members = {m.value for m in MEMBERS}
                for row in table.rows:
                    if row[0].value not in members:
                        storm.record_failure(
                            f"unknown member {row[0].value}")
            else:
                table = endpoint.select(DISTINCT_WIDE_QUERY)
                expected = storm.expected[table.snapshot_epoch]
                got = {row[0].value for row in table.rows}
                if got != expected:
                    storm.record_failure(
                        f"wide DISTINCT diverged at epoch "
                        f"{table.snapshot_epoch}")
        except Exception as error:  # noqa: BLE001 - surface in main thread
            storm.record_failure(f"reader raised {error!r}")
            return


@pytest.fixture(scope="module")
def storm_result():
    endpoint = build_endpoint()
    storm = Storm(endpoint, seed_count=160)
    concurrency_before = CONCURRENCY.snapshot()

    writer = threading.Thread(
        target=writer_loop, args=(storm, WRITER_STEPS), name="storm-writer")
    readers = [
        threading.Thread(target=reader_loop,
                         args=(storm, QUERIES_PER_READER, index),
                         name=f"storm-reader-{index}")
        for index in range(READERS)
    ]
    writer.start()
    for thread in readers:
        thread.start()
    writer.join(timeout=120)
    for thread in readers:
        thread.join(timeout=120)
    assert not writer.is_alive()
    assert all(not thread.is_alive() for thread in readers)

    concurrency_after = CONCURRENCY.snapshot()
    return {
        "storm": storm,
        "selects": endpoint.statistics.selects,
        "concurrency_before": concurrency_before,
        "concurrency_after": concurrency_after,
    }


class TestStorm:
    def test_no_divergence_or_torn_reads(self, storm_result):
        failures = storm_result["storm"].failures
        assert not failures, failures[:10]

    def test_every_read_counted_once(self, storm_result):
        # the endpoint counted each query exactly once under 8 readers
        assert storm_result["selects"] == READERS * QUERIES_PER_READER

    def test_snapshots_were_pinned_and_released(self, storm_result):
        before = storm_result["concurrency_before"]
        after = storm_result["concurrency_after"]
        assert after["snapshot_pins"] - before["snapshot_pins"] > 0
        assert after["active_readers"] == 0

    def test_final_state_matches_single_threaded_run(self, storm_result):
        storm = storm_result["storm"]
        endpoint = storm.endpoint
        table = endpoint.select(JOIN_QUERY)
        expected = storm.expected[table.snapshot_epoch]
        assert {row[0].value for row in table.rows} == expected
        # and the epoch it pinned is the final one the writer recorded
        assert table.snapshot_epoch == endpoint.dataset.default.epoch

    def test_plan_cache_invariants_hold(self, storm_result):
        stats = PLAN_CACHE.statistics()
        assert 0 <= stats["entries"] <= PLAN_CACHE.maxsize
        # every entry and every eviction went in through a miss
        assert stats["entries"] + stats["evictions"] <= stats["misses"]
        assert all(value >= 0 for value in stats.values())

    def test_graph_statistics_invariants_hold(self, storm_result):
        graph = storm_result["storm"].endpoint.dataset.default
        # v1 counters must agree exactly with the stored contents
        # (both tiers: compacted columns + delta overlay)
        for pid, cardinality in graph.stats.cardinality.items():
            assert cardinality == graph.count_ids((None, pid, None))
        assert sum(graph.stats.cardinality.values()) == len(graph)
        # distinct counters match the distinct objects actually stored
        for pid, distinct in graph.stats.objects.items():
            actual = len({oi for _, _, oi
                          in id_rows(graph, (None, pid, None))})
            assert distinct == actual

    def test_endpoint_statistics_counted_every_query(self, storm_result):
        endpoint = storm_result["storm"].endpoint
        # 560 storm queries + 1 from the final-state test (test order
        # within the class is fixed); the locked counters must not
        # have dropped any increments
        assert endpoint.statistics.selects >= READERS * QUERIES_PER_READER
