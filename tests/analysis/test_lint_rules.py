"""Good/bad fixture pairs for every lint rule.

Each rule must flag its bad fixture, pass its good one, and respect
the ``# repro: allow[rule-id]`` suppression pragma.  Fixtures are
linted through :func:`analysis.lint.lint_source` under a *claimed*
repo path, so each snippet exercises exactly the rules that would
apply to a real file at that location.
"""

import pathlib
import re
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

from analysis.lint import Baseline, Finding, lint_source  # noqa: E402
from analysis.rules import (  # noqa: E402
    ALL_RULES, PINS, RULES_BY_ID, PinnedRule)


def findings_for(source: str, path: str, rule_id: str):
    return [finding for finding in lint_source(textwrap.dedent(source), path)
            if finding.rule == rule_id]


GRAPH = "src/repro/rdf/graph.py"
ENDPOINT = "src/repro/sparql/endpoint.py"
EVALUATOR = "src/repro/sparql/evaluator.py"
COLUMNAR = "src/repro/rdf/columnar.py"
TESTFILE = "tests/test_example.py"
LIBRARY = "src/repro/olap/example.py"
STAR_PARALLEL = "src/repro/olap/parallel.py"
WALKER = "src/repro/sparql/evaluator_walker.py"
STEPS = "src/repro/sparql/evaluator_steps.py"
ETL = "src/repro/olap/etl.py"

#: rule id -> (bad fixture, claimed path, good fixture)
FIXTURES = {
    "lock-discipline": (
        """
        class Graph:
            def add(self, triple):
                self._delta.add(*triple)
        """,
        GRAPH,
        """
        class Graph:
            def add(self, triple):
                with self._lock:
                    self._delta.add(*triple)

            def _compact(self):
                \"\"\"Fold the overlay down.  Caller must hold the lock.\"\"\"
                self._columns = None
        """,
    ),
    "snapshot-discipline": (
        """
        class LocalEndpoint:
            def select(self, query):
                return evaluate(self.dataset, query)
        """,
        ENDPOINT,
        """
        class LocalEndpoint:
            def select(self, query):
                snapshot = self._pin()
                return evaluate(snapshot, query)

            def explain(self, query):
                snapshot = self.dataset.snapshot()
                return explain(snapshot, query)

            def update(self, query):
                return apply(self.dataset, query)
        """,
    ),
    "error-taxonomy": (
        """
        def serve(query):
            try:
                return run(query)
            except Exception:
                raise RuntimeError("boom")
        """,
        ENDPOINT,
        """
        def serve(query):
            try:
                return run(query)
            except ValueError as error:
                raise UpdateError(str(error)) from error
        """,
    ),
    "columnar-dtype-safety": (
        """
        def narrow(subjects, np):
            return subjects.astype(np.int32)
        """,
        COLUMNAR,
        """
        def narrow(subjects, np):
            return subjects.astype(_dtype_for(int(subjects.max())))

        def empty(np):
            return np.empty(0, dtype=np.int32)
        """,
    ),
    "test-determinism": (
        """
        import random

        def test_sample():
            assert random.randint(0, 5) >= 0
        """,
        TESTFILE,
        """
        import random

        def test_sample():
            rng = random.Random(7)
            assert rng.randint(0, 5) >= 0
        """,
    ),
    "mutable-default": (
        """
        def collect(item, into=[]):
            into.append(item)
            return into
        """,
        LIBRARY,
        """
        def collect(item, into=None):
            if into is None:
                into = []
            into.append(item)
            return into
        """,
    ),
    "assert-validation": (
        """
        def admit(count):
            assert count > 0
            return count
        """,
        LIBRARY,
        """
        def admit(count):
            assert isinstance(count, int)
            if count <= 0:
                raise ValueError("count must be positive")
            return count
        """,
    ),
    "parallel-safety": (
        """
        def _worker_star_partials(task):
            facts = StarSchema.current().fact_columns()
            SHM_SEGMENTS.retire_all()
            return facts
        """,
        STAR_PARALLEL,
        """
        def _worker_star_partials(task):
            manifest, lo, hi, plan = task
            _segment, views = shm.attach_arrays(manifest)
            return kernel.partials(views, lo, hi, plan)

        def close(aggregator):
            # parent-side code may touch the registry freely
            SHM_SEGMENTS.retire(aggregator.pinned)
        """,
    ),
    "storage-tiers-private": (
        """
        def gather(graph, pattern):
            arrays = graph.match_arrays(pattern)
            if arrays is None:
                return list(graph.triples_ids(pattern))
            if graph._tombstones:
                return graph._columns.merged(graph._delta.arrays(),
                                             graph._tombstones.arrays())
            return arrays
        """,
        LIBRARY,
        """
        def gather(graph, pattern):
            subjects, _, objects = graph.match_arrays(pattern)
            columns = graph.folded_columns()
            return subjects, objects, columns, graph.tier_sizes()
        """,
    ),
    "single-algebra-walker": (
        """
        class PatternEvaluator:
            def _walk(self, node, source, table, chunk):
                if isinstance(node, BGP):
                    yield from self._walk_bgp(node, source, table, chunk)
                elif isinstance(node, (Join, LeftJoin, Filter, Extend)):
                    yield table

            def evaluate(self, node, source, binding):
                if isinstance(node, BGP):
                    for triple in source.match(node.patterns[0]):
                        yield binding
                elif isinstance(node, Join):
                    yield binding
                elif isinstance(node, (LeftJoin, UnionNode)):
                    yield binding
        """,
        WALKER,
        """
        class PatternEvaluator:
            def _walk(self, node, source, table, chunk):
                if isinstance(node, BGP):
                    yield from self._walk_bgp(node, source, table, chunk)
                elif isinstance(node, (Join, LeftJoin, Filter, Extend)):
                    yield table

            def exists(self, node, source):
                return any(piece.rows for piece in
                           self._walk(node, source, None, 512))

            def _bgp_dead(self, patterns):
                return any(isinstance(pattern, TriplePatternNode)
                           for pattern in patterns)
        """,
    ),
    "single-sparql-aggregate": (
        """
        def _merge_aggregate(kind, into, state):
            if kind in ("SUM", "AVG"):
                return into + state
            return min(into, state) if kind == "MIN" else max(into, state)
        """,
        EVALUATOR,
        """
        AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

        def _pushable(plan, call):
            return plan.fixed_size() and (
                call.name == "COUNT" or call.expression is not None)
        """,
    ),
    "single-expression-loop": (
        """
        class PatternEvaluator:
            def _filter_table(self, child, condition, source):
                context = self._context_for(source)
                decode_row = row_decoder(child.names, self._dict.decode)
                return [row for index, row in enumerate(child.rows)
                        if condition.evaluate(decode_row(row), context)]
        """,
        WALKER,
        """
        class PatternEvaluator:
            def decoded(self, table):
                return list(map(row_decoder(table.names, self._dict.decode),
                                table.rows))

            def _filter_table(self, child, condition, source):
                keep = expression_column(
                    condition, child, self._dict.decode,
                    self._context_for(source, child), effective_boolean_value)
                return [row for row, kept in zip(child.rows, keep) if kept]

            def _having(self, groups, condition, context):
                return [group for group in groups.items()
                        if condition.evaluate(group, context)]
        """,
    ),
    "columnar-join-step": (
        """
        class JoinSteps:
            def _step_triple(self, pattern, source, table):
                rows = table.rows
                exts = self._extension_tuples(source, pattern)
                if not self._shared(pattern, table):
                    return [row + ext for row in rows for ext in exts]
                out_rows = []
                for row in rows:
                    for ext in self._memo.get(row[0], ()):
                        out_rows.append(row + ext)
                return out_rows
        """,
        STEPS,
        """
        class JoinSteps:
            def _step_triple(self, pattern, source, table):
                keys = table.columns[0]
                low = np.searchsorted(self._sorted, keys, "left")
                return [column[low] for column in table.columns]

            def _step_path(self, pattern, source, table):
                return [self._reach(row[0]) for row in table.rows]
        """,
    ),
    "single-grouping-kernel": (
        """
        def _group(keys):
            distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
            return distinct, inverse.reshape(-1)
        """,
        LIBRARY,
        """
        def _group(columns, count):
            first, inverse = group(columns, count)
            return [column[first] for column in columns], inverse

        def _distinct(column):
            return np.unique(column)
        """,
    ),
    "single-generation-install": (
        """
        class Graph:
            def bulk_load_ids(self, s, p, o):
                with self._lock:
                    self._delta.clear()
                    self._columns = TripleColumns(s, p, o)

            def add_all(self, triples):
                with self._lock:
                    for triple in triples:
                        self.add(triple)
        """,
        GRAPH,
        """
        class Graph:
            def __init__(self):
                self._columns = None

            def add_all(self, triples):
                with self._lock:
                    ids = self.dictionary.encode_all(checked(triples))
                    self._fold(*ids)

            def _fold(self, s, p, o):
                \"\"\"Must hold the lock.\"\"\"
                self._install(TripleColumns(s, p, o))

            def _install(self, columns):
                \"\"\"Must hold the lock.\"\"\"
                self._delta.clear()
                self._columns = columns

        class GraphSnapshot(Graph):
            def __init__(self, graph):
                self._columns = graph._columns
        """,
    ),
    "incremental-compaction": (
        """
        class TripleColumns:
            def merged(self, delta, dead):
                s, p, o = self.arrays((None, None, None), dead)
                perm = np.lexsort((o, p, s))
                return s[perm], p[perm], o[perm]
        """,
        COLUMNAR,
        """
        class TripleColumns:
            def __init__(self, s, p, o):
                perm = np.lexsort((o, p, s))
                self._orders = {"spo": (s[perm], p[perm], o[perm])}

            def merged(self, delta, dead):
                fresh = TripleColumns(*delta)
                at, end = self._locate("spo", dead)
                return fresh, at[end > at]

            def count(self, pattern):
                lo, hi = self._range(*self._route(pattern))
                return hi - lo
        """,
    ),
    "single-locate": (
        """
        def _minus_table(left, removals):
            keys = np.sort(removals.columns[0])
            at = np.searchsorted(keys, left.columns[0])
            return left.take(keys[at] != left.columns[0])
        """,
        WALKER,
        """
        def _minus_table(left, removals):
            _order, _low, counts = located(
                grouped(removals.columns, [0], len(left)), [0],
                left.columns, len(left))
            return left.take(counts == 0)
        """,
    ),
    "columnar-etl": (
        """
        def _fact_rows(observations):
            order = sorted(range(len(observations)),
                           key=lambda at: observations[at].value)
            rows = np.empty(len(order), dtype=np.int64)
            for row, at in enumerate(order):
                rows[at] = row
            return rows

        def _hop(graph, members, parent_index):
            hop = np.full(len(members), -1, dtype=np.int64)
            for code, member in enumerate(members):
                targets = [target for target
                           in graph.objects(member, SKOS.broader)
                           if target in parent_index]
                if targets:
                    hop[code] = parent_index[min(targets)]
            return hop
        """,
        ETL,
        """
        def _fact_rows(observations):
            values = [term.value for term in observations]
            rows = np.empty(len(values), dtype=np.int64)
            rows[sorted(range(len(values)), key=values.__getitem__)] = \\
                np.arange(len(values))
            return rows

        def _facts(graph, schema, star, row_of, n):
            coordinates = {}
            for iri in sorted(star.dimensions, key=str):
                codes = np.full(n, -1, dtype=np.int64)
                rows, members = _pairs(graph, schema.bottom_level(iri),
                                       row_of)
                codes[rows] = members
                coordinates[iri] = codes
            return coordinates
        """,
    ),
    "one-process-pool": (
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        def pool(workers):
            return ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn"))
        """,
        "src/repro/sparql/parallel.py",
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.rdf import shm

        def pool(workers):
            \"\"\"The one pool of rdf/shm.py, not a multiprocessing one.\"\"\"
            return shm.SpawnPool(workers), BrokenProcessPool
        """,
    ),
    "one-rdf-reader": (
        """
        from repro.sparql.tokenizer import unescape_string

        def parse_ntriples(text):
            return [unescape_string(line) for line in text.splitlines()]
        """,
        "src/repro/rdf/ntriples.py",
        """
        from repro.sparql.parser import parse_document

        def quads(text):
            return parse_document(text)[0]
        """,
    ),
    "exact-constant-costs": (
        """
        def estimate(graph, predicate, obj):
            return graph.predicate_summary(predicate).object_estimate(obj)
        """,
        "src/repro/rdf/stats.py",
        """
        def estimate(view, predicate, obj):
            return view.count((None, predicate, obj))
        """,
    ),
    "one-constraint-table": (
        """
        from repro.qb4olap.validator import validate_schema

        def cube_ok(demo):
            return not validate_schema(demo.schema)
        """,
        "src/repro/cli.py",
        """
        from repro.qb.constraints import cube_constraint_checks

        def cube_ok(graph, dsd):
            return not any(check_constraint(graph, check)
                           for check in cube_constraint_checks(dsd))
        """,
    ),
}


#: (claimed path, bad snippet) — one per row of ``PINS``, each flagged
#: by that row alone
ROW_FIXTURES = [
    (LIBRARY, "import multiprocessing\n"),
    (STEPS, "def join(matches):\n    return Build(matches)\n"),
    (STEPS, "def join(keys, x):\n    return np.searchsorted(keys, x)\n"),
    (LIBRARY, "def rows(keys):\n    return np.unique(keys, axis=0)\n"),
    (STEPS, "def ids(c):\n    return np.unique(c, return_inverse=True)\n"),
    (LIBRARY, "def order(keys):\n    return np.lexsort(keys)\n"),
    (LIBRARY, "def sums(out, inverse, values):\n"
              "    np.add.at(out, inverse, values)\n"),
    (EVALUATOR, 'KIND = "SUM"\n'),
    (EVALUATOR, "decode_row = row_decoder(names, decode)\n"),
    (EVALUATOR, "def keep(table, condition, context):\n"
                "    return [condition.evaluate(row, context)\n"
                "            for row in table.rows]\n"),
    (LIBRARY, "table = BindingTable(names, rows)\n"),
    (WALKER, "def solve(table):\n    return table.rows\n"),
    (STEPS, "def build(fetch, keys):\n"
            "    return [fetch(key) for key in keys]\n"),
    (GRAPH, "class Graph:\n    def clear(self):\n"
            "        self._columns = None\n"),
    (GRAPH, "class Graph:\n    def load(self, triples):\n"
            "        for triple in triples:\n            self.add(triple)\n"),
    (COLUMNAR, "def merged(s, p, o):\n"
               "    # repro: allow[single-grouping-kernel]\n"
               "    return np.lexsort((o, p, s))\n"),
    (COLUMNAR, "def locate(self, rows):\n"
               "    return [self._range(row) for row in rows]\n"),
    (LIBRARY, "def size(graph):\n    return len(graph._delta)\n"),
    (LIBRARY, "class Dataset:\n    def _track_add(self, graph):\n"
              "        return self.graphs_disjoint\n"),
    (EVALUATOR, "def scan(source, pattern):\n"
                "    return list(source.match(pattern))\n"),
    ("src/repro/rdf/trig.py", "def parse_trig(text):\n    return text\n"),
    (ETL, "def hops(graph, members):\n"
          "    return [graph.objects(m, BROADER) for m in members]\n"),
    (ETL, "order = sorted(rows, key=lambda row: row[0])\n"),
    ("src/repro/rdf/stats.py", "class Histogram:\n    pass\n"),
    ("src/repro/qb4olap/validator.py",
     "class SchemaViolation:\n    code: str\n"),
]


def one_row(pin):
    rule = PinnedRule(pin.rule)
    rule.pins = [pin]
    return rule


def test_every_rule_has_a_fixture_pair():
    assert set(FIXTURES) == set(RULES_BY_ID)
    assert len(ALL_RULES) >= 6
    # every row of the pin table, not just every rule id, has a bad
    # snippet that it alone flags
    rows = [one_row(pin) for pin in PINS]
    flagged_by = [[index for index, rule in enumerate(rows)
                   if lint_source(source, path, [rule])]
                  for path, source in ROW_FIXTURES]
    assert all(len(flagging) == 1 for flagging in flagged_by), flagged_by
    assert sorted(flagging[0] for flagging in flagged_by) \
        == list(range(len(PINS)))


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_bad_fixture_is_flagged(rule_id):
    bad, path, _good = FIXTURES[rule_id]
    found = findings_for(bad, path, rule_id)
    assert found, f"{rule_id} missed its bad fixture"
    assert all(finding.rule == rule_id for finding in found)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_good_fixture_passes(rule_id):
    _bad, path, good = FIXTURES[rule_id]
    assert findings_for(good, path, rule_id) == []


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_pragma_suppresses(rule_id):
    bad, path, _good = FIXTURES[rule_id]
    flagged = findings_for(bad, path, rule_id)
    lines = textwrap.dedent(bad).splitlines()
    for finding in sorted(flagged, key=lambda f: f.line, reverse=True):
        # own-line style: pragma on the line above the finding
        # (inserted bottom-up so earlier insertions don't shift lines)
        lines.insert(finding.line - 1,
                     f"# repro: allow[{rule_id}]  # fixture")
    suppressed = "\n".join(lines)
    assert [finding for finding in lint_source(suppressed, path)
            if finding.rule == rule_id] == []


def test_pragma_only_suppresses_named_rule():
    bad, path, _good = FIXTURES["mutable-default"]
    lines = textwrap.dedent(bad).splitlines()
    flagged = findings_for(bad, path, "mutable-default")
    for finding in flagged:
        lines.insert(finding.line - 1, "# repro: allow[assert-validation]")
    still = "\n".join(lines)
    assert [finding for finding in lint_source(still, path)
            if finding.rule == "mutable-default"]


# -- more-precise behaviour pinned per rule ---------------------------------


def test_lock_discipline_ignores_unprotected_attributes():
    source = """
    class Graph:
        def touch(self):
            self.note = 1
            summary.epoch = self.epoch
    """
    assert findings_for(source, GRAPH, "lock-discipline") == []


def test_snapshot_discipline_allows_write_paths():
    source = """
    class LocalEndpoint:
        def insert_triples(self, triples):
            self.dataset.default.add_all(triples)
    """
    assert findings_for(source, ENDPOINT, "snapshot-discipline") == []


def test_error_taxonomy_allows_typed_raises():
    source = """
    def serve(query):
        raise EndpointError("result too large")
    """
    assert findings_for(source, ENDPOINT, "error-taxonomy") == []


def test_determinism_flags_wall_clock_asserts():
    source = """
    import time

    def test_latency(run):
        start = time.monotonic()
        run()
        assert time.time() - start < 1.0
    """
    found = findings_for(source, TESTFILE, "test-determinism")
    assert found and "wall clock" in found[0].message


def test_parallel_safety_covers_every_kernel_function():
    """``olap/kernel.py`` is worker-side top to bottom: the rule needs
    no ``_worker`` prefix there, and still ignores other modules."""
    source = """
    def partials(views, lo, hi, plan):
        return StarSchema.facts
    """
    kernel = "src/repro/olap/kernel.py"
    found = findings_for(source, kernel, "parallel-safety")
    assert found and "StarSchema" in found[0].message
    assert findings_for(source, "src/repro/olap/parallel.py",
                        "parallel-safety") == []
    raw = """
    def finalize(keyword, accumulators):
        raise RuntimeError(keyword)
    """
    assert findings_for(raw, kernel, "error-taxonomy")


def test_storage_tiers_are_the_graphs_own():
    """graph.py itself may read its tiers, but not even it may treat a
    ``match_arrays`` answer as optional; non-``src/`` files are free."""
    source = """
    class Graph:
        def match_arrays(self, pattern):
            return self._columns.arrays(pattern, self._tombstones)

        def scan(self, pattern):
            if self.match_arrays(pattern) is not None:
                return 1
    """
    found = findings_for(source, GRAPH, "storage-tiers-private")
    assert len(found) == 1 and "None" in found[0].message
    assert findings_for(source, "benchmarks/bench_e3_querying.py",
                        "storage-tiers-private") == []


def test_single_walker_lives_in_the_walker_module_only():
    """The one allowed dispatch is the walker file's; the same function
    anywhere else under ``sparql/`` is a second interpreter, while the
    modules that describe trees without evaluating them are exempt."""
    _bad, _path, good = FIXTURES["single-algebra-walker"]
    rule = "single-algebra-walker"
    assert findings_for(good, WALKER, rule) == []
    for elsewhere in (EVALUATOR, STEPS, ENDPOINT):
        found = findings_for(good, elsewhere, rule)
        assert len(found) == 1 and "_walk" in found[0].message
    for describer in ("src/repro/sparql/explain.py",
                      "src/repro/sparql/optimizer.py",
                      "src/repro/sparql/algebra.py",
                      "src/repro/olap/engine.py"):
        assert findings_for(good, describer, rule) == []


def test_aggregate_names_have_two_homes_and_one_set():
    """The accumulators and the tokenizer's keyword list may spell the
    names; the ``AGGREGATE_NAMES`` set may too, but a second set beside
    it (the parent's ``_PARTIAL_AGGREGATES``) may not."""
    bad, _path, good = FIXTURES["single-sparql-aggregate"]
    rule = "single-sparql-aggregate"
    assert len(findings_for(bad, EVALUATOR, rule)) == 3
    for home in ("src/repro/sparql/aggregation.py",
                 "src/repro/sparql/tokenizer.py",
                 "src/repro/olap/kernel.py"):
        assert findings_for(bad, home, rule) == []
    second_set = 'MERGEABLE = frozenset({"COUNT", "SUM", "MAX"})\n'
    found = findings_for(second_set, "src/repro/sparql/expressions.py", rule)
    assert [finding.message.split('"')[1] for finding in found] \
        == ["SUM", "MAX"]
    assert findings_for(good, "src/repro/sparql/expressions.py", rule) == []


def test_expression_loops_have_one_home_and_one_projection():
    """Both shapes are flagged — the ``for`` statement as well as the
    comprehension — everywhere under ``sparql/`` but in ``bindings.py``;
    ``row_decoder`` is the final projection's alone."""
    bad, _path, good = FIXTURES["single-expression-loop"]
    rule = "single-expression-loop"
    assert len(findings_for(bad, WALKER, rule)) == 2
    statement = """
    def _column(expression, table, decode, context):
        values = []
        for index, row in enumerate(table.rows):
            values.append(expression.evaluate({}, context))
        return values
    """
    for elsewhere in (WALKER, "src/repro/sparql/aggregation.py", STEPS):
        found = findings_for(statement, elsewhere, rule)
        assert len(found) == 1 and ".rows" in found[0].message
    for home in ("src/repro/sparql/bindings.py", "src/repro/olap/engine.py"):
        assert findings_for(bad, home, rule) == []
        assert findings_for(statement, home, rule) == []
    # `decoded` may call row_decoder in the walker module only
    found = findings_for(good, EVALUATOR, rule)
    assert len(found) == 1 and "row_decoder" in found[0].message


def test_join_steps_and_column_reads_stay_columnar():
    """Both loop shapes are flagged, through a local alias of the row
    view too; ``_step_path`` is exempt in the steps module, and in
    ``aggregation.py`` / ``bindings.py`` only the column readers are
    in scope — a cold operator elsewhere may walk rows."""
    bad, _path, _good = FIXTURES["columnar-join-step"]
    rule = "columnar-join-step"
    # the comprehension's generator over rows, and the statement
    assert len(findings_for(bad, STEPS, rule)) == 2
    column_read = """
    def {name}(plan, table, decode, context):
        rows = table.rows
        return [row[0] for row in rows]
    """
    for home, reader in (("src/repro/sparql/aggregation.py", "partials"),
                         ("src/repro/sparql/bindings.py",
                          "expression_column")):
        found = findings_for(column_read.format(name=reader), home, rule)
        assert len(found) == 1 and reader in found[0].message
        assert findings_for(column_read.format(name="finalize"),
                            home, rule) == []
        assert findings_for(bad, home, rule) == []
    # the walker is in scope whole: its one read, the alias, is flagged
    found = findings_for(bad, WALKER, rule)
    assert len(found) == 1 and "`_step_triple`" in found[0].message
    assert findings_for(bad, EVALUATOR, rule) == []


def test_a_join_step_reads_storage_once():
    """In the steps module a ``fetch(`` or ``match_arrays(`` call in a
    loop — the per-key probe, as a statement or a comprehension — is a
    finding; one call a step (or a partition's helper) is not, nor is
    the same loop elsewhere.  The real module is clean."""
    rule = "columnar-join-step"
    per_key = """
    def join_table(table, spec, fetch, keys):
        found = []
        for key in keys:
            found.append(fetch(key))
        return found + [source.match_arrays(key) for key in keys]
    """
    found = findings_for(per_key, STEPS, rule)
    assert len(found) == 2
    assert all("one keyed read a step" in f.message for f in found)
    assert findings_for(per_key, WALKER, rule) == []
    assert findings_for("""
    def _probed(fetch, template, keys):
        return fetch(template + [keys])

    def join_table(table, parts, fetch):
        return [_probed(fetch, part, table) for part in parts]
    """, STEPS, rule) == []
    source = (ROOT / STEPS).read_text(encoding="utf-8")
    assert findings_for(source, STEPS, rule) == []


#: (bad, good) — the walker pairing two tables a row at a time and
#: building the result from tuples, and the same operator on columns
WALKER_ROWS = (
    """
    class PatternEvaluator:
        def _left_outer_extend(self, node, source, left):
            marker, seeded = self._marked(left)
            right = self.solve(node.right, source, seeded)
            matched = {}
            for row in right.rows:
                matched.setdefault(row[-1], []).append(row[:-1])
            out_rows = [hit for index, row in enumerate(left.rows)
                        for hit in matched.get(index, [row])]
            return BindingTable(right.names[:-1], out_rows)
    """,
    """
    class PatternEvaluator:
        def decoded(self, table):
            return list(map(row_decoder(table.names, self._dict.decode),
                            table.rows))

        def _left_outer_extend(self, node, source, left):
            marker, seeded = self._marked(left)
            right = self.solve(node.right, source, seeded)
            return _left_outer(left, right, marker)


    class Tally:
        def snapshot(self):
            return {"rows": self.rows}


    def _left_outer(left, right, marker):
        marks = right.columns[right.slots[marker]]
        order = np.argsort(marks, kind="stable")
        return BindingTable.of(right.names, [
            column[order] for column in right.columns], len(order))
    """,
)


def test_the_walker_reads_rows_only_to_decode():
    """In the walker every ``.rows`` read is a finding, in a loop or
    not, but in ``decoded`` and on ``self``; the same reads in another
    evaluator module are not (the bad fixture's alias case is pinned
    above).
    ``BindingTable(`` is a finding anywhere under ``src/``,
    ``BindingTable.of(`` nowhere, and tests build tables as they
    like."""
    rule = "columnar-join-step"
    bad, good = WALKER_ROWS
    found = findings_for(bad, WALKER, rule)
    assert sorted(finding.message.split(" (")[0] for finding in found) == [
        "`.rows` read in `_left_outer_extend`",
        "`.rows` read in `_left_outer_extend`",
        "`BindingTable(...)` builds a table from row tuples"]
    assert findings_for(good, WALKER, rule) == []
    outside = findings_for(bad, EVALUATOR, rule)
    assert [finding.message.split(" (")[0] for finding in outside] == [
        "`BindingTable(...)` builds a table from row tuples"]
    built = """
    def empty(names):
        return bindings.BindingTable(names, [])
    """
    for path in (LIBRARY, "src/repro/sparql/bindings.py", STEPS):
        assert len(findings_for(built, path, rule)) == 1
    assert findings_for(built, "tests/sparql/tables.py", rule) == []
    source = (ROOT / "src" / WALKER[len("src/"):]).read_text(
        encoding="utf-8")
    assert findings_for(source, WALKER, rule) == []
    # VALUES data and a sub-SELECT's result are rows of terms, pragma'd
    assert len(re.findall(r"allow\[columnar-join-step\]", source)) == 2


def test_the_general_fold_is_the_only_per_row_step():
    """In ``aggregation.py``'s column readers a ``for`` statement that
    calls ``step`` is the per-row fold: flagged wherever it stands, so
    the one general fallback is the one pragma; accumulators' own
    methods (``over``) are out of scope."""
    rule = "columnar-join-step"
    per_row = """
    def {name}(call, fold, table, inverse, groups, decode, context):
        states = [fold.start() for _ in range(groups)]
        for number, value in zip(inverse.tolist(), values):
            states[number] = fold.step(states[number], value)
        return states
    """
    home = "src/repro/sparql/aggregation.py"
    for reader in ("partials", "_states", "_key_column"):
        found = findings_for(per_row.format(name=reader), home, rule)
        assert len(found) == 1 and "step" in found[0].message
    assert findings_for(per_row.format(name="over"), home, rule) == []
    assert findings_for(per_row.format(name="_states"),
                        "src/repro/sparql/bindings.py", rule) == []
    source = (ROOT / home).read_text(encoding="utf-8")
    assert len(re.findall(r"allow\[columnar-join-step\]", source)) == 1
    assert findings_for(source, home, rule) == []


def test_grouping_has_one_home():
    """``np.unique(axis=0)`` is a finding everywhere under ``src/``,
    the shared module included; ``np.lexsort`` everywhere but there;
    under ``sparql/`` so is ``np.unique(return_inverse=True)``; a
    plain one-dimensional ``np.unique`` and code outside ``src/`` are
    free."""
    rule = "single-grouping-kernel"
    bad, _path, good = FIXTURES[rule]
    home = "src/repro/grouping.py"
    lexsort = """
    def _ranked(both):
        order = np.lexsort(both[::-1])
        return order
    """
    for path in (LIBRARY, STEPS, GRAPH, home):
        assert len(findings_for(bad, path, rule)) == 1
        assert findings_for(good, path, rule) == []
    for path in (LIBRARY, STEPS, GRAPH):
        found = findings_for(lexsort, path, rule)
        assert len(found) == 1 and "lexsort" in found[0].message
    assert findings_for(lexsort, home, rule) == []
    # so is every unbuffered per-group accumulation: ``ufunc.at``
    first_rows = """
    def _first(code, slots, count):
        np.minimum.at(slots, code, np.arange(count))
    """
    for path in (LIBRARY, STEPS, "src/repro/olap/kernel.py"):
        found = findings_for(first_rows, path, rule)
        assert len(found) == 1 and "ufunc.at" in found[0].message
    assert findings_for(first_rows, home, rule) == []
    assert findings_for(first_rows, "tests/olap/test_x.py", rule) == []
    for path in ("tests/olap/reference_group.py", "benchmarks/check_x.py"):
        assert findings_for(bad, path, rule) == []
    # which distinct ids a column holds has the same home, under
    # ``sparql/``: no sort-or-hash of one column
    hand_rolled = """
    def _states(column):
        return np.unique(column, return_inverse=True)
    """
    for path in (STEPS, WALKER, "src/repro/sparql/aggregation.py",
                 "src/repro/sparql/bindings.py"):
        found = findings_for(hand_rolled, path, rule)
        assert len(found) == 1 and "grouping.distinct" in found[0].message
    for path in (LIBRARY, GRAPH, home, "tests/sparql/test_x.py"):
        assert findings_for(hand_rolled, path, rule) == []
    counted = """
    def _states(column, names):
        ids, codes = grouping.distinct(column)
        return ids, codes, np.unique(column), dict.fromkeys(names)
    """
    assert findings_for(counted, STEPS, rule) == []
    # the shared module is worker-side code, top to bottom
    worker = "def group(columns, count):\n    return PLAN_CACHE\n"
    assert findings_for(worker, home, "parallel-safety")


def test_a_build_side_has_one_constructor_and_one_search():
    """Under ``sparql/`` a ``Build(`` is a finding everywhere but in
    ``evaluator_steps.grouped`` and an ``np.searchsorted`` everywhere
    but in ``evaluator_steps.located`` — same-named functions of other
    modules included; the storage layer searches freely, and the real
    modules are clean without a pragma."""
    rule = "single-locate"
    call = """
    def {name}(matches, keys, key):
        return {callee}(matches, keys, key)
    """
    for callee, owner in (("Build", "grouped"),
                          ("np.searchsorted", "located")):
        assert findings_for(call.format(name=owner, callee=callee),
                            STEPS, rule) == []
        for name, path in (("_hash_build", STEPS), ("_runs", STEPS),
                           (owner, EVALUATOR), (owner, WALKER)):
            found = findings_for(call.format(name=name, callee=callee),
                                 path, rule)
            assert len(found) == 1 and owner in found[0].message
        for path in (COLUMNAR, LIBRARY, "tests/sparql/reference_join.py"):
            assert findings_for(call.format(name="merged", callee=callee),
                                path, rule) == []
    for path in (STEPS, WALKER, EVALUATOR):
        source = (ROOT / path).read_text(encoding="utf-8")
        assert "allow[single-locate]" not in source
        assert findings_for(source, path, rule) == []


def test_a_generation_is_installed_in_one_place():
    """``self._columns = …`` is a finding in every method of
    ``rdf/graph.py`` but ``__init__`` and ``_install`` — ``clear`` and
    ``_compact`` included, which used to carry their own copies —
    while another object's ``_columns`` and other files are free; the
    real module is clean without a pragma."""
    rule = "single-generation-install"
    swap = """
    class Graph:
        def {name}(self):
            \"\"\"Must hold the lock.\"\"\"
            self._columns = None
            clone._columns = self._columns
    """
    for name in ("clear", "_compact", "_fold", "bulk_load_ids", "copy"):
        found = findings_for(swap.format(name=name), GRAPH, rule)
        assert len(found) == 1 and "_install" in found[0].message
    for name in ("__init__", "_install"):
        assert findings_for(swap.format(name=name), GRAPH, rule) == []
    assert findings_for(swap.format(name="clear"), COLUMNAR, rule) == []
    source = (ROOT / GRAPH).read_text(encoding="utf-8")
    assert "allow[single-generation-install]" not in source
    assert findings_for(source, GRAPH, rule) == []
    assert findings_for(source, GRAPH, "lock-discipline") == []


def test_a_fold_never_re_sorts_or_searches_row_by_row():
    """In ``rdf/columnar.py`` an ``np.lexsort`` is a finding in every
    function but ``TripleColumns.__init__`` — another class's
    ``__init__`` and a module-level helper included — and so is a
    ``_range(`` call inside a loop; the real module is clean with no
    pragma for this rule."""
    rule = "incremental-compaction"
    sort = """
    class {owner}:
        def {name}(self, s, p, o):
            return np.lexsort((o, p, s))
    """
    for owner, name in (("TripleColumns", "merged"),
                        ("TripleColumns", "arrays"),
                        ("Other", "__init__")):
        found = findings_for(sort.format(owner=owner, name=name),
                             COLUMNAR, rule)
        assert len(found) == 1 and "lexsort" in found[0].message
    assert len(findings_for("def _sorted(s, p, o):\n"
                            "    return np.lexsort((o, p, s))\n",
                            COLUMNAR, rule)) == 1
    assert findings_for(sort.format(owner="TripleColumns", name="__init__"),
                        COLUMNAR, rule) == []
    per_row = """
    class TripleColumns:
        def arrays(self, pattern, dead):
            for triple in dead:
                at, end = self._range("spo", triple)
            return [self._range("spo", triple) for triple in dead]
    """
    found = findings_for(per_row, COLUMNAR, rule)
    assert len(found) == 2 and all("_range" in f.message for f in found)
    assert findings_for(per_row, LIBRARY, rule) == []
    source = (ROOT / COLUMNAR).read_text(encoding="utf-8")
    assert "allow[incremental-compaction]" not in source
    assert findings_for(source, COLUMNAR, rule) == []


def test_nothing_walks_every_tombstone():
    """In ``rdf/graph.py`` a ``for`` statement or a comprehension over
    anything read off ``_tombstones``, and a pattern-less ``.ids()`` /
    ``.arrays()`` of it, is a finding everywhere but in ``_unshare``
    and ``folded_columns``; asking the index with a pattern is not,
    nor is a loop over the overlay."""
    rule = "incremental-compaction"
    scans = """
    class Graph:
        def {name}(self, pattern):
            dead = [t for t in self._tombstones if t[1] == pattern[1]]
            for by_predicate in self._tombstones.spo.values():
                dead.append(by_predicate)
            every = self._tombstones.arrays()
            return dead, every, list(graph._tombstones.ids())
    """
    for name in ("_dead", "_stored_count", "remove", "_compact"):
        assert len(findings_for(scans.format(name=name), GRAPH, rule)) == 4
    for name in ("_unshare", "folded_columns"):
        assert findings_for(scans.format(name=name), GRAPH, rule) == []
    indexed = """
    class Graph:
        def _stored_count(self, pattern):
            return self._columns.count(pattern) \\
                - self._tombstones.count(pattern)

        def match_arrays(self, pattern):
            dead = self._tombstones.arrays(pattern)
            for row in self._tombstones.ids(pattern):
                yield row
            return [row for row in self._delta.ids()], dead
    """
    found = findings_for(indexed, GRAPH, rule)
    # the one loop left reads the index with a pattern, but it is
    # still a loop over the tombstone structure
    assert len(found) == 1 and "loop" in found[0].message
    source = (ROOT / GRAPH).read_text(encoding="utf-8")
    assert "allow[incremental-compaction]" not in source
    assert findings_for(source, GRAPH, rule) == []


def test_the_batch_path_does_not_loop_over_add():
    """A ``self.add(`` call inside a ``for`` statement or a
    comprehension is a finding in ``Graph``; a single call, a loop over
    the id-level body, and a loop in another class are not."""
    rule = "single-generation-install"
    loops = """
    class Graph:
        def add_all(self, triples):
            with self._lock:
                for triple in triples:
                    if triple:
                        self.add(triple)

        def __iadd__(self, triples):
            return [self.add(triple) for triple in triples]

        def add_one(self, triple):
            return self.add(triple)

        def place(self, ids):
            with self._lock:
                for si, pi, oi in ids:
                    self._add_ids(si, pi, oi)

    class Loader:
        def load(self, triples):
            for triple in triples:
                self.add(triple)
    """
    found = findings_for(loops, GRAPH, rule)
    assert [finding.line for finding in found] == [7, 10]
    assert all("add_all" in finding.message for finding in found)


def test_columnar_etl_flags_each_per_row_shape_and_nothing_else():
    """The three shapes ISSUE 28 removed are one finding each — the
    lambda sort key, the element write per iteration, the term-level
    read in a loop (a comprehension is one too) — and only in
    ``olap/etl.py``; a vectorized write inside a loop over dimensions
    is the module's shape."""
    rule = "columnar-etl"
    bad, path, good = FIXTURES[rule]
    found = findings_for(bad, path, rule)
    assert [finding.line for finding in found] == [3, 7, 14, 17]
    assert ["sorted(" in finding.message for finding in found] \
        == [True, False, False, False]
    assert "`rows[…] = …`" in found[1].message
    assert "`graph.objects(`" in found[2].message
    assert "`hop[…] = …`" in found[3].message
    assert findings_for(bad, "src/repro/olap/engine.py", rule) == []
    augmented = """
    def _totals(graph, levels, members):
        totals = np.zeros(len(members))
        for level in levels:
            totals[0] += len(list(graph.subjects(MEMBER_OF, level)))
            for code in range(len(members)):
                totals[code] += 1
        return totals
    """
    found = findings_for(augmented, path, rule)
    # a constant index is no per-row write; the read and the inner
    # loop's counter-indexed one are
    assert [finding.line for finding in found] == [5, 7]


#: (bad, good) — subjects numbered by decoding every id a
#: ``match_arrays`` read returned, and by the dictionary's value ranks
ETL_DECODES = (
    """
    def _by_value(graph, predicate, obj):
        ids = graph.match_arrays((None, predicate, obj))[0]
        ids = np.sort(ids)
        terms = list(map(graph.dictionary.decode, ids.tolist()))
        order, numbers = _ranked([term.value for term in terms])
        return terms, order, _locator(ids, numbers)

    def _level(graph, level):
        decode = graph.dictionary.decode
        members = graph.match_arrays((None, MEMBER_OF, level))[0]
        terms = [decode(member) for member in members.tolist()]
        return sorted(terms, key=str)
    """,
    """
    def _by_value(graph, predicate, obj):
        ids = graph.match_arrays((None, predicate, obj))[0]
        order = np.argsort(graph.dictionary.value_ranks(ids))
        numbers = np.empty(len(ids), dtype=np.int64)
        numbers[order] = np.arange(len(ids))
        return ids, order, _locator(ids, numbers)

    def _level(graph, level):
        ids, order, code_of = _by_value(graph, MEMBER_OF, level)
        return list(map(graph.dictionary.decode, ids[order].tolist()))

    def _distinct_values(graph, predicate):
        ids = distinct(graph.match_arrays((None, predicate, None))[2])[0]
        return list(map(graph.dictionary.decode, ids.tolist()))
    """,
)


def test_numbering_decodes_no_id_a_read_returned():
    """In ``_by_value`` / ``_level`` a decode mapped over a read's ids,
    or called in a comprehension over them through an alias, is a
    finding; ``_level`` decoding what ``_by_value`` returned is not,
    and neither is decoding a read's distinct values anywhere else."""
    rule = "columnar-etl"
    bad, good = ETL_DECODES
    found = findings_for(bad, ETL, rule)
    assert [finding.line for finding in found] == [5, 12]
    assert all("`dictionary.decode` over the ids" in finding.message
               for finding in found)
    assert "in `_level`" in found[1].message
    assert findings_for(good, ETL, rule) == []
    assert findings_for(bad, "src/repro/olap/engine.py", rule) == []
    source = (ROOT / "src" / ETL[len("src/"):]).read_text(encoding="utf-8")
    assert findings_for(source, ETL, rule) == []


def test_one_process_pool_lives_in_shm_only():
    """Imports and uses are each a finding anywhere under ``src/repro``
    but ``rdf/shm.py``; tests and benchmarks spawn what they like, and
    ``parallel-safety`` covers only the star aggregator's modules."""
    rule = "one-process-pool"
    bad, _path, _good = FIXTURES[rule]
    for path in (LIBRARY, STAR_PARALLEL, EVALUATOR):
        found = findings_for(bad, path, rule)
        assert [finding.line for finding in found] == [2, 3, 6, 7]
    segments = "from multiprocessing import shared_memory\n"
    assert len(findings_for(segments, GRAPH, rule)) == 2
    for path in ("src/repro/rdf/shm.py", "tests/olap/test_x.py",
                 "benchmarks/check_x.py"):
        assert findings_for(bad, path, rule) == []
    worker = "def _worker_run(task):\n    return PLAN_CACHE\n"
    for path in ("src/repro/sparql/parallel.py",
                 "src/repro/sparql/aggregation.py"):
        assert findings_for(worker, path, "parallel-safety") == []
    assert findings_for(worker, STAR_PARALLEL, "parallel-safety")


def test_evaluator_rules_cover_the_whole_family():
    """A file split must not drop coverage: every module of the
    evaluator family on disk is in the tuple the evaluator-scoped
    rules share, and each of those rules fires in each of them."""
    from analysis.rules import EVALUATOR_FAMILY

    on_disk = sorted(
        "repro/sparql/" + path.name
        for path in (ROOT / "src/repro/sparql").glob("evaluator*.py"))
    assert on_disk == sorted(EVALUATOR_FAMILY)
    narrowing = "def narrow(ids, np):\n    return ids.astype(np.int32)\n"
    for member in EVALUATOR_FAMILY:
        path = "src/" + member
        bad, _path, _good = FIXTURES["error-taxonomy"]
        assert findings_for(bad, path, "error-taxonomy"), member
        assert findings_for(narrowing, path, "columnar-dtype-safety")


def test_rules_scoped_to_their_paths():
    bad, _path, _good = FIXTURES["lock-discipline"]
    # the same snippet under an unrelated path triggers nothing
    assert findings_for(bad, "src/repro/olap/engine.py",
                        "lock-discipline") == []


# -- baseline mechanics ------------------------------------------------------


def test_baseline_split_new_accepted_stale():
    finding = Finding("mutable-default", LIBRARY, 3, "msg",
                      "def collect(item, into=[]):")
    other = Finding("mutable-default", LIBRARY, 9, "msg",
                    "def gather(item, into={}):")
    baseline = Baseline({finding.fingerprint: "accepted"})
    new, accepted, stale = baseline.split([finding, other])
    assert accepted == [finding]
    assert new == [other]
    assert stale == []
    new, accepted, stale = baseline.split([other])
    assert stale == [finding.fingerprint]


def test_fingerprint_tracks_content_not_line():
    a = Finding("assert-validation", LIBRARY, 3, "msg", "assert count > 0")
    b = Finding("assert-validation", LIBRARY, 30, "msg", "assert count > 0")
    c = Finding("assert-validation", LIBRARY, 3, "msg", "assert size > 0")
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
