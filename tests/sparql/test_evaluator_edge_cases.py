"""Additional evaluator edge cases: nesting, ordering, distinct aggregates."""

import pytest

from repro.rdf import Namespace
from repro.sparql import LocalEndpoint

EX = Namespace("http://example.org/")


@pytest.fixture
def endpoint():
    ep = LocalEndpoint()
    ep.update("""
    PREFIX ex: <http://example.org/>
    INSERT DATA {
      ex:a ex:v 1 ; ex:tag "x" ; ex:link ex:b .
      ex:b ex:v 2 ; ex:tag "x" .
      ex:c ex:v 2 ; ex:tag "y" ; ex:link ex:a .
      ex:d ex:v 3 .
    }
    """)
    return ep


class TestNestedPatterns:
    def test_nested_optionals(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s ?t ?lv WHERE {
          ?s ex:v ?v
          OPTIONAL {
            ?s ex:tag ?t
            OPTIONAL { ?s ex:link ?l . ?l ex:v ?lv }
          }
        } ORDER BY ?s
        """)
        rows = {r["s"].local_name(): r for r in t}
        assert rows["a"]["lv"].value == 2
        assert "lv" not in rows["b"]
        assert "t" not in rows["d"]

    def test_union_inside_optional(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s ?w WHERE {
          ?s ex:v 2
          OPTIONAL {
            { ?s ex:tag ?w } UNION { ?s ex:link ?w }
          }
        }
        """)
        # ex:b has tag only; ex:c has both tag and link → 3 rows
        assert len(t) == 3

    def test_filter_scopes_to_group(self, endpoint):
        # a FILTER before the pattern it constrains still applies
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { FILTER(?v > 2) ?s ex:v ?v }
        """)
        assert [r["s"].local_name() for r in t] == ["d"]


class TestOrderingEdgeCases:
    def test_multiple_sort_keys(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { ?s ex:v ?v . ?s ex:tag ?t }
        ORDER BY DESC(?v) ?s
        """)
        assert [r["s"].local_name() for r in t] == ["b", "c", "a"]

    def test_unbound_sorts_first(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s ?t WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?t } }
        ORDER BY ?t ?s
        """)
        assert t.rows[0][0].local_name() == "d"  # no tag → first

    def test_offset_beyond_result(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { ?s ex:v ?v } OFFSET 100
        """)
        assert len(t) == 0

    def test_limit_zero(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { ?s ex:v ?v } LIMIT 0
        """)
        assert len(t) == 0


class TestAggregateEdgeCases:
    def test_sum_distinct(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT (SUM(DISTINCT ?v) AS ?total) WHERE { ?s ex:v ?v }
        """)
        assert t.to_python()[0]["total"] == 6  # 1+2+3, the 2 deduped

    def test_group_concat_with_separator(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT (GROUP_CONCAT(?t ; SEPARATOR=", ") AS ?tags)
        WHERE { ?s ex:tag ?t }
        """)
        tags = t.to_python()[0]["tags"]
        assert set(tags.split(", ")) == {"x", "x", "y"} or \
            tags.count(",") == 2

    def test_group_key_expression(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?parity (COUNT(?s) AS ?n) WHERE { ?s ex:v ?v }
        GROUP BY (?v / 2 AS ?parity)
        ORDER BY ?parity
        """)
        assert len(t) >= 2

    def test_having_on_alias_expression(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?t (SUM(?v) AS ?total) WHERE { ?s ex:tag ?t ; ex:v ?v }
        GROUP BY ?t
        HAVING(SUM(?v) >= 3)
        """)
        assert t.to_python() == [{"t": "x", "total": 3}] or len(t) == 1

    def test_count_inside_arithmetic_having(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?t WHERE { ?s ex:tag ?t ; ex:v ?v }
        GROUP BY ?t
        HAVING(COUNT(?s) * 2 > 2)
        """)
        assert [r["t"].lexical for r in t] == ["x"]


class TestBindChaining:
    def test_bind_feeds_later_patterns(self, endpoint):
        t = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s ?double ?quad WHERE {
          ?s ex:v ?v
          BIND(?v * 2 AS ?double)
          BIND(?double * 2 AS ?quad)
        } ORDER BY ?s
        """)
        first = t.to_python()[0]
        assert first["quad"] == first["double"] * 2


class TestHashBuild:
    """The join kernel's pairing (``grouped`` + ``_matched``) against
    per-entry bucketing: every probe key paired with exactly the
    extension tuples of its entries, probe keys in their order and a
    key's entries in the scan's, and no pair for an absent key."""

    @pytest.mark.parametrize("v_positions,n_positions,d_checks", [
        ([0], [2], []),          # the cube's shape: subject key, object out
        ([2], [0], []),          # many rows per key
        ([0], [], []),           # existence only
        ([0, 2], [1], []),       # composite key
        ([0], [1, 2], []),       # two new variables
        ([0], [1], [(2, 1)]),    # repeated new variable
    ])
    def test_matches_per_entry_reference(self, v_positions, n_positions,
                                         d_checks):
        import random

        import numpy as np

        from repro.sparql.evaluator_steps import _agreeing, _matched, grouped

        rng = random.Random(len(n_positions) * 7 + v_positions[0])
        for rows in (0, 1, 7, 300):
            triples = [(rng.randrange(40), rng.randrange(3),
                        rng.randrange(5)) for _ in range(rows)]
            arrays = tuple(np.array([t[i] for t in triples], dtype=np.int32)
                           for i in range(3))
            expected = {}
            for t in triples:
                if any(t[a] != t[b] for a, b in d_checks):
                    continue
                expected.setdefault(
                    tuple(t[p] for p in v_positions), []).append(
                    tuple(t[p] for p in n_positions))
            # every key of the build side, plus some it does not hold
            keys = [*expected, *[(41 + i,) * len(v_positions)
                                 for i in range(3)]]
            probe = [np.array([key[i] for key in keys], dtype=np.int64)
                     for i in range(len(v_positions))]
            build = grouped(_agreeing(arrays, d_checks), v_positions,
                            len(keys))
            paired, picked = _matched(build, v_positions, probe, len(keys))
            if paired is None:  # every key exactly once
                paired = np.arange(len(keys))
            found = [(keys[row], tuple(int(build.matches[p][entry])
                                       for p in n_positions))
                     for row, entry in zip(paired.tolist(), picked.tolist())]
            assert found == [(key, extension) for key in keys
                             for extension in expected.get(key, [])]


class TestDistinctBeforeDecode:
    """SELECT DISTINCT of plain variables (or ``*``) without ORDER BY
    takes its distinct rows at the id level and decodes only those:
    the same rows, in the same order, as the query without DISTINCT
    deduplicated term by term (first occurrence kept)."""

    PREFIX = "PREFIX ex: <http://example.org/>\n"

    def agree(self, endpoint, head, body, monkeypatch):
        from repro.sparql.evaluator_walker import PatternEvaluator
        decoded = []
        original = PatternEvaluator.decoded

        def counting(evaluator, table):
            decoded.append(len(table))
            return original(evaluator, table)

        plain = endpoint.select(f"{self.PREFIX}SELECT {head} {body}")
        monkeypatch.setattr(PatternEvaluator, "decoded", counting)
        distinct = endpoint.select(
            f"{self.PREFIX}SELECT DISTINCT {head} {body}")
        assert distinct.vars == plain.vars
        assert distinct.rows == list(dict.fromkeys(plain.rows))
        # and the decoder saw the answer, not the solutions
        assert decoded == [len(distinct)]
        return distinct

    def test_unbound_cells_are_values_like_any_other(self, endpoint,
                                                     monkeypatch):
        table = self.agree(endpoint, "?t ?l", """WHERE {
          ?s ex:v ?v OPTIONAL { ?s ex:tag ?t } OPTIONAL { ?s ex:link ?l }
        }""", monkeypatch)
        assert (None, None) in table.rows  # ex:d has neither
        assert len(table) == 4

    def test_a_projected_variable_the_pattern_never_binds(self, endpoint,
                                                          monkeypatch):
        table = self.agree(endpoint, "?t ?nowhere",
                           "WHERE { ?s ex:tag ?t }", monkeypatch)
        assert sorted(row[0].value for row in table.rows) == ["x", "y"]
        assert all(row[1] is None for row in table.rows)

    def test_no_projected_variable_is_bound_at_all(self, endpoint,
                                                   monkeypatch):
        table = self.agree(endpoint, "?nowhere", "WHERE { ?s ex:v ?v }",
                           monkeypatch)
        assert table.rows == [(None,)]
        empty = self.agree(endpoint, "?nowhere", "WHERE { ?s ex:none ?v }",
                           monkeypatch)
        assert empty.rows == []

    def test_union_with_overlapping_branches(self, endpoint, monkeypatch):
        table = self.agree(endpoint, "?s", """WHERE {
          { ?s ex:v 2 } UNION { ?s ex:tag "x" } UNION { ?s ex:link ?o }
        }""", monkeypatch)
        assert len(table) == 3  # b, c; a, b; a, c

    def test_star_projection(self, endpoint, monkeypatch):
        table = self.agree(endpoint, "*", """WHERE {
          { ?s ex:tag ?t } UNION { ?s ex:tag ?t . ?s ex:v ?v }
        }""", monkeypatch)
        assert table.vars == ["s", "t", "v"]
        assert len(table) == 6

    def test_computed_values_live_in_the_overlay_range(self, endpoint,
                                                       monkeypatch):
        # ?w takes two stored values (1 + 1 = 2 is interned, by ex:b)
        # and computed ones no graph holds: overlay ids, one per term
        table = self.agree(endpoint, "?w ?u", """WHERE {
          ?s ex:v ?v BIND(?v + 1 AS ?w) BIND(CONCAT("n", STR(?v)) AS ?u)
        }""", monkeypatch)
        assert sorted(row[0].value for row in table.rows) == [2, 3, 4]

    def test_offset_and_limit_cut_the_same_rows(self, endpoint,
                                                monkeypatch):
        plain = endpoint.select(self.PREFIX + """
        SELECT ?t WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?t } }""")
        cut = endpoint.select(self.PREFIX + """
        SELECT DISTINCT ?t WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?t } }
        OFFSET 1""")
        assert cut.rows == list(dict.fromkeys(plain.rows))[1:]

    def test_other_shapes_keep_the_term_level_tail(self, endpoint):
        ordered = endpoint.select(self.PREFIX + """
        SELECT DISTINCT ?t WHERE { ?s ex:tag ?t } ORDER BY DESC(?t)""")
        assert [row[0].value for row in ordered.rows] == ["y", "x"]
        computed = endpoint.select(self.PREFIX + """
        SELECT DISTINCT (?v * 0 AS ?zero) WHERE { ?s ex:v ?v }""")
        assert [row[0].value for row in computed.rows] == [0]
