"""SPARQL parser tests: structure of parsed queries and updates."""

import pytest

from repro.rdf import IRI, Literal
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    SelectQuery,
    SubSelectNode,
    Union,
    ValuesNode,
    Var,
    collect_triple_patterns,
)
from repro.sparql.errors import QuerySyntaxError
from repro.sparql.expressions import Aggregate, ComparisonExpression
from repro.sparql.parser import (
    ClearOp,
    CreateOp,
    DeleteDataOp,
    DropOp,
    InsertDataOp,
    ModifyOp,
    parse_document,
    parse_query,
    parse_update,
)


class TestSelectParsing:
    def test_minimal(self):
        query = parse_query("SELECT ?x WHERE { ?x a ?y }")
        assert isinstance(query, SelectQuery)
        assert query.output_names() == ["x"]
        patterns = collect_triple_patterns(query.pattern)
        assert len(patterns) == 1
        assert patterns[0].predicate == IRI(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

    def test_star_projection(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert query.projection is None
        assert query.output_names() == ["o", "p", "s"]

    def test_prefixes(self):
        query = parse_query("""
        PREFIX ex: <http://example.org/>
        SELECT ?x WHERE { ?x ex:p ex:o }
        """)
        pattern = collect_triple_patterns(query.pattern)[0]
        assert pattern.predicate == IRI("http://example.org/p")

    def test_predicate_object_lists(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <http://e/p> 1, 2 ; <http://e/q> 3 . }")
        assert len(collect_triple_patterns(query.pattern)) == 3

    def test_blank_node_property_list(self):
        query = parse_query(
            "PREFIX qb: <http://purl.org/linked-data/cube#>"
            "SELECT ?d WHERE { ?dsd qb:component [ qb:dimension ?d ] }")
        patterns = collect_triple_patterns(query.pattern)
        assert len(patterns) == 2

    def test_distinct_and_modifiers(self):
        query = parse_query("""
        SELECT DISTINCT ?x WHERE { ?x ?p ?o }
        ORDER BY DESC(?x) LIMIT 5 OFFSET 2
        """)
        assert query.distinct
        assert query.limit == 5
        assert query.offset == 2
        assert query.order_by[0][1] is False  # descending

    def test_aggregates_and_group_by(self):
        query = parse_query("""
        SELECT ?g (SUM(?v) AS ?total) (COUNT(DISTINCT ?x) AS ?n)
        WHERE { ?x <http://e/g> ?g ; <http://e/v> ?v }
        GROUP BY ?g HAVING(SUM(?v) > 10)
        """)
        assert query.is_aggregate_query
        assert query.output_names() == ["g", "total", "n"]
        assert isinstance(query.projection[1].expression, Aggregate)
        assert query.projection[2].expression.distinct
        assert len(query.having) == 1

    def test_optional_with_filter_condition(self):
        query = parse_query("""
        SELECT ?x WHERE {
          ?x a <http://e/T> .
          OPTIONAL { ?x <http://e/p> ?y FILTER(?y > 3) }
        }
        """)
        assert isinstance(query.pattern, LeftJoin)
        assert query.pattern.condition is not None

    def test_union(self):
        query = parse_query("""
        SELECT ?x WHERE {
          { ?x a <http://e/A> } UNION { ?x a <http://e/B> }
        }
        """)
        assert isinstance(query.pattern, Union)

    def test_minus(self):
        query = parse_query("""
        SELECT ?x WHERE { ?x ?p ?o MINUS { ?x a <http://e/Bad> } }
        """)
        assert isinstance(query.pattern, Minus)

    def test_bind_and_values(self):
        query = parse_query("""
        SELECT ?y WHERE {
          VALUES ?x { 1 2 3 }
          BIND(?x * 2 AS ?y)
        }
        """)
        assert isinstance(query.pattern, Extend)
        values = query.pattern.child
        assert isinstance(values, Join) or isinstance(values, ValuesNode)

    def test_values_tuple_form(self):
        query = parse_query("""
        SELECT * WHERE { VALUES (?a ?b) { (1 2) (UNDEF 3) } }
        """)
        values = query.pattern
        assert isinstance(values, ValuesNode)
        assert values.rows[1][0] is None

    def test_graph_clause(self):
        query = parse_query("""
        SELECT ?s WHERE { GRAPH <http://e/g> { ?s ?p ?o } }
        """)
        assert isinstance(query.pattern, GraphNode)

    def test_graph_var(self):
        query = parse_query("SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }")
        assert isinstance(query.pattern.name, Var)

    def test_subselect(self):
        query = parse_query("""
        SELECT ?g ?n WHERE {
          { SELECT ?g (COUNT(?x) AS ?n) WHERE { ?x <http://e/g> ?g }
            GROUP BY ?g }
          FILTER(?n > 1)
        }
        """)
        assert isinstance(query.pattern, Filter)
        assert isinstance(query.pattern.child, SubSelectNode)

    def test_filter_exists(self):
        query = parse_query("""
        SELECT ?x WHERE {
          ?x a <http://e/T>
          FILTER EXISTS { ?x <http://e/p> ?y }
        }
        """)
        assert isinstance(query.pattern, Filter)

    def test_filter_not_exists(self):
        query = parse_query("""
        SELECT ?x WHERE {
          ?x a <http://e/T>
          FILTER NOT EXISTS { ?x <http://e/p> ?y }
        }
        """)
        assert isinstance(query.pattern, Filter)

    def test_expression_precedence(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <http://e/v> ?v "
            "FILTER(?v > 1 && ?v < 10 || ?v = 99) }")
        condition = query.pattern.condition
        # || binds loosest
        assert condition.op == "||"

    def test_in_expression(self):
        query = parse_query(
            'SELECT ?x WHERE { ?x <http://e/v> ?v FILTER(?v IN (1, 2)) }')
        assert query.pattern.condition is not None

    def test_ask(self):
        query = parse_query("ASK { ?s ?p ?o }")
        assert isinstance(query, AskQuery)

    def test_from_clauses(self):
        query = parse_query("""
        SELECT ?s FROM <http://e/g1> FROM NAMED <http://e/g2>
        WHERE { ?s ?p ?o }
        """)
        assert query.from_graphs == [IRI("http://e/g1")]
        assert query.from_named == [IRI("http://e/g2")]

    def test_group_by_expression_alias(self):
        query = parse_query("""
        SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x <http://e/v> ?v }
        GROUP BY (STR(?v) AS ?y)
        """)
        assert query.group_aliases == {0: "y"}

    def test_syntax_errors(self):
        for bad in [
            "SELECT WHERE { ?s ?p ?o }",       # empty projection
            "SELECT ?x { ?x ?p ?o ",            # unterminated group
            "SELECT ?x WHERE { ?x ?p }",        # incomplete triple
            "FOO ?x WHERE { ?s ?p ?o }",        # unknown form
            "SELECT ?x WHERE { ?s ?p ?o } LIMIT ?x",  # bad limit
            "SELECT ?x WHERE { ?s nosuchprefix:p ?o }",
        ]:
            with pytest.raises(QuerySyntaxError):
                parse_query(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?x WHERE { ?s ?p ?o } garbage")


class TestUpdateParsing:
    def test_insert_data(self):
        ops = parse_update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p ex:b . ex:a ex:q 5 }
        """)
        assert len(ops) == 1
        assert isinstance(ops[0], InsertDataOp)
        assert len(ops[0].quads) == 2

    def test_insert_data_with_graph(self):
        ops = parse_update("""
        INSERT DATA { GRAPH <http://e/g> { <http://e/a> <http://e/p> 1 } }
        """)
        graph, s, p, o = ops[0].quads[0]
        assert graph == IRI("http://e/g")

    def test_insert_data_rejects_variables(self):
        with pytest.raises(QuerySyntaxError):
            parse_update("INSERT DATA { ?x <http://e/p> 1 }")

    @pytest.mark.parametrize("request_text,message,got,line", [
        ("DELETE DATA {\n <http://e/a> <http://e/p> 1 .\n"
         " _:b <http://e/p> 2 .\n <http://e/c> <http://e/p> 3 .\n}",
         "blank nodes are not allowed in DELETE DATA", "_:b", 3),
        ("DELETE DATA {\n <http://e/a> <http://e/p> 1 .\n"
         " <http://e/a> <http://e/q> [ <http://e/r> 2 ]\n}",
         "blank nodes are not allowed in DELETE DATA", "[", 3),
        ("DELETE DATA {\n <http://e/a> <http://e/p>\n"
         " ( <http://e/b> ) }",
         "blank nodes are not allowed in DELETE DATA", "(", 3),
        ("INSERT DATA {\n <http://e/a> <http://e/p> 1 .\n"
         " <http://e/a> <http://e/p> ?x .\n <http://e/c> <http://e/p> 3\n}",
         "variables are not allowed in DATA blocks", "?x", 3),
        ("INSERT DATA {\n <http://e/a> <http://e/p> 1 .\n\n"
         " <http://e/a> ?p 2 }",
         "variables are not allowed in DATA blocks", "?p", 4),
    ], ids=["blank-label", "anonymous-node", "collection", "variable",
            "predicate-variable"])
    def test_data_block_error_names_the_term(self, request_text, message,
                                             got, line):
        """The offending term and its own line, not the token after
        the block."""
        with pytest.raises(QuerySyntaxError) as info:
            parse_update(request_text)
        assert str(info.value) == f"{message}, got {got!r} (line {line})"
        assert info.value.line == line

    def test_document_error_names_the_variable(self):
        with pytest.raises(QuerySyntaxError) as info:
            parse_document("<http://e/a> <http://e/p> 1 .\n"
                           "<http://e/b> <http://e/p> ?x .\n"
                           "<http://e/c> <http://e/p> 3 .\n")
        assert str(info.value) == ("variables are not allowed in DATA "
                                   "blocks, got '?x' (line 2)")

    def test_delete_data(self):
        ops = parse_update(
            "DELETE DATA { <http://e/a> <http://e/p> <http://e/b> }")
        assert isinstance(ops[0], DeleteDataOp)

    def test_modify_insert_where(self):
        ops = parse_update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?x ex:flag true } WHERE { ?x a ex:T }
        """)
        assert isinstance(ops[0], ModifyOp)
        assert ops[0].insert_quads and not ops[0].delete_quads

    def test_modify_delete_insert_where(self):
        ops = parse_update("""
        PREFIX ex: <http://example.org/>
        DELETE { ?x ex:old ?v } INSERT { ?x ex:new ?v }
        WHERE { ?x ex:old ?v }
        """)
        operation = ops[0]
        assert operation.delete_quads and operation.insert_quads

    def test_delete_where_shortcut(self):
        ops = parse_update(
            "DELETE WHERE { ?x <http://e/p> ?v }")
        operation = ops[0]
        assert operation.delete_quads
        assert operation.pattern is not None

    def test_with_graph(self):
        ops = parse_update("""
        WITH <http://e/g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }
        """)
        assert ops[0].with_graph == IRI("http://e/g")

    def test_clear_create_drop(self):
        ops = parse_update("""
        CLEAR GRAPH <http://e/g> ;
        CREATE GRAPH <http://e/h> ;
        DROP DEFAULT ;
        CLEAR ALL
        """)
        assert isinstance(ops[0], ClearOp)
        assert isinstance(ops[1], CreateOp)
        assert isinstance(ops[2], DropOp)
        assert ops[2].target == "DEFAULT"
        assert ops[3].target == "ALL"

    def test_empty_update_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_update("   ")


class TestDocumentParsing:
    def test_quads_and_declared_prefixes(self):
        quads, prefixes = parse_document("""
        @prefix ex: <http://example.org/> .
        PREFIX g: <http://example.org/graphs/>
        ex:a ex:p 1 .
        GRAPH g:one { ex:a ex:p 2 }
        """)
        assert prefixes == {"ex": "http://example.org/",
                            "g": "http://example.org/graphs/"}
        assert [(graph, o) for graph, _s, _p, o in quads] == [
            (None, Literal(1)),
            (IRI("http://example.org/graphs/one"), Literal(2))]

    def test_no_default_prefixes(self):
        with pytest.raises(QuerySyntaxError, match="undefined prefix"):
            parse_document("rdf:a rdf:p rdf:b .")

    def test_collection_pattern_shape(self):
        query = parse_query("SELECT ?s WHERE { ?s <http://e/p> (1 ?x) }")
        patterns = collect_triple_patterns(query.pattern)
        assert len(patterns) == 5
        assert sum(isinstance(p.object, Var) and p.object.name == "x"
                   for p in patterns) == 1

    def test_queries_take_no_turtle_prologue(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("@prefix ex: <http://e/> . SELECT * { ?s ?p ?o }")
