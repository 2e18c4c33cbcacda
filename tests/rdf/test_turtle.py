"""Turtle read through ``LocalEndpoint.load_trig`` (the SPARQL
parser's triples grammar) and the Turtle serializer, including the
paper's own snippets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BNode,
    Graph,
    IRI,
    Literal,
    Namespace,
    QB,
    QB4O,
    RDF,
    serialize_turtle,
)
from repro.sparql import LocalEndpoint, QuerySyntaxError

EX = Namespace("http://example.org/")
XSD = "http://www.w3.org/2001/XMLSchema#"


def parse_turtle(text: str) -> Graph:
    """The default graph an endpoint holds after loading ``text``."""
    endpoint = LocalEndpoint()
    endpoint.load_trig(text)
    return endpoint.dataset.default


class TestParseBasics:
    def test_prefixes_and_a(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        ex:alice a ex:Person ; ex:knows ex:bob, ex:carol .
        """)
        assert len(g) == 3
        assert (EX.alice, RDF.type, EX.Person) in g
        assert (EX.alice, EX.knows, EX.bob) in g

    def test_sparql_style_prefix(self):
        g = parse_turtle("""
        PREFIX ex: <http://example.org/>
        ex:a ex:p ex:b .
        """)
        assert (EX.a, EX.p, EX.b) in g

    def test_base_resolution(self):
        g = parse_turtle("""
        @base <http://example.org/page> .
        <#frag> <other> <http://absolute.org/x> .
        """)
        triple = next(iter(g))
        assert triple.subject == IRI("http://example.org/page#frag")
        assert triple.predicate == IRI("http://example.org/other")

    def test_literals(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:x ex:string "plain" ;
             ex:lang "hello"@en ;
             ex:int 42 ;
             ex:dec 4.5 ;
             ex:dbl 1.0e3 ;
             ex:neg -7 ;
             ex:bool true ;
             ex:typed "1999"^^xsd:gYear .
        """)
        objects = {t.predicate.local_name(): t.object for t in g}
        assert objects["string"] == Literal("plain")
        assert objects["lang"].language == "en"
        assert objects["int"].value == 42
        assert float(objects["dec"].value) == 4.5
        assert objects["dbl"].value == 1000.0
        assert objects["neg"].value == -7
        assert objects["bool"].value is True
        assert objects["typed"].datatype.value.endswith("gYear")

    def test_long_strings(self):
        g = parse_turtle(
            '@prefix ex: <http://example.org/> .\n'
            'ex:x ex:text """line one\nline "two" here""" .')
        literal = next(iter(g)).object
        assert literal.lexical == 'line one\nline "two" here'

    def test_blank_node_property_list(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        ex:dsd ex:component [ ex:dimension ex:time ; ex:order 1 ] .
        """)
        assert len(g) == 3
        node = next(iter(g.objects(EX.dsd, EX.component)))
        assert isinstance(node, BNode)
        assert (node, EX.dimension, EX.time) in g

    def test_nested_blank_nodes(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:p [ ex:q [ ex:r ex:b ] ] .
        """)
        assert len(g) == 3

    def test_collections(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:list (ex:x ex:y) .
        """)
        head = next(iter(g.objects(EX.a, EX.list)))
        assert (head, RDF.first, EX.x) in g
        rest = next(iter(g.objects(head, RDF.rest)))
        assert (rest, RDF.first, EX.y) in g
        assert (rest, RDF.rest, RDF.nil) in g

    def test_empty_collection_is_nil(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:list () .
        """)
        assert (EX.a, EX.list, RDF.nil) in g

    def test_collection_as_subject(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        (ex:x) ex:p ex:o .
        """)
        head = next(iter(g.subjects(EX.p, EX.o)))
        assert (head, RDF.first, EX.x) in g
        assert (head, RDF.rest, RDF.nil) in g

    def test_shared_bnode_labels(self):
        g = parse_turtle("""
        @prefix ex: <http://example.org/> .
        _:n ex:p ex:a .
        _:n ex:p ex:b .
        """)
        assert len(set(g.subjects())) == 1

    def test_bnode_labels_are_fresh_per_document(self):
        endpoint = LocalEndpoint()
        document = "_:n <http://example.org/p> <http://example.org/a> ."
        endpoint.load_trig(document)
        endpoint.load_trig(document)
        assert len(set(endpoint.dataset.default.subjects())) == 2

    def test_prefixes_are_bound(self):
        endpoint = LocalEndpoint()
        endpoint.load_trig("@prefix zz: <http://zz.example/> .\n"
                           "PREFIX yy: <http://yy.example/>\n"
                           "zz:a yy:p zz:b .")
        manager = endpoint.dataset.namespace_manager
        assert manager.namespace_for("zz") == "http://zz.example/"
        assert manager.namespace_for("yy") == "http://yy.example/"
        assert endpoint.statistics.triples_inserted == 1

    def test_errors(self):
        with pytest.raises(QuerySyntaxError):
            parse_turtle("ex:a ex:p ex:b .")  # undefined prefix
        with pytest.raises(QuerySyntaxError):
            parse_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b")  # no dot
        with pytest.raises(QuerySyntaxError):
            parse_turtle('@prefix ex: <http://e/> . "lit" ex:p ex:b .')
        with pytest.raises(QuerySyntaxError):
            parse_turtle("@prefix ex: <http://e/> ex:a ex:p ex:b .")
        with pytest.raises(QuerySyntaxError):
            parse_turtle("<http://e/a> .")  # no predicate
        with pytest.raises(QuerySyntaxError):
            parse_turtle("<http://e/a> ?p <http://e/b> .")  # variable

    def test_failed_document_loads_nothing(self):
        endpoint = LocalEndpoint()
        with pytest.raises(QuerySyntaxError, match="line 2"):
            endpoint.load_trig("<http://e/a> <http://e/p> 1 .\n"
                               "<http://e/a> <http://e/p> .")
        assert len(endpoint.dataset) == 0
        assert endpoint.statistics.triples_inserted == 0


class TestPaperSnippets:
    """The exact Turtle fragments printed in the paper (§II)."""

    QB_SNIPPET = """
    @prefix qb: <http://purl.org/linked-data/cube#> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    @prefix sdmx-dimension: <http://purl.org/linked-data/sdmx/2009/dimension#> .
    @prefix sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#> .
    @prefix property: <http://eurostat.linked-statistics.org/property#> .
    @prefix dsd: <http://eurostat.linked-statistics.org/dsd#> .
    dsd:migr_asyappctzm rdf:type qb:DataStructureDefinition ;
        qb:component [ qb:dimension sdmx-dimension:refPeriod ] ;
        qb:component [ qb:dimension property:age ] ;
        qb:component [ qb:dimension property:citizen ] ;
        qb:component [ qb:measure sdmx-measure:obsValue ] .
    """

    QB4O_SNIPPET = """
    @prefix qb: <http://purl.org/linked-data/cube#> .
    @prefix qb4o: <http://purl.org/qb4olap/cubes#> .
    @prefix sdmx-dimension: <http://purl.org/linked-data/sdmx/2009/dimension#> .
    @prefix sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#> .
    @prefix property: <http://eurostat.linked-statistics.org/property#> .
    @prefix schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#> .
    schema:migr_asyappctzmQB4O a qb:DataStructureDefinition ;
        qb:component [ qb4o:level sdmx-dimension:refPeriod ;
                       qb4o:cardinality qb4o:ManyToOne ] ;
        qb:component [ qb4o:level property:citizen ;
                       qb4o:cardinality qb4o:ManyToOne ] ;
        qb:component [ qb:measure sdmx-measure:obsValue ;
                       qb4o:aggregateFunction qb4o:sum ] .
    """

    HIERARCHY_SNIPPET = """
    @prefix qb: <http://purl.org/linked-data/cube#> .
    @prefix qb4o: <http://purl.org/qb4olap/cubes#> .
    @prefix property: <http://eurostat.linked-statistics.org/property#> .
    @prefix schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#> .
    @prefix : <http://www.fing.edu.uy/inco/cubes/instances/migr_asyapp#> .
    schema:citizenshipDim a qb:DimensionProperty ;
        qb4o:hasHierarchy schema:citizenshipGeoHier .
    schema:citizenshipGeoHier a qb4o:Hierarchy ;
        qb4o:inDimension schema:citizenshipDim ;
        qb4o:hasLevel property:citizen, schema:continent, schema:citAll .
    :ih45 a qb4o:HierarchyStep ;
        qb4o:inHierarchy schema:citizenshipGeoHier ;
        qb4o:childLevel property:citizen ;
        qb4o:parentLevel schema:continent ;
        qb4o:pcCardinality qb4o:ManyToOne .
    """

    def test_qb_snippet(self):
        g = parse_turtle(self.QB_SNIPPET)
        dsd = IRI("http://eurostat.linked-statistics.org/dsd#migr_asyappctzm")
        assert (dsd, RDF.type, QB.DataStructureDefinition) in g
        assert len(list(g.objects(dsd, QB.component))) == 4

    def test_qb4o_snippet(self):
        g = parse_turtle(self.QB4O_SNIPPET)
        levels = list(g.subjects(QB4O.cardinality, QB4O.ManyToOne))
        assert len(levels) == 2
        assert (None, QB4O.aggregateFunction, QB4O.sum) in [
            (None, t.predicate, t.object) for t in g
            if t.predicate == QB4O.aggregateFunction]

    def test_hierarchy_snippet(self):
        g = parse_turtle(self.HIERARCHY_SNIPPET)
        hier = IRI("http://www.fing.edu.uy/inco/cubes/schemas/"
                   "migr_asyapp#citizenshipGeoHier")
        assert len(list(g.objects(hier, QB4O.hasLevel))) == 3
        steps = list(g.subjects(RDF.type, QB4O.HierarchyStep))
        assert len(steps) == 1


class TestRoundTrip:
    def test_serializer_output_reparses(self):
        g = Graph()
        g.bind("ex", EX)
        g.add(EX.a, RDF.type, EX.Widget)
        g.add(EX.a, EX.count, Literal(5))
        g.add(EX.a, EX.label, Literal("héllo", language="fr"))
        g.add(EX.a, EX.weight, Literal("2.5", datatype=str(
            IRI("http://www.w3.org/2001/XMLSchema#decimal"))))
        text = serialize_turtle(g)
        assert parse_turtle(text) == g

    def test_type_first_and_prefix_header(self):
        g = Graph()
        g.bind("ex", EX)
        g.add(EX.a, EX.z_last, EX.b)
        g.add(EX.a, RDF.type, EX.Widget)
        text = serialize_turtle(g)
        assert text.index("a ex:Widget") < text.index("ex:z_last")
        assert "@prefix ex:" in text

    @pytest.mark.parametrize("lexical,datatype,bare", [
        ("5", "decimal", False),
        ("5.", "decimal", False),
        ("-.5", "decimal", True),
        ("1", "boolean", False),
        ("0", "boolean", False),
        ("false", "boolean", True),
        ("+7", "integer", True),
        ("7.0", "integer", False),
    ])
    def test_dump_keeps_the_datatype(self, lexical, datatype, bare):
        """A literal is written bare only when its lexical form is the
        Turtle shorthand for its datatype; any other form is quoted, so
        ``dump_trig`` → ``load_trig`` gives back the same literal."""
        literal = Literal(lexical, datatype=XSD + datatype)
        endpoint = LocalEndpoint()
        endpoint.insert_triples([(EX.a, EX.p, literal)])
        text = endpoint.dump_trig()
        assert (f"ex:p {lexical} ." in text
                or f"<{EX.p.value}> {lexical} ." in text) == bare
        copy = LocalEndpoint()
        copy.load_trig(text)
        assert list(copy.dataset.default.objects(EX.a, EX.p)) == [literal]

    def test_deterministic(self):
        g = Graph()
        g.bind("ex", EX)
        for i in range(10):
            g.add(EX[f"s{i}"], EX.p, Literal(i))
        assert serialize_turtle(g) == serialize_turtle(g.copy())


# -- property-based: serialize ∘ parse == identity ------------------------------

local_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)),
    min_size=1, max_size=8)
iris = local_names.map(lambda s: EX[s])
literals = st.one_of(
    st.text(max_size=20).map(Literal),
    st.integers(-999, 999).map(Literal),
    st.booleans().map(Literal),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)),
        min_size=1, max_size=8).map(lambda s: Literal(s, language="en")),
)
objects = st.one_of(iris, literals)


@settings(max_examples=50)
@given(st.lists(st.tuples(iris, iris, objects), max_size=20))
def test_turtle_roundtrip(entries):
    g = Graph()
    g.bind("ex", EX)
    for s, p, o in entries:
        g.add(s, p, o)
    assert parse_turtle(serialize_turtle(g)) == g
