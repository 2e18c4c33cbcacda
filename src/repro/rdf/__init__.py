"""RDF substrate: terms, namespaces, graphs and serializations.

This package replaces the Jena library used by the paper's Java
implementation.  It provides exactly what QB2OLAP needs from an RDF
stack: immutable terms, an indexed in-memory graph with pattern
matching, named-graph datasets, and Turtle / TriG / N-Triples writers
(the SPARQL parser reads those documents back).

Quick tour:

>>> from repro.rdf import Graph, IRI, Literal, Namespace
>>> EX = Namespace("http://example.org/")
>>> g = Graph()
>>> _ = g.add(EX.nigeria, EX.partOf, EX.africa)
>>> (EX.nigeria, EX.partOf, EX.africa) in g
True
"""

from repro.rdf.concurrency import (
    CONCURRENCY,
    ConcurrencyTelemetry,
    CountedRLock,
)
from repro.rdf.dictionary import DictionaryOverlay, TermDictionary
from repro.rdf.errors import RDFError, SerializationError, TermError
from repro.rdf.graph import (
    Dataset,
    DatasetSnapshot,
    Graph,
    GraphSnapshot,
    TriplePattern,
    UnionView,
)
from repro.rdf.namespace import (
    DCT,
    DEFAULT_PREFIXES,
    FOAF,
    Namespace,
    NamespaceManager,
    OWL,
    QB,
    QB4O,
    RDF,
    RDFS,
    SDMX_ATTRIBUTE,
    SDMX_CODE,
    SDMX_CONCEPT,
    SDMX_DIMENSION,
    SDMX_MEASURE,
    SKOS,
    XSD,
)
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.stats import GraphStats, StatisticsView
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    Triple,
    make_triple,
    term_sort_key,
    triple_sort_key,
)
from repro.rdf.trig import serialize_trig
from repro.rdf.turtle import serialize_turtle

__all__ = [
    "BNode",
    "CONCURRENCY",
    "ConcurrencyTelemetry",
    "CountedRLock",
    "DCT",
    "DEFAULT_PREFIXES",
    "Dataset",
    "DatasetSnapshot",
    "DictionaryOverlay",
    "FOAF",
    "Graph",
    "GraphSnapshot",
    "GraphStats",
    "IRI",
    "Literal",
    "Namespace",
    "NamespaceManager",
    "OWL",
    "QB",
    "QB4O",
    "RDF",
    "RDFError",
    "RDFS",
    "SDMX_ATTRIBUTE",
    "SDMX_CODE",
    "SDMX_CONCEPT",
    "SDMX_DIMENSION",
    "SDMX_MEASURE",
    "SKOS",
    "SerializationError",
    "StatisticsView",
    "Term",
    "TermDictionary",
    "TermError",
    "Triple",
    "TriplePattern",
    "UnionView",
    "XSD",
    "make_triple",
    "serialize_ntriples",
    "serialize_trig",
    "serialize_turtle",
    "term_sort_key",
    "triple_sort_key",
]
