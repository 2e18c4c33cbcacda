"""N-Triples 1.1 serialization.

N-Triples is the line-oriented exchange format: one triple per line, full
IRIs, no prefixes.  Being a subset of Turtle, it is read by the SPARQL
parser's triples grammar (``LocalEndpoint.load_trig``).
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.terms import triple_sort_key


def serialize_ntriples(graph: Graph, sort: bool = True) -> str:
    """Serialize ``graph`` as N-Triples text.

    With ``sort=True`` (default) the output is deterministic, which keeps
    test fixtures and golden files stable.
    """
    triples = list(graph)
    if sort:
        triples.sort(key=triple_sort_key)
    lines = [triple.n3() for triple in triples]
    return "\n".join(lines) + ("\n" if lines else "")
