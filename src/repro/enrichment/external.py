"""External linked-data sources for enrichment.

The demo shows that "in the presence of linked data sets, our tool is
able to extract dimensional information (schema and instances) from
other data sets (e.g., DBpedia)".  This module implements that path:
an :class:`ExternalSource` wraps a second endpoint (offline, the
DBpedia stand-in built by :mod:`repro.data.reference`), and
:func:`import_member_triples` copies the triples describing a member
set into the local endpoint so later phases are self-contained.

A source-side failure reaches the caller as the source endpoint's typed
:class:`~repro.sparql.errors.EndpointError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term, Triple
from repro.sparql.endpoint import LocalEndpoint
from repro.data.namespaces import REFERENCE_GRAPH


@dataclass
class ExternalSource:
    """A remote linked-data endpoint (simulated locally)."""

    name: str
    endpoint: LocalEndpoint

    @classmethod
    def from_graph(cls, name: str, graph: Graph) -> "ExternalSource":
        endpoint = LocalEndpoint()
        endpoint.insert_triples(graph)
        return cls(name, endpoint)

    def describe_member(self, member: Term) -> List[Triple]:
        """All triples with ``member`` as subject (a CBD-lite)."""
        if not isinstance(member, IRI):
            return []
        table = self.endpoint.select(
            f"SELECT ?p ?v WHERE {{ <{member.value}> ?p ?v }}")
        triples: List[Triple] = []
        for row in table:
            predicate = row.get("p")
            value = row.get("v")
            if isinstance(predicate, IRI) and value is not None:
                triples.append(Triple(member, predicate, value))
        return triples


def import_member_triples(local: LocalEndpoint,
                          source: ExternalSource,
                          members: Sequence[Term],
                          target_graph: IRI = REFERENCE_GRAPH,
                          follow_objects: bool = True) -> int:
    """Copy external descriptions of ``members`` into ``local``.

    With ``follow_objects`` the IRI objects of the imported triples are
    described too (one hop), so discovered parent members arrive with
    their own attributes — e.g. importing countries also brings each
    continent's ``continentName``.
    """
    imported: List[Triple] = []
    frontier: List[Term] = list(members)
    described: set = set()
    hops = 2 if follow_objects else 1
    for _ in range(hops):
        next_frontier: List[Term] = []
        for member in frontier:
            if member in described:
                continue
            described.add(member)
            for triple in source.describe_member(member):
                imported.append(triple)
                if isinstance(triple.object, IRI) \
                        and triple.object not in described:
                    next_frontier.append(triple.object)
        frontier = next_frontier
    return local.insert_triples(imported, graph=target_graph)
