"""Level-instance collection (the query side of the Enrichment Phase).

The paper: "the Enrichment Phase collects the level instances and their
properties.  A query is run for each level instance and the results are
processed to discover the properties that represent functional
dependencies."  These helpers issue exactly those SPARQL queries
against the endpoint, so the endpoint's query log reflects the same
workload profile as the paper's tool against Virtuoso.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.rdf.terms import IRI, Term
from repro.sparql.endpoint import LocalEndpoint


def collect_bottom_members(endpoint: LocalEndpoint, dataset: IRI,
                           dimension_property: IRI) -> List[Term]:
    """Distinct observation values of one QB dimension property."""
    query = f"""
    PREFIX qb: <http://purl.org/linked-data/cube#>
    SELECT DISTINCT ?member WHERE {{
        ?obs qb:dataSet <{dataset.value}> .
        ?obs <{dimension_property.value}> ?member .
    }}
    """
    table = endpoint.select(query)
    members = [row["member"] for row in table if "member" in row]
    return sorted(members, key=lambda term: getattr(term, "value", str(term)))


def member_properties(endpoint: LocalEndpoint, member: Term
                      ) -> Dict[IRI, List[Term]]:
    """All (predicate → values) of one member — one query per instance."""
    if not isinstance(member, IRI):
        return {}
    query = f"""
    SELECT ?p ?v WHERE {{ <{member.value}> ?p ?v . }}
    """
    table = endpoint.select(query)
    properties: Dict[IRI, List[Term]] = {}
    for row in table:
        predicate = row.get("p")
        value = row.get("v")
        if isinstance(predicate, IRI) and value is not None:
            properties.setdefault(predicate, []).append(value)
    return properties


def collect_member_property_table(
        endpoint: LocalEndpoint, members: Sequence[Term]
) -> Dict[IRI, Dict[Term, List[Term]]]:
    """Property → (member → values) over a whole member set.

    Issues one query per member, mirroring the paper's workflow; the
    endpoint statistics therefore count ``len(members)`` SELECTs for
    this phase.
    """
    table: Dict[IRI, Dict[Term, List[Term]]] = {}
    for member in members:
        for predicate, values in member_properties(endpoint, member).items():
            table.setdefault(predicate, {})[member] = values
    return table
