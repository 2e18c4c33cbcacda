"""Run the QB4OLAP rows of ``repro.qb.constraints`` the way
``repro validate`` does: over one graph holding the schema and the
level instances."""

from repro.data.namespaces import INSTANCE_GRAPH, SCHEMA_GRAPH
from repro.qb import (
    ConstraintReport,
    check_constraint,
    cube_constraint_checks,
)
from repro.rdf.graph import UnionView


def cube_graph(endpoint, schema_graph=SCHEMA_GRAPH,
               instance_graph=INSTANCE_GRAPH):
    """A mutable copy of the endpoint's schema and instance graphs."""
    return UnionView(endpoint.dataset, [
        endpoint.graph(schema_graph),
        endpoint.graph(instance_graph)]).copy()


def cube_report(graph, dsd, tolerance=0.0):
    """Every QB4OLAP row's verdict for the cube whose DSD is ``dsd``."""
    report = ConstraintReport()
    for check in cube_constraint_checks(dsd, functional_tolerance=tolerance):
        report.results[check.ic] = check_constraint(graph, check)
    return report
