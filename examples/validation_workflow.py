"""Validating QB input the way the W3C spec defines it.

QB2OLAP presumes a well-formed QB data set before enrichment starts.
The Data Cube recommendation makes "well-formed" precise: normalize the
graph (§10, two phases of SPARQL INSERTs), then run 21 integrity
constraints, each a SPARQL ASK query (§11).  This example runs that
pipeline on the synthetic Eurostat cube with the in-repo engine:

1. normalize a copy of the QB graph and show what closure added;
2. run the full IC suite — the raw cube violates IC-4 (dimensions
   without ``rdfs:range``), faithfully reproducing the real
   linked-statistics dump's metadata gap;
3. repair the gap the way a publisher would (one INSERT per dimension)
   and show the suite turn green;
4. contrast the spec's quadratic IC-12 SPARQL with the linear,
   value-keyed duplicate check the suite runs instead;
5. snapshot the endpoint to TriG.

Run:  python examples/validation_workflow.py
"""

import time

from repro.data import small_demo
from repro.data.namespaces import QB_GRAPH
from repro.qb.constraints import (
    IC12_PAIRWISE,
    ConstraintCheck,
    check_constraint,
    check_graph,
    has_duplicate_observations,
)
from repro.qb.normalize import normalize_graph


def main() -> None:
    demo = small_demo(observations=400)
    qb_graph = demo.endpoint.graph(QB_GRAPH)

    print("=== 1. Normalization (spec §10) ===")
    working = qb_graph.copy()
    before = len(working)
    added = normalize_graph(working)
    print(f"  {before} triples, +{added} from type/property closure")
    print(f"  idempotent: second run adds {normalize_graph(working)}")
    print()

    print("=== 2. The 21 integrity constraints as SPARQL ASK (spec §11) ===")
    report = check_graph(working, include_expensive=True)
    for line in str(report).splitlines():
        print(f"  {line}")
    print()
    assert report.violations == ["IC-4"], report.violations
    print("  -> IC-4 fires: like the real Eurostat dump, the dimension")
    print("     properties declare no rdfs:range.")
    print()

    print("=== 3. Repair the metadata gap and re-validate ===")
    from repro.rdf.graph import Dataset
    from repro.sparql.endpoint import LocalEndpoint

    scratch = Dataset()
    scratch.default = working
    publisher = LocalEndpoint(scratch, default_as_union=False)
    repaired = publisher.update("""
        PREFIX qb:   <http://purl.org/linked-data/cube#>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        INSERT { ?dim rdfs:range rdfs:Resource . }
        WHERE  {
            ?dim a qb:DimensionProperty .
            FILTER NOT EXISTS { ?dim rdfs:range ?any }
        }
    """)
    print(f"  added {repaired} rdfs:range triples")
    report = check_graph(working, include_expensive=True)
    print(f"  well-formed now: {report.well_formed}")
    print()

    print("=== 4. IC-12 ablation: spec SPARQL vs linear check ===")
    pairwise = ConstraintCheck("IC-12", "pairwise", [IC12_PAIRWISE])
    started = time.perf_counter()
    sparql_verdict = check_constraint(working, pairwise)
    sparql_seconds = time.perf_counter() - started
    started = time.perf_counter()
    linear_verdict = has_duplicate_observations(working)
    linear_seconds = time.perf_counter() - started
    print(f"  spec SPARQL (pairwise):  {sparql_seconds:7.3f}s "
          f"-> violated={sparql_verdict}")
    print(f"  linear (value-keyed):    {linear_seconds:7.4f}s "
          f"-> violated={linear_verdict}")
    print("  (check_graph() runs the linear check, so big cubes get IC-12)")
    print()

    print("=== 5. TriG snapshot ===")
    snapshot = demo.endpoint.dump_trig()
    print(f"  endpoint snapshot: {len(snapshot.splitlines())} TriG lines "
          f"across {len(demo.endpoint.graph_sizes())} graphs")
    print("  (restore with LocalEndpoint().load_trig(snapshot))")


if __name__ == "__main__":
    main()
