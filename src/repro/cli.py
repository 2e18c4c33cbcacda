"""Command-line front end: the QB2OLAP tool without the GUI.

Drives the same workflow as the paper's demo, against a self-contained
session directory: the endpoint state is rebuilt from seeded generators
(deterministic), enriched, and queried.

Subcommands::

    python -m repro demo                    # full §IV storyline
    python -m repro enrich [--noise R]      # enrichment + tree view
    python -m repro explore                 # catalog + clusters + stats
    python -m repro query  [--ql FILE] [--variant direct|optimized|auto]
    python -m repro sparql --query FILE     # raw SPARQL on the endpoint
    python -m repro validate                # W3C IC suite + QB4OLAP checks

All subcommands accept ``--observations`` (default 5000) and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.data.namespaces import SCHEMA
from repro.demo import MARY_QL, prepare_enriched_demo
from repro.enrichment import EnrichmentConfig
from repro.ql.ast import QLSyntaxError
from repro.ql.checker import QLSemanticError
from repro.sparql.errors import SPARQLError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--observations", type=int, default=5_000,
                        help="synthetic cube size (paper subset: 80000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--noise", type=float, default=0.0,
                        help="reference-graph noise rate (quasi-FDs)")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="quasi-FD error threshold for discovery")
    parser.add_argument("--full-size", action="store_true",
                        help="use the full country tables instead of the "
                             "stratified small subset")


def _prepare(args: argparse.Namespace):
    config = EnrichmentConfig(quasi_fd_threshold=args.threshold)
    return prepare_enriched_demo(
        observations=args.observations,
        seed=args.seed,
        noise_rate=args.noise,
        small=not args.full_size,
        config=config,
    )


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the full §IV storyline: enrichment tree + Mary's query."""
    demo = _prepare(args)
    print(demo.session.describe())
    print()
    result = demo.engine.execute(MARY_QL)
    print(f"Mary's query — variant {result.report.variant}, "
          f"{result.report.sparql_lines} SPARQL lines, "
          f"{result.report.execute_seconds:.2f}s:")
    print(result.cube.to_text())
    return 0


def cmd_enrich(args: argparse.Namespace) -> int:
    """Enrich the QB cube; print the schema tree and the action log."""
    demo = _prepare(args)
    print(demo.session.describe())
    print()
    report = demo.generation
    print(f"generated: {report.schema_triples} schema triples, "
          f"{report.instance_triples} instance triples")
    for entry in demo.session.log:
        print(f"  [{entry.action}] {entry.detail}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Print the catalog, schema tree, clusters and statistics."""
    from repro.exploration import (
        CubeExplorer,
        CubeStatistics,
        InstanceBrowser,
        list_cubes,
    )

    demo = _prepare(args)
    for info in list_cubes(demo.endpoint):
        print(f"cube: {info}")
    explorer = CubeExplorer(demo.endpoint, demo.data.dataset)
    browser = InstanceBrowser(demo.endpoint, explorer.schema)
    print()
    print(explorer.describe())
    print()
    print(browser.render_clusters(SCHEMA.citizenshipDim, SCHEMA.continent,
                                  max_members=5))
    print()
    print(CubeStatistics(demo.endpoint, explorer.schema).summary_text())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Execute a QL program (Mary's by default) and print the cube."""
    demo = _prepare(args)
    if args.ql:
        with open(args.ql) as handle:
            text = handle.read()
    else:
        text = MARY_QL
    result = demo.engine.execute(text, variant=args.variant)
    if args.show_sparql:
        print("-- direct translation " + "-" * 40)
        print(result.translation.direct)
        print("-- optimized translation " + "-" * 37)
        print(result.translation.optimized)
        print("-" * 62)
    print(result.cube.to_text())
    print(f"[{result.report.variant}: {result.report.rows} rows in "
          f"{result.report.execute_seconds:.2f}s]")
    return 0


def cmd_sparql(args: argparse.Namespace) -> int:
    """Run raw SPARQL; supports W3C output formats and EXPLAIN."""
    from repro.rdf.graph import Graph
    from repro.sparql.serializers import (
        boolean_to_json,
        boolean_to_xml,
        results_to_csv,
        results_to_json,
        results_to_tsv,
        results_to_xml,
    )

    demo = _prepare(args)
    with open(args.query) as handle:
        text = handle.read()
    if args.explain:
        print(demo.endpoint.explain(text))
        return 0
    result = demo.endpoint.query(text)
    if isinstance(result, bool):
        if args.format == "json":
            print(boolean_to_json(result, indent=2))
        elif args.format == "xml":
            print(boolean_to_xml(result))
        else:
            print("yes" if result else "no")
        return 0
    if isinstance(result, Graph):
        print(result.serialize("turtle"))
        return 0
    if args.format == "json":
        print(results_to_json(result, indent=2))
    elif args.format == "xml":
        print(results_to_xml(result))
    elif args.format == "csv":
        print(results_to_csv(result), end="")
    elif args.format == "tsv":
        print(results_to_tsv(result), end="")
    else:
        print(result.to_text(max_rows=args.limit))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Run the QB validator (the W3C IC suite on a normalized copy) and
    the QB4OLAP rows over the schema and instance graphs; exit 1 if any
    fails."""
    from repro.data.namespaces import INSTANCE_GRAPH, QB_GRAPH, SCHEMA_GRAPH
    from repro.qb import (
        ConstraintReport,
        check_constraint,
        check_graph,
        cube_constraint_checks,
        normalize_graph,
    )
    from repro.rdf.graph import UnionView

    demo = _prepare(args)
    probe = demo.endpoint.graph(QB_GRAPH).copy()
    added = normalize_graph(probe)
    qb_report = check_graph(probe)
    print(f"QB integrity constraints: {len(qb_report.violations)} "
          f"violations (after normalization, +{added} triples)")
    for line in str(qb_report).splitlines():
        print(f"  {line}")
    cube = UnionView(demo.endpoint.dataset, [
        demo.endpoint.graph(SCHEMA_GRAPH),
        demo.endpoint.graph(INSTANCE_GRAPH)]).copy()
    cube_report = ConstraintReport()
    for check in cube_constraint_checks(demo.schema.dsd, args.tolerance):
        cube_report.results[check.ic] = check_constraint(cube, check)
    print(f"QB4OLAP cube constraints: {len(cube_report.violations)} "
          "violations")
    for line in str(cube_report).splitlines():
        print(f"  {line}")
    return 1 if qb_report.violations or cube_report.violations else 0


def cmd_drillacross(args: argparse.Namespace) -> int:
    """Run the two-cube drill-across demo and print the joined cube."""
    from repro.demo import (
        APPLICATIONS_BY_CONTINENT_YEAR_QL,
        DECISIONS_BY_CONTINENT_YEAR_QL,
        prepare_two_cube_demo,
    )
    from repro.exploration.catalog import list_cubes
    from repro.ql.drillacross import execute_drill_across

    demo = prepare_two_cube_demo(
        observations=args.observations,
        decision_observations=max(args.observations // 2, 100),
        small=not args.full_size)
    for info in list_cubes(demo.endpoint):
        print(f"cube: {info}")
    print()
    result = execute_drill_across(
        demo.applications.engine, demo.decisions.engine,
        APPLICATIONS_BY_CONTINENT_YEAR_QL,
        DECISIONS_BY_CONTINENT_YEAR_QL,
        suffixes=("_apps", "_dec"))
    print(result.cube.to_text(max_rows=args.limit))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    """Emit Graphviz DOT for the schema or instance-graph views."""
    from repro.exploration import InstanceBrowser, instance_graph_dot, schema_dot

    demo = _prepare(args)
    if args.view == "schema":
        print(schema_dot(demo.schema))
        return 0
    browser = InstanceBrowser(demo.endpoint, demo.schema)
    dimension = SCHEMA[args.dimension] if args.dimension \
        else SCHEMA.citizenshipDim
    print(instance_graph_dot(browser, dimension,
                             max_members_per_level=args.max_members))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo_parser = subparsers.add_parser(
        "demo", help="run the full §IV storyline")
    _add_common(demo_parser)
    demo_parser.set_defaults(handler=cmd_demo)

    enrich_parser = subparsers.add_parser(
        "enrich", help="enrich the QB cube and show the schema tree")
    _add_common(enrich_parser)
    enrich_parser.set_defaults(handler=cmd_enrich)

    explore_parser = subparsers.add_parser(
        "explore", help="catalog, schema tree, clusters, statistics")
    _add_common(explore_parser)
    explore_parser.set_defaults(handler=cmd_explore)

    query_parser = subparsers.add_parser(
        "query", help="run a QL program (default: Mary's query)")
    _add_common(query_parser)
    query_parser.add_argument("--ql", help="file with a QL program")
    query_parser.add_argument("--variant", default="auto",
                              choices=["direct", "optimized", "auto"])
    query_parser.add_argument("--show-sparql", action="store_true")
    query_parser.set_defaults(handler=cmd_query)

    sparql_parser = subparsers.add_parser(
        "sparql", help="run raw SPARQL against the demo endpoint")
    _add_common(sparql_parser)
    sparql_parser.add_argument("--query", required=True,
                               help="file with a SELECT/ASK/CONSTRUCT/"
                                    "DESCRIBE query")
    sparql_parser.add_argument("--limit", type=int, default=25)
    sparql_parser.add_argument(
        "--format", default="text",
        choices=["text", "json", "xml", "csv", "tsv"],
        help="result serialization (W3C formats)")
    sparql_parser.add_argument("--explain", action="store_true",
                               help="print the query plan instead of "
                                    "running the query")
    sparql_parser.set_defaults(handler=cmd_sparql)

    validate_parser = subparsers.add_parser(
        "validate", help="run QB + QB4OLAP validators over the endpoint")
    _add_common(validate_parser)
    validate_parser.add_argument(
        "--tolerance", type=float, default=0.0,
        help="functional tolerance for instance validation "
             "(independent of the discovery threshold)")
    validate_parser.set_defaults(handler=cmd_validate)

    drill_parser = subparsers.add_parser(
        "drillacross",
        help="two-cube demo: applications ⋈ decisions per continent/year")
    _add_common(drill_parser)
    drill_parser.add_argument("--limit", type=int, default=25)
    drill_parser.set_defaults(handler=cmd_drillacross)

    render_parser = subparsers.add_parser(
        "render", help="emit Graphviz DOT for the Fig. 4/5 views")
    _add_common(render_parser)
    render_parser.add_argument("--view", default="instances",
                               choices=["instances", "schema"])
    render_parser.add_argument("--dimension",
                               help="dimension local name "
                                    "(default citizenshipDim)")
    render_parser.add_argument("--max-members", type=int, default=12)
    render_parser.set_defaults(handler=cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SPARQLError, QLSyntaxError, QLSemanticError, OSError) as error:
        # a malformed query or program, or an unreadable file: the
        # typed error's message is the whole story, not a traceback
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
