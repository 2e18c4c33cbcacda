#!/usr/bin/env python
"""Gate the columnar OLAP fact pipeline: ETL speedup, cross-engine
cells, and shm hygiene.

Builds a paper-scale QB4OLAP cube (``REPRO_BENCH_OBS`` observations,
default 100k; two-level geography dimension, one SUM measure) and
checks the two legs of the pipeline:

* **columnar ETL** — ``extract_star_schema`` (dimension tables and
  facts) must take at most 1/``REPRO_BENCH_OLAP_ETL_FACTOR`` (default
  5.0) of the time the member-at-a-time oracle
  (``tests/olap/reference_etl.py``) needs for the fact table alone,
  with byte-identical coordinates and measures;
* **shared fact snapshot** — ``ParallelStarAggregator`` (workers map
  the pinned ``FactColumns`` export zero-copy) must produce cells
  identical to the serial ``NativeOLAPEngine``, and after ``close()``
  the registry must be empty with no ``/dev/shm`` residue.

Usage::

    REPRO_BENCH_OBS=100000 PYTHONPATH=src python benchmarks/check_olap.py
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys

OBSERVATIONS = int(os.environ.get("REPRO_BENCH_OBS", "100000"))
WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))
ETL_FACTOR = float(os.environ.get("REPRO_BENCH_OLAP_ETL_FACTOR", "5.0"))
CITIES = 240
REGIONS = 24

EX = "http://example.org/bench/olap/"


def build_cube():
    from repro.qb import vocabulary as qb
    from repro.qb4olap import vocabulary as qb4o
    from repro.qb4olap.model import (
        CubeSchema, Dimension, Hierarchy, HierarchyStep, Measure)
    from repro.rdf.namespace import SKOS
    from repro.rdf.terms import IRI, Literal
    from repro.sparql.endpoint import LocalEndpoint

    ns = lambda name: IRI(EX + name)  # noqa: E731 - local shorthand
    schema = CubeSchema(dsd=ns("dsd"), dataset=ns("ds"))
    hierarchy = Hierarchy(ns("geoHier"), ns("geoDim"),
                          levels=[ns("city"), ns("region")],
                          steps=[HierarchyStep(ns("city"), ns("region"))])
    schema.dimensions.append(Dimension(ns("geoDim"), [hierarchy]))
    schema.dimension_levels[ns("geoDim")] = ns("city")
    schema.measures.append(Measure(ns("amount"), qb4o.SUM))

    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    rows = []
    cities = [ns(f"city{k}") for k in range(CITIES)]
    regions = [ns(f"region{k}") for k in range(REGIONS)]
    for k, city in enumerate(cities):
        rows.append((city, qb4o.memberOf, ns("city")))
        rows.append((city, SKOS.broader, regions[k % REGIONS]))
    for region in regions:
        rows.append((region, qb4o.memberOf, ns("region")))
    for i in range(OBSERVATIONS):
        obs = ns(f"obs{i}")
        rows.append((obs, qb.dataSet, ns("ds")))
        rows.append((obs, IRI(EX + "city"), cities[i % CITIES]))
        rows.append((obs, IRI(EX + "amount"), Literal(i % 997)))
    graph.add_all(rows)
    graph.compact()
    return endpoint, schema


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, "src")
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))  # the oracle lives under tests/

    import numpy as np

    from repro.rdf.concurrency import SHM_SEGMENTS
    from repro.rdf.shm import SEGMENT_PREFIX
    from repro.ql import QLBuilder, simplify
    from repro.olap import NativeOLAPEngine, extract_star_schema
    from repro.olap.parallel import ParallelStarAggregator
    from tests.olap.reference_etl import reference_star_schema

    print(f"olap gate: obs={OBSERVATIONS} workers={WORKERS} "
          f"etl-gate={ETL_FACTOR:.1f}x")
    endpoint, schema = build_cube()

    # -- leg 1: columnar ETL vs the per-observation oracle ---------------------
    star, fast_report = extract_star_schema(endpoint, schema)
    _, refast = extract_star_schema(endpoint, schema)  # warm best-of-2
    slow, slow_seconds = reference_star_schema(endpoint, schema)
    fast_seconds = min(fast_report.seconds, refast.seconds)
    for iri, codes in star.facts.coordinates.items():
        if not np.array_equal(codes, slow.facts.coordinates[iri]):
            print("FAIL: coordinates diverge from the oracle",
                  file=sys.stderr)
            return 1
    for iri, values in star.facts.measures.items():
        if not np.array_equal(values, slow.facts.measures[iri],
                              equal_nan=True):
            print("FAIL: measures diverge from the oracle", file=sys.stderr)
            return 1
    etl_speedup = slow_seconds / max(fast_seconds, 1e-9)
    print(f"etl oracle:   {slow_seconds * 1000:8.1f} ms "
          f"({slow.facts.size} facts, fact walk only)")
    print(f"etl columnar: {fast_seconds * 1000:8.1f} ms")
    print(f"etl speedup: {etl_speedup:.2f}x (identical fact tables)")

    # -- leg 2: shared fact snapshot ------------------------------------------
    from repro.rdf.terms import IRI

    program = (QLBuilder(schema.dataset)
               .rollup(IRI(EX + "geoDim"), IRI(EX + "region"))
               .build())
    simplified = simplify(program, schema)
    native = NativeOLAPEngine(star).evaluate(simplified)
    aggregator = ParallelStarAggregator(star, workers=WORKERS)
    shared = aggregator.evaluate(simplified)
    aggregator.close()
    if set(native.cells) != set(shared.cells) or any(
            set(native.cells[key]) != set(shared.cells[key])
            or any(not math.isclose(value, shared.cells[key][measure],
                                    rel_tol=1e-9, abs_tol=1e-9)
                   for measure, value in native.cells[key].items())
            for key in native.cells):
        print("FAIL: shared-snapshot cells diverged from serial engine",
              file=sys.stderr)
        return 1
    print(f"fact snapshot: {len(shared.cells)} cells identical via "
          f"{star.fact_columns().nbytes} shared bytes")

    endpoint.close()
    if not SHM_SEGMENTS.empty:
        print(f"FAIL: leaked shared-memory registrations: "
              f"{SHM_SEGMENTS.segment_names()}", file=sys.stderr)
        return 1
    if os.path.isdir("/dev/shm"):
        leaked = sorted(glob.glob(
            f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"))
        if leaked:
            print(f"FAIL: leaked /dev/shm segments: {leaked}",
                  file=sys.stderr)
            return 1
    print("hygiene: zero leaked segments after close")

    if etl_speedup < ETL_FACTOR:
        print(f"FAIL: expected ETL at least {ETL_FACTOR:.1f}x",
              file=sys.stderr)
        return 1
    print(f"ok: etl >= {ETL_FACTOR:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
