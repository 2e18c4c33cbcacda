"""The traced run: per-layer metrics and the extra passes behind them.

A traced run alternates traced and untraced rounds in one process (two
processes differ by more than tracing costs).  Every per-layer metric is
printed by every workload, but measured only by the workloads whose own
rounds exercise the layer: the write path by ``refresh_20k``, the star
path by ``star_50k``, QL and SPARQL by the three 20k workloads; a metric
of a layer the workload leaves out reads 0.  Timings are medians over
the quiet half's traced ops, on the reference clock; counts are exact,
because there is one client.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

from repro.data.namespaces import QB_GRAPH
from repro.sparql import PROBE_COUNTER
from repro.sparql.parser import parse_query

import stats
from harness import (TRIPLES_PER_OBSERVATION, Cube, OpRecord, Round,
                     kept_rounds, run_round, verify)
from spans import Tracer
from workloads import HELD_BACK, REFRESH_READS, Op

#: how often the steady-state reads repeat (no write in between)
STEADY_REPEATS = 3

Metrics = Dict[str, Tuple[float, str]]


def _median(values: Sequence[float]) -> float:
    return float(median(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(records: Sequence[OpRecord]) -> List[float]:
    return [record.latency * record.factor * 1000.0 for record in records]


def referred(block: Callable[[], None]) -> float:
    """Seconds ``block`` takes, on the reference clock."""
    before = stats.reading()
    started = time.perf_counter()
    block()
    elapsed = time.perf_counter() - started
    return elapsed * stats.reference_factor(before, stats.reading())


# -- extra passes ------------------------------------------------------------


def steady_reads(cube: Cube, tracer: Tracer) -> List[OpRecord]:
    """The refresh cycle's reads with no write in between."""
    ops = [Op("ql", name, variant) for name, variant in REFRESH_READS]
    expected = verify(cube, ops)
    records: List[OpRecord] = []
    for repeat in range(STEADY_REPEATS):
        records.extend(run_round(cube, ops, expected, 950 + repeat,
                                 tracer).good)
    return records


def sparql_passes(cube: Cube, queries: Sequence[OpRecord]) -> Metrics:
    """Over the distinct SPARQL texts the traced QL ops sent: an
    uncached parse, an EXPLAIN, and one execution with the probe
    counter on."""
    texts = sorted({record.text for record in queries})
    parse_ms, explain_ms, probes, rows = [], [], 0, 0
    for text in texts:
        parse_ms.append(referred(lambda: parse_query(text)) * 1000.0)
        explain_ms.append(
            referred(lambda: cube.endpoint.explain(text)) * 1000.0)
        with PROBE_COUNTER:
            rows += len(cube.endpoint.select(text))
        probes += PROBE_COUNTER.entries
    return {
        "sparql.parse_cold_ms": (_median(parse_ms), "ms"),
        "sparql.explain_ms": (_median(explain_ms), "ms"),
        "sparql.probes_per_op": (_ratio(probes, len(texts)), "count"),
        "sparql.probes_per_row": (_ratio(probes, rows), "count"),
    }


def scan_rate(cube: Cube) -> float:
    """Triples per second of a per-predicate ``match_arrays`` pass over
    the QB graph's observation predicates."""
    graph = cube.endpoint.graph(QB_GRAPH)
    graph.compact()  # match_arrays serves only a folded generation
    predicates = {triple[1] for triple
                  in cube.batches["small"][:TRIPLES_PER_OBSERVATION]}
    scanned = 0

    def scan() -> None:
        nonlocal scanned
        for predicate in predicates:
            arrays = graph.match_arrays(
                (None, graph.dictionary.lookup(predicate), None))
            if arrays is not None:
                scanned += int(arrays[2].shape[0])
                arrays[2].sum()  # touch the column, not just its bounds

    seconds = referred(scan)
    return _ratio(scanned, seconds)


# -- the metrics -------------------------------------------------------------


def per_layer(cube: Cube, tracer: Tracer, rounds: Sequence[Round]) -> Metrics:
    """Every per-layer metric by name, with its unit — except the two
    that only exist once the cube is closed."""
    traced = kept_rounds([round_ for round_ in rounds if round_.traced])

    def records(*kinds: str) -> List[OpRecord]:
        return [record for round_ in traced for record in round_.good
                if record.kind in kinds]

    def counter(name: str) -> int:
        return sum(round_.counters[name] for round_ in rounds)

    out: Metrics = {}
    counts = cube.counts
    stage_s = cube.stages.referred

    # data, rdf load, enrichment: one sample each, from set-up
    out["data.generate_s"] = (stage_s["data.generate"], "s")
    out["rdf.load_s"] = (stage_s["rdf.load"], "s")
    out["rdf.load.triples_per_s"] = (
        _ratio(counts["triples_loaded"], stage_s["rdf.load"]), "1/s")
    out["rdf.bytes_per_triple"] = (counts["bytes_per_triple"], "B")
    out["rdf.dictionary.terms"] = (counts["dictionary_terms"], "count")
    out["rdf.scan.triples_per_s"] = (scan_rate(cube), "1/s")
    for stage in ("redefine", "discover", "generate"):
        out[f"enrichment.{stage}_s"] = (stage_s[f"enrichment.{stage}"], "s")
    out["enrichment.triples_generated"] = (
        counts["triples_generated"], "count")

    # rdf: writes beside reads
    inserts, removes = records("insert"), records("remove")
    cycles = len(removes)
    insert_ms, remove_ms = sum(_ms(inserts)), sum(_ms(removes))
    moved = HELD_BACK * TRIPLES_PER_OBSERVATION * cycles
    after_write = _median(_ms([record for record in records("ql")
                               if record.after]))
    steady_ms = _median(_ms(steady_reads(cube, tracer))) if cycles else 0.0
    out["rdf.insert_ms"] = (_ratio(insert_ms, cycles), "ms")
    out["rdf.insert.triples_per_s"] = (
        _ratio(moved * 1000.0, insert_ms), "1/s")
    out["rdf.remove_ms"] = (_ratio(remove_ms, cycles), "ms")
    out["rdf.remove.triples_per_s"] = (
        _ratio(moved * 1000.0, remove_ms), "1/s")
    out["rdf.read_after_write_ms"] = (after_write, "ms")
    out["rdf.read_steady_ms"] = (steady_ms, "ms")
    out["rdf.read_after_write.ratio"] = (
        _ratio(after_write, steady_ms), "ratio")
    # per round: zero is the prediction on the read-only workloads
    for name in ("compactions", "snapshot_builds", "cow_copies"):
        out[f"rdf.{name}_per_cycle"] = (
            _ratio(counter(name), len(rounds)), "count")

    # ql and sparql
    queries = records("ql")
    total = sum(record.latency for record in queries)

    def stage_ms(stage: str, variant: str = "") -> float:
        return _median([record.stages[stage] * record.factor * 1000.0
                        for record in queries
                        if not variant or record.variant == variant])

    def stage_share(*stages: str) -> float:
        return _ratio(sum(record.stages[stage] for record in queries
                          for stage in stages), total)

    for stage in ("parse", "simplify", "translate", "cube"):
        out[f"ql.{stage}_ms"] = (stage_ms(f"ql.{stage}"), "ms")
    out["ql.front_share"] = (
        stage_share("ql.parse", "ql.simplify", "ql.translate"), "ratio")
    out["ql.first_exec_ms"] = (cube.first_exec_ms or 0.0, "ms")
    out["sparql.select_ms"] = (stage_ms("sparql.select"), "ms")
    for variant in ("direct", "optimized"):
        out[f"sparql.select_{variant}_ms"] = (
            stage_ms("sparql.select", variant), "ms")
    out["sparql.select_share"] = (stage_share("sparql.select"), "ratio")
    out["sparql.rows_out"] = (
        _median([record.rows for record in queries]), "count")
    out.update(sparql_passes(cube, queries))
    plans = counter("plan_hits") + counter("plan_misses")
    parses = counter("parse_hits") + counter("parse_misses")
    out["sparql.plan_cache.hit_rate"] = (
        _ratio(counter("plan_hits"), plans), "ratio")
    out["sparql.plan_cache.param_hit_rate"] = (
        _ratio(counter("plan_param_hits"), plans), "ratio")
    out["sparql.parse_cache.hit_rate"] = (
        _ratio(counter("parse_hits"), parses), "ratio")

    # olap: the star path
    def by_program(kind: str) -> Dict[str, float]:
        grouped: Dict[str, List[float]] = {}
        for record in records(kind):
            grouped.setdefault(record.program, []).append(
                record.latency * record.factor * 1000.0)
        return {name: _median(values) for name, values in grouped.items()}

    def cpu_per_op(kind: str) -> float:
        found = records(kind)
        return _ratio(sum(record.cpu * record.factor for record in found),
                      len(found))

    serial = by_program("native")
    fanned = by_program("parallel")
    etl_ms = _median(_ms(records("etl")))
    engine_ms = _median(list(serial.values()))
    out["olap.etl_ms"] = (etl_ms, "ms")
    out["olap.etl.facts_per_s"] = (
        _ratio(cube.facts * 1000.0, etl_ms), "1/s")
    out["olap.columns_ms"] = (
        stage_s.get("olap.columns", 0.0) * 1000.0, "ms")
    out["olap.columns.bytes_per_fact"] = (
        counts.get("bytes_per_fact", 0.0), "B")
    out["olap.engine_ms"] = (engine_ms, "ms")
    out["olap.engine.facts_per_s"] = (
        _ratio(cube.facts * 1000.0, engine_ms), "1/s")
    out["olap.parallel_ms"] = (_median(list(fanned.values())), "ms")
    # base: the serial engine's time over the same programs
    out["olap.parallel.speedup"] = (
        _ratio(sum(serial.values()), sum(fanned.values())), "ratio")
    out["olap.parallel.cpu_ratio"] = (
        _ratio(cpu_per_op("parallel"), cpu_per_op("native")), "ratio")
    out["olap.parallel.spawn_ms"] = (
        stage_s.get("olap.parallel.spawn", 0.0) * 1000.0, "ms")

    # harness
    walls = [round_.wall for round_ in rounds if round_.traced]
    # every round counts here, not the quiet half: two medians of two or
    # three rounds each differ by more than tracing costs
    referred_walls = {flag: [round_.referred_wall for round_ in rounds
                             if round_.traced == flag]
                      for flag in (True, False)}
    out["harness.calib_ms"] = (min(
        record.kernel_ms for round_ in rounds for record in round_.ops), "ms")
    out["harness.round_spread"] = (max(walls) / min(walls), "ratio")
    out["harness.rounds_kept"] = (len(traced), "count")
    out["harness.gc_gen2_collections"] = (counter("gen2"), "count")
    out["harness.trace_overhead_frac"] = (
        _median(referred_walls[True])
        / _median(referred_walls[False] or referred_walls[True]) - 1.0,
        "ratio")
    return out
