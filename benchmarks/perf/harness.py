"""The closed-loop harness: set-up, verification, identical timed
rounds, and the metrics computed from them.

One client: an analyst who waits for each answer before asking the next
question.  Every layer is measured from outside, by timing calls into
its public functions and reading its public counters; what happens
inside ``endpoint.select`` is one opaque box until the program grows
spans of its own.
"""

from __future__ import annotations

import gc
import glob
import math
import multiprocessing
import os
import platform
import resource
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.data.eurostat import (DATASET_IRI, DSD_IRI, GeneratorConfig,
                                 build_dsd, generate_observations)
from repro.data.namespaces import DEMO_PREFIXES, QB_GRAPH, REFERENCE_GRAPH
from repro.data.reference import ReferenceConfig, build_reference_graph
from repro.demo import MARY_PREFERENCES, PAPER_DIMENSION_NAMES
from repro.enrichment import EnrichmentSession
from repro.olap import (NativeOLAPEngine, compare_results,
                        extract_star_schema)
from repro.olap.parallel import ParallelStarAggregator
from repro.ql import (QLEngine, ResultCube, parse_ql, simplify,
                      simplify_with_report, translate)
from repro.rdf.concurrency import CONCURRENCY, SHM_SEGMENTS
from repro.rdf.shm import SEGMENT_PREFIX
from repro.sparql import LocalEndpoint
from repro.sparql.optimizer import PLAN_CACHE

import stats
from spans import Tracer
from workloads import HELD_BACK, PROGRAMS, REFRESH_READS, SMALL_BATCH, Op

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: one client thread; pools get both cores of the host, no more
WORKERS = min(2, os.cpu_count() or 1)
#: type, dataSet, six dimensions, one measure
TRIPLES_PER_OBSERVATION = 9
#: the programs whose native answer is also checked against SPARQL
SPARQL_CHECKED = frozenset(name for name, _ in REFRESH_READS)
#: an op slower than this counts as failed, like one that raised
OP_TIMEOUT_S = 30.0
#: op kinds that run in every round and are verified and counted, but
#: stay out of the end-to-end numbers: a two-worker fan-out's latency
#: follows the *other* vCPU of a shared two-vCPU host, which the kernel
#: on this one cannot see (run-to-run spread 25-50 % per op type)
UNGATED_KINDS = frozenset({"parallel"})
#: kernel runs per reading between set-up stages: a stage lasts seconds,
#: so its two readings must not sit on one 50 ms burst of the host
STAGE_KERNEL_RUNS = 8

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "cpu_ms_per_op": "ms",
                    "peak_rss_mb": "MB"}

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


class VerificationError(Exception):
    """An operation's answer disagreed with the independent engine."""


# -- the cube a workload runs on ---------------------------------------------


class TripleSink:
    """Stands where the generators expect a graph and keeps the triples
    they emit, in order — so the store's load path is paid once, in
    ``insert_triples``, not a second time inside the generator."""

    def __init__(self) -> None:
        self.triples: List[Tuple[Any, Any, Any]] = []

    def add(self, subject: Any, predicate: Any = None,
            obj: Any = None) -> None:
        self.triples.append((subject, predicate, obj))


class Stages:
    """Set-up's stages: each under a span, with the calibration kernel
    read between them, so that each is also known on the reference
    clock."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: stage -> seconds as measured / on the reference clock
        self.raw: Dict[str, float] = {}
        self.referred: Dict[str, float] = {}
        self.readings: List[float] = [stats.reading(STAGE_KERNEL_RUNS)]

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with self.tracer.span(name) as span:
            yield
        self.readings.append(stats.reading(STAGE_KERNEL_RUNS))
        self.raw[name] = span.seconds
        self.referred[name] = span.seconds * stats.reference_factor(
            *self.readings[-2:])


@dataclass
class Cube:
    """Everything the ops of a round touch."""

    endpoint: LocalEndpoint
    schema: Any
    engine: QLEngine
    #: simplified form of every program, for the star path
    programs: Dict[str, Any]
    #: held-back observations: write batches and their subjects
    batches: Dict[str, List[Tuple[Any, Any, Any]]]
    held_subjects: List[Any]
    facts: int
    stages: Stages
    counts: Dict[str, float] = field(default_factory=dict)
    star: Any = None
    native: Optional[NativeOLAPEngine] = None
    aggregator: Optional[ParallelStarAggregator] = None
    #: the first QL execution (cold caches), on the reference clock
    first_exec_ms: Optional[float] = None

    def execute_ql(self, program: str, variant: str) -> ResultCube:
        if self.first_exec_ms is not None:
            return self.engine.execute(PROGRAMS[program],
                                       variant=variant).cube
        before = stats.reading()
        started = time.perf_counter()
        result = self.engine.execute(PROGRAMS[program], variant=variant)
        elapsed = time.perf_counter() - started
        self.first_exec_ms = elapsed * 1000.0 * stats.reference_factor(
            before, stats.reading())
        return result.cube


def set_up(observations: int, seed: int, star: bool, tracer: Tracer
           ) -> Cube:
    """Generate, load and enrich a demo cube of ``observations`` facts,
    holding :data:`HELD_BACK` more from the same generator aside;
    ``cube.stages`` holds what each stage took."""
    stages = Stages(tracer)
    with tracer.span("setup"):
        with stages.stage("data.generate"):
            sink = TripleSink()
            build_dsd(sink)
            header = len(sink.triples)
            total = observations + HELD_BACK
            produced = generate_observations(
                sink, GeneratorConfig(observations=total, seed=seed))
            reference = build_reference_graph(ReferenceConfig())
        split = header + observations * TRIPLES_PER_OBSERVATION
        if produced != total or len(sink.triples) != \
                header + total * TRIPLES_PER_OBSERVATION:
            raise VerificationError(
                f"generator produced {produced} of {total} observations")
        base, held = sink.triples[:split], sink.triples[split:]
        small = SMALL_BATCH * TRIPLES_PER_OBSERVATION

        endpoint = LocalEndpoint()
        for prefix, namespace in DEMO_PREFIXES.items():
            endpoint.dataset.namespace_manager.bind(prefix, namespace)
        rss_before = _rss_bytes()
        with stages.stage("rdf.load"):
            loaded = endpoint.insert_triples(base, graph=QB_GRAPH)
            loaded += endpoint.insert_triples(reference,
                                              graph=REFERENCE_GRAPH)
        rss_loaded = _rss_bytes()

        session = EnrichmentSession(endpoint, DATASET_IRI, DSD_IRI,
                                    dimension_names=PAPER_DIMENSION_NAMES)
        with stages.stage("enrichment.redefine"):
            session.redefine()
        with stages.stage("enrichment.discover"):
            schema = session.auto_enrich(
                max_depth=3, add_attributes=True,
                prefer=[*MARY_PREFERENCES, "politicalOrganization"])
        with stages.stage("enrichment.generate"):
            generation = session.generate()

        cube = Cube(
            endpoint=endpoint, schema=schema,
            engine=QLEngine(endpoint, schema),
            programs={name: simplify(parse_ql(text), schema)
                      for name, text in PROGRAMS.items()},
            batches={"small": held[:small], "big": held[small:]},
            held_subjects=[triple[0] for triple
                           in held[::TRIPLES_PER_OBSERVATION]],
            facts=observations, stages=stages)
        cube.counts = {
            "triples_loaded": loaded,
            "bytes_per_triple": (rss_loaded - rss_before) / loaded,
            "dictionary_terms": len(endpoint.graph(QB_GRAPH).dictionary),
            "triples_generated": generation.total,
        }
        if star:
            prepare_star(cube)
    return cube


def prepare_star(cube: Cube) -> None:
    """The star path's own set-up: ETL, column export, pool spawn."""
    stages = cube.stages
    with stages.stage("olap.etl"):
        cube.star, _ = extract_star_schema(cube.endpoint, cube.schema)
    with stages.stage("olap.columns"):
        columns = cube.star.fact_columns()
    cube.counts["bytes_per_fact"] = columns.nbytes / max(columns.rows, 1)
    cube.native = NativeOLAPEngine(cube.star)
    cube.aggregator = ParallelStarAggregator(cube.star, workers=WORKERS)
    with stages.stage("olap.parallel.spawn"):
        # the first query spawns the workers and exports the segment
        cube.aggregator.evaluate(next(iter(cube.programs.values())))


def clean_up(cube: Cube) -> Dict[str, float]:
    """Close what set-up opened; report the close time and any leak."""
    close_ms = 0.0
    if cube.aggregator is not None:
        before = stats.reading()
        started = time.perf_counter()
        cube.aggregator.close()
        close_ms = (time.perf_counter() - started) * 1000.0 \
            * stats.reference_factor(before, stats.reading())
    cube.endpoint.close()
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    residue = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*")
    return {"close_ms": close_ms,
            "leaked_segments": len(SHM_SEGMENTS.segment_names())
            + len(residue),
            "live_children": len(multiprocessing.active_children())}


# -- operations --------------------------------------------------------------

#: the span a non-QL op's single call is recorded under
_LAYER_SPAN = {"etl": "olap.etl", "native": "olap.engine",
               "parallel": "olap.parallel", "insert": "rdf.insert",
               "remove": "rdf.remove"}


def run_op(cube: Cube, op: Op) -> Any:
    """Run one op through the public call a user would make."""
    kind = op.kind
    if kind == "ql":
        return cube.execute_ql(op.program, op.variant)
    if kind == "native":
        return cube.native.evaluate(cube.programs[op.program])
    if kind == "parallel":
        return cube.aggregator.evaluate(cube.programs[op.program])
    if kind == "etl":
        return extract_star_schema(cube.endpoint, cube.schema)[0]
    if kind == "insert":
        return cube.endpoint.insert_triples(cube.batches[op.after],
                                            graph=QB_GRAPH)
    if kind == "remove":
        graph = cube.endpoint.graph(QB_GRAPH)
        removed = 0
        with graph.locked():  # one batch w.r.t. snapshot publication
            for subject in cube.held_subjects:
                removed += graph.remove((subject, None, None))
        return removed
    raise ValueError(f"unknown op kind {kind!r}")


def run_op_staged(cube: Cube, op: Op, tracer: Tracer) -> Tuple[Any, int]:
    """The traced twin of :func:`run_op`: a QL op is driven stage by
    stage, every other op is one call under its layer's span.  Returns
    the result and the rows the SPARQL layer handed back."""
    if op.kind != "ql":
        with tracer.span(_LAYER_SPAN[op.kind]):
            return run_op(cube, op), 0
    with tracer.span("ql.parse"):
        program = parse_ql(PROGRAMS[op.program])
    with tracer.span("ql.simplify"):
        simplified, _ = simplify_with_report(program, cube.schema)
    with tracer.span("ql.translate"):
        translation = translate(cube.schema, simplified)
    text = getattr(translation, op.variant)
    with tracer.span("sparql.select", text=text):
        table = cube.endpoint.select(text)
    with tracer.span("ql.cube"):
        result = ResultCube(table, translation.metadata)
    return result, len(table)


def _cells_checksum(values: Iterable[float], cells: int
                    ) -> Tuple[int, float]:
    return cells, round(math.fsum(values), 6)


def checksum(op: Op, result: Any) -> Any:
    """A cheap digest of an op's answer, compared in timed rounds.  A
    program's digest is the same through every engine and variant."""
    if op.kind == "ql":
        coordinates = result.coordinates()
        return _cells_checksum(
            (float(value) for key in coordinates
             for measure in result.measures
             if (value := result.value(measure, *key)) is not None),
            len(coordinates))
    if op.kind in ("native", "parallel"):
        return _cells_checksum(
            (value for cell in result.cells.values()
             for value in cell.values()), len(result.cells))
    if op.kind == "etl":
        return star_digest(result)
    return int(result)


def star_digest(star: Any) -> Tuple[int, int]:
    """CRC of every fact column's bytes and of the member lists."""
    crc = 0
    for columns in (star.facts.coordinates, star.facts.measures):
        for iri in sorted(columns, key=lambda iri: iri.value):
            crc = zlib.crc32(np.ascontiguousarray(columns[iri]).tobytes(),
                             crc)
    for iri in sorted(star.dimensions, key=lambda iri: iri.value):
        members = "\n".join(str(member) for member
                            in star.dimensions[iri].bottom_members)
        crc = zlib.crc32(members.encode(), crc)
    return star.facts.size, crc


def _same_cells(left: Any, right: Any) -> bool:
    if left.cells.keys() != right.cells.keys():
        return False
    return all(
        cell.keys() == right.cells[key].keys()
        and all(math.isclose(value, right.cells[key][measure],
                             rel_tol=1e-9, abs_tol=1e-9)
                for measure, value in cell.items())
        for key, cell in left.cells.items())


def verify(cube: Cube, ops: Sequence[Op]) -> Dict[str, Any]:
    """The warm-up round: run each distinct op once, in round order,
    check its answer against an independent engine, and return the
    digest timed rounds compare against.

    * a QL op, cell for cell against the native engine over a star
      extracted from the store as it is *now* (so after every write);
    * a parallel op against the serial engine, and the serial engine
      against the SPARQL path on one roll-up and one dice (a SPARQL
      answer per program would cost the 50k cube seven seconds);
    * an ETL op byte for byte against set-up's star;
    * a write against the number of triples it must move.
    """
    expected: Dict[str, Any] = {}
    oracle: Optional[NativeOLAPEngine] = None
    for op in ops:
        if op.key in expected:
            continue
        result = run_op(cube, op)
        if op.kind == "ql":
            if oracle is None:
                oracle = NativeOLAPEngine(
                    extract_star_schema(cube.endpoint, cube.schema)[0])
            outcome = compare_results(
                result, oracle.evaluate(cube.programs[op.program]))
            if not outcome.equal:
                raise VerificationError(f"{op.key}: {outcome.explain()}")
        elif op.kind == "native":
            # the other programs are checked by their parallel twins
            if op.program in SPARQL_CHECKED:
                outcome = compare_results(
                    cube.execute_ql(op.program, "direct"), result)
                if not outcome.equal:
                    raise VerificationError(
                        f"{op.key}: {outcome.explain()}")
        elif op.kind == "parallel":
            if not _same_cells(
                    result, cube.native.evaluate(cube.programs[op.program])):
                raise VerificationError(
                    f"{op.key}: parallel cells differ from serial cells")
        elif op.kind == "etl":
            if star_digest(result) != star_digest(cube.star):
                raise VerificationError(
                    f"{op.key}: re-extracted star differs from set-up's")
        else:
            oracle = None  # the store changed under the oracle's star
            moved = len(cube.batches[op.after]) if op.kind == "insert" \
                else HELD_BACK * TRIPLES_PER_OBSERVATION
            if result != moved:
                raise VerificationError(
                    f"{op.key}: moved {result} triples, expected {moved}")
        expected[op.key] = checksum(op, result)
    by_program: Dict[Tuple[str, str], Any] = {}
    for op in ops:  # direct == optimized == native == parallel
        if op.program:
            first = by_program.setdefault((op.program, op.after),
                                          expected[op.key])
            if expected[op.key] != first:
                raise VerificationError(
                    f"{op.key}: digest differs between engines/variants")
    return expected


# -- resources ---------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # the command name may hold spaces: split after its ')'
            return handle.read().rpartition(")")[2].split()
    except OSError:
        return None


def children_of(pid: int) -> List[int]:
    """Live child processes of ``pid`` (pool workers and the like)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry))
    return found


def cpu_seconds(children: Sequence[int]) -> float:
    """User+system CPU of this process and its live children."""
    total = time.process_time()
    for pid in children:
        fields = _stat_fields(pid)
        if fields is not None:  # utime, stime: fields 14 and 15
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def stop_resource_tracker() -> None:
    """End multiprocessing's tracker process (a child the pools start
    behind our back) and wait for it, so nothing outlives the run."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest ended child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fingerprint() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu": model,
            "nproc": os.cpu_count(), "workers": WORKERS,
            "hashseed": os.environ.get("PYTHONHASHSEED", "")}


# -- rounds ------------------------------------------------------------------


@dataclass
class OpRecord:
    key: str
    kind: str
    variant: str
    after: str
    program: str
    #: seconds as measured: wall, and user+sys CPU with live children
    latency: float = 0.0
    cpu: float = 0.0
    #: mean of the kernel readings before and after the op
    kernel_ms: float = stats.CALIB_REFERENCE_MS
    ok: bool = False
    #: traced ops only: stage name -> seconds as measured, rows out, and
    #: the SPARQL text a QL op sent
    stages: Dict[str, float] = field(default_factory=dict)
    rows: int = 0
    text: str = ""

    @property
    def factor(self) -> float:
        """Puts this op's times on the reference clock."""
        return stats.reference_factor(self.kernel_ms)


@dataclass
class Round:
    index: int
    traced: bool
    ops: List[OpRecord]
    counters: Dict[str, int]

    @property
    def good(self) -> List[OpRecord]:
        return [record for record in self.ops if record.ok]

    @property
    def wall(self) -> float:
        """Seconds the ops took as measured (the kernel runs between
        them left out): what the quiet half is chosen by."""
        return sum(record.latency for record in self.ops)

    @property
    def referred_wall(self) -> float:
        return sum(record.latency * record.factor for record in self.ops)


def _counters(cube: Cube) -> Dict[str, int]:
    plan = PLAN_CACHE.statistics()
    shared = CONCURRENCY.snapshot()
    served = cube.endpoint.statistics
    return {"plan_hits": plan["hits"],
            "plan_param_hits": plan["hits_parameterized"],
            "plan_misses": plan["misses"],
            "parse_hits": served.parse_cache_hits,
            "parse_misses": served.parse_cache_misses,
            "compactions": shared["compactions"],
            "snapshot_builds": shared["snapshot_builds"],
            "cow_copies": shared["cow_copies"],
            "gen2": gc.get_stats()[2]["collections"]}


def run_round(cube: Cube, ops: Sequence[Op], expected: Dict[str, Any],
              index: int, tracer: Optional[Tracer] = None) -> Round:
    """One round of fixed work, after a full collection; traced when
    given a tracer.  The calibration kernel is read between any two ops,
    outside their timed regions."""
    gc.collect()
    children = children_of(os.getpid())
    before = _counters(cube)
    records: List[OpRecord] = []
    reading = stats.reading()
    for position, op in enumerate(ops):
        record = OpRecord(op.key, op.kind, op.variant, op.after, op.program)
        cpu_started = cpu_seconds(children)
        op_started = time.perf_counter()
        try:
            if tracer is None:
                result = run_op(cube, op)
                record.latency = time.perf_counter() - op_started
            else:
                with tracer.span("op", op=index * 1000 + position,
                                 key=op.key) as span:
                    result, record.rows = run_op_staged(cube, op, tracer)
                record.latency = span.seconds
                for child in tracer.children(span):
                    record.stages[child.name] = child.seconds
                    record.text = child.attrs.get("text", record.text)
            record.cpu = cpu_seconds(children) - cpu_started
            record.ok = (record.latency <= OP_TIMEOUT_S
                         and checksum(op, result) == expected[op.key])
        except Exception as error:  # a failed op is counted, not fatal
            record.latency = time.perf_counter() - op_started
            print(f"# op {op.key} failed: {error!r}")
        previous, reading = reading, stats.reading()
        record.kernel_ms = (previous + reading) / 2.0
        records.append(record)
    after = _counters(cube)
    return Round(index, tracer is not None, records,
                 {name: after[name] - before[name] for name in after})


def run_rounds(cube: Cube, ops: Sequence[Op], expected: Dict[str, Any],
               seconds: float, fixed_rounds: Optional[int],
               tracer: Optional[Tracer]) -> List[Round]:
    """Identical rounds until ``seconds`` have been measured (or exactly
    ``fixed_rounds``); with a tracer, every other round is traced."""
    rounds: List[Round] = []
    started = time.perf_counter()
    while True:
        done = len(rounds)
        if fixed_rounds is not None:
            if done >= fixed_rounds:
                break
        elif done and time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and done % 2 == 0
        rounds.append(run_round(cube, ops, expected, done,
                                tracer if traced else None))
    return rounds


def kept_rounds(rounds: Sequence[Round]) -> List[Round]:
    chosen = stats.quiet_half([round_.wall for round_ in rounds])
    return [rounds[index] for index in chosen]


# -- metrics -----------------------------------------------------------------


def end_to_end(rounds: Sequence[Round], setup_s: float,
               referred: bool = True
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The six end-to-end numbers from the pooled ops of the quiet half,
    on the reference clock — or, for the record, as measured.  The
    percentiles are taken over the round's ops, each at its typical
    latency (the median of its kept samples): a percentile of the
    pooled samples shifts with the number of rounds kept when an op
    type's share of the pool sits next to it."""
    kept = kept_rounds(rounds)
    pool = [record for round_ in kept for record in round_.good
            if record.kind not in UNGATED_KINDS]
    factors = [record.factor if referred else 1.0 for record in pool]
    by_op: Dict[str, List[float]] = {}
    for record, factor in zip(pool, factors):
        by_op.setdefault(record.key, []).append(
            record.latency * factor * 1000.0)
    typical = [median(latencies) for latencies in by_op.values()]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(pool) * 1000.0 / sum(map(sum, by_op.values())),
        "op_p50_ms": stats.percentile(typical, 50),
        "op_p90_ms": stats.percentile(typical, 90),
        "cpu_ms_per_op": sum(record.cpu * factor * 1000.0 for record, factor
                             in zip(pool, factors)) / len(pool),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"rounds": len(rounds), "rounds_kept": len(kept),
               "kept_ops": len(pool), "op_types": len(by_op)}
    return metrics, samples
