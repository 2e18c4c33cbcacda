"""``tools/profile_round.py`` refuses a mistyped ``--wall`` name — or
one it could not time — before it sets anything up, times static and
class methods as well as functions, reads ``--wall`` shares against
the gated op kinds as well as the round, and replays ``--steps`` both
ways — an append step as it ran, too."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_round.py"


@pytest.fixture
def profile_round(monkeypatch):
    """The tool as a module.  Importing it puts ``src`` and
    ``benchmarks/perf`` on the path, but only the first import does: the
    paths are put back here, so whichever test imports it first, all of
    them find ``harness``, and the test's undo takes them off again."""
    monkeypatch.syspath_prepend(str(TOOL.parent))
    monkeypatch.syspath_prepend(str(TOOL.parent.parent / "benchmarks"
                                    / "perf"))
    import profile_round
    return profile_round


@pytest.mark.parametrize("name, resolved, offered", [
    ("repro.sparql.evaluator_walker.SolutionWalker._filter_table",
     "'repro.sparql.evaluator_walker' resolved, but has no 'SolutionWalker'",
     "PatternEvaluator"),
    ("repro.sparql.executor.QLExecutor.run",
     "'repro.sparql' resolved, but has no 'executor'", "LocalEndpoint"),
    ("repro.sparql.aggregation.finalise",
     "'repro.sparql.aggregation' resolved, but has no 'finalise'",
     "finalize"),
    ("nosuch.module.function", "no importable module", ""),
    # resolves, but wrapping it would time nothing: ``Graph.__dict__``
    # holds no ``triples`` (the mixin does), and a constant is no call
    ("repro.rdf.graph.Graph.triples", "an inherited method", ""),
    ("repro.sparql.optimizer.HASH_MIN_ROWS", "not a function", ""),
])
def test_a_mistyped_wall_name_is_a_usage_error(name, resolved, offered):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "dice_20k", "--wall",
         f"repro.sparql.aggregation.partials,{name}"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "usage:" in done.stderr and "error: --wall" in done.stderr
    assert resolved in done.stderr and offered in done.stderr
    assert done.stdout == ""  # nothing was set up, nothing profiled


def test_static_and_class_methods_are_timed_in_kind(profile_round):
    """A class dict holds the ``staticmethod`` / ``classmethod`` object,
    not the function ``getattr`` answers: the wrapper goes back in as
    the same kind of descriptor, and every call through it counts."""
    from repro.rdf import IRI, Dataset, Literal
    from repro.rdf.columnar import TripleColumns
    from repro.sparql import LocalEndpoint
    from repro.sparql.aggregation import _Sum

    lift = "repro.sparql.aggregation._Sum.lift"
    build = "repro.rdf.columnar.TripleColumns.build"
    stored = _Sum.__dict__["lift"], TripleColumns.__dict__["build"]
    ex = "http://example.org/"
    dataset = Dataset()
    for index in range(5):
        dataset.default.add(IRI(f"{ex}s{index}"), IRI(f"{ex}v"),
                            Literal(index))
    endpoint = LocalEndpoint(dataset)
    seconds = {}
    undo = [profile_round.timed(name, seconds) for name in (lift, build)]
    try:
        assert isinstance(_Sum.__dict__["lift"], staticmethod)
        assert isinstance(TripleColumns.__dict__["build"], classmethod)
        table = endpoint.select(
            f"SELECT (SUM(?v) AS ?t) WHERE {{ ?s <{ex}v> ?v }}")
        columns = TripleColumns.build([(0, 1, 2), (3, 1, 2)])
    finally:
        for restore in undo:
            restore()
    assert len(seconds[lift]) == 5  # once per distinct value summed
    assert len(seconds[build]) == 1 and len(columns) == 2
    assert len(table) == 1
    assert (_Sum.__dict__["lift"], TripleColumns.__dict__["build"]) == stored


def test_wall_shares_are_read_against_the_gated_time(profile_round):
    """``ops_per_s`` pools only the gated op kinds, so a function's
    share of the *round* undersizes a claim on a workload with ungated
    ops (the ETL: 15 % of a ``star_50k`` round, 36 % of its gated
    time): the footer prints both, and the round by op kind."""
    from types import SimpleNamespace

    import harness

    seconds = {"etl.facts": [], "engine.fold": []}
    clock = {"etl": ("etl.facts", 0.06), "native": ("engine.fold", 0.01),
             "parallel": ("engine.fold", 0.02)}

    def run_op(op):
        name, took = clock[op.kind]
        seconds[name].append(took)

    ops = [SimpleNamespace(kind=kind)
           for kind in ("etl", "native", "parallel", "native", "parallel")]
    by_kind, gated = profile_round.timed_round(
        run_op, ops, seconds, harness.UNGATED_KINDS)
    assert {kind: len(took) for kind, took in by_kind.items()} \
        == {"etl": 1, "native": 2, "parallel": 2}
    # the fold's calls under the two parallel ops are not gated time
    assert gated == {"etl.facts": 0.06, "engine.fold": 0.02}

    by_kind = {"etl": [0.06], "native": [0.01, 0.01], "parallel": [0.02, 0.02]}
    lines = profile_round.wall_lines(0.12, seconds, by_kind, gated,
                                     harness.UNGATED_KINDS)
    facts, = [line for line in lines if line.endswith("etl.facts")]
    assert "50.0% of the round" in facts
    assert "75.0% of the gated time" in facts
    starred = [line.split()[-2] for line in lines if line.endswith(" *")]
    assert starred == sorted(harness.UNGATED_KINDS) == ["parallel"]
    assert lines[-1].split()[:4] == ["80.0", "ms", "66.7%", "gated"]
    # set-up has no ops: no split, no gated share
    bare = profile_round.wall_lines(0.12, seconds, {}, {}, ())
    assert len(bare) == 3 and "gated" not in "".join(bare)


def test_steps_replay_a_probe_step_as_a_scan_and_as_one_keyed_read(
        profile_round, capsys):
    """A 40-row table probing 40 keys is one shape, replayed with
    either strategy forced; the columns say what each replay read."""
    from repro.rdf import IRI, Dataset, Literal
    from repro.sparql import LocalEndpoint

    ex = "http://example.org/"
    dataset = Dataset()
    for index in range(40):
        dataset.default.add(IRI(f"{ex}s{index}"), IRI(f"{ex}p"),
                            IRI(f"{ex}o{index}"))
        for value in range(3):
            dataset.default.add(IRI(f"{ex}o{index}"), IRI(f"{ex}q"),
                                Literal(value))
    endpoint = LocalEndpoint(dataset)
    query = f"SELECT * WHERE {{ ?s <{ex}p> ?o . ?o <{ex}q> ?v }}"
    profile_round.step_table(lambda: endpoint.select(query), 1)
    header, rule, *rows, footer = capsys.readouterr().out.splitlines()
    assert header.split(" | ")[-2:] == ["range scan + kernel, ms",
                                        "keyed probe + kernel, ms |"]
    assert rule.count("---") == 9
    (row,) = rows
    picks, table_rows, keys, entries, out, steps = row.strip("| ").split(
        " | ")[:6]
    assert (picks, table_rows, keys, out, steps) \
        == ("probe", "40", "40", "120", "1")
    assert footer.startswith("# 1 shared-variable steps, 1 shapes")
    assert len(endpoint.select(query)) == 120


def test_steps_list_append_steps_as_their_own_shape(profile_round, capsys):
    """A star's arms after its constant-object arm are appends: one
    shape, timed as it ran and replayed as a range scan and a keyed
    probe with the append off — which the request's later steps do not
    inherit."""
    from repro.rdf import IRI, Dataset, Literal
    from repro.sparql import LocalEndpoint

    ex = "http://example.org/"
    dataset = Dataset()
    for index in range(80):
        subject = IRI(f"{ex}s{index}")
        dataset.default.add(subject, IRI(f"{ex}in"), IRI(f"{ex}set"))
        dataset.default.add(subject, IRI(f"{ex}a"), Literal(index))
        dataset.default.add(subject, IRI(f"{ex}b"), Literal(index % 7))
    endpoint = LocalEndpoint(dataset)
    query = (f"SELECT * WHERE {{ ?s <{ex}in> <{ex}set> . ?s <{ex}a> ?x . "
             f"?s <{ex}b> ?y }}")
    profile_round.step_table(lambda: endpoint.select(query), 1)
    _header, _rule, *rows, footer = capsys.readouterr().out.splitlines()
    (row,) = rows
    cells = row.strip("| ").split(" | ")
    assert cells[:6] == ["append", "80", "80", "80", "80", "2"]
    assert all(float(cell) > 0 for cell in cells[6:])
    assert footer.startswith("# 2 shared-variable steps, 1 shapes")
    tags = re.findall(r"\[(\w+)\]\s*$",
                      endpoint.explain(query, analyze=True), re.M)
    assert tags == ["analyzed", "scan", "append", "append"]
    assert len(endpoint.select(query)) == 80
