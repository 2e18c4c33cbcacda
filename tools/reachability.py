#!/usr/bin/env python
"""Which ``src/repro`` functions does the paper's pipeline reach?

Runs the pipeline's entry points as subprocesses: E1–E11
(``benchmarks/bench_e*.py`` under ``--benchmark-disable``), every
``examples/*.py``, every ``repro`` sub-command and each contract
workload (``BENCHMARK.json``) for a few seconds.  A ``sitecustomize``
put first on ``PYTHONPATH`` installs a ``sys.setprofile`` /
``threading.setprofile`` hook in each of them — spawned workers
included — that logs every ``src/repro`` code object the first time it
is called.  With ``--tests`` tier-1 runs the same way.  The functions
found by walking the source are then split three ways:

* **pipeline** — called by at least one entry point;
* **tests only** — called only under tier-1 (with ``--tests``);
* **unreached** — called by neither.

Prints one markdown row per module with each bucket's function count
and body lines (a function's lines less those of functions nested in
it), then a total; ``--names`` lists the functions off the pipeline.
A run that exits other than expected (``repro validate`` exits 1 on
the demo cube, every other run 0) would leave its functions off the
pipeline, so the table is not printed: the runs are listed and the
tool exits 1.

Usage::

    python tools/reachability.py [--tests] [--names] [--work DIR]

The pipeline took about 5 min on a 2-vCPU host, 11 with ``--tests``:
the hook is called on every Python call.  Like ``make bench``, the
E1–E11 run rewrites the tracked reports under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: (source file, first line of the code object) — a decorated
#: function's code starts at its first decorator
Key = Tuple[str, int]

#: a command and the exit code it should end with
Run = Tuple[List[str], int]

#: run time of each contract workload, in seconds
WORKLOAD_SECONDS = 3.0

HOOK = '''\
import os
import sys
import threading

_PREFIX = os.environ["REPRO_REACH_PREFIX"]
_seen = set()
_log = open(os.path.join(os.environ["REPRO_REACH_DIR"],
                         "%d.log" % os.getpid()), "a", buffering=1)


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PREFIX):
                _log.write("%s\\t%d\\n" % (code.co_filename,
                                          code.co_firstlineno))


sys.setprofile(_hook)
threading.setprofile(_hook)
'''

SPARQL_QUERY = """\
PREFIX qb: <http://purl.org/linked-data/cube#>
SELECT ?dataset (COUNT(?obs) AS ?n)
WHERE { ?obs qb:dataSet ?dataset } GROUP BY ?dataset
"""

#: the sub-command runs and their exit codes: ``validate`` exits 1
#: because the W3C suite flags IC-4 on every demo cube
CLI_RUNS: List[Run] = [
    (["demo"], 0), (["enrich"], 0), (["explore"], 0),
    (["query"], 0), (["query", "--variant", "direct", "--show-sparql"], 0),
    (["query", "--variant", "optimized"], 0),
    (["sparql", "--query", "{query}"], 0),
    (["sparql", "--query", "{query}", "--explain"], 0),
    (["validate"], 1), (["drillacross"], 0),
    (["render", "--view", "schema"], 0),
    (["render", "--view", "instances"], 0),
]


@dataclass
class Function:
    module: str
    name: str
    key: Key
    lines: int


def functions(package: Path = PACKAGE) -> List[Function]:
    """Every ``def`` under ``package``, with its exclusive body lines."""
    found: List[Function] = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = path.relative_to(package.parent).as_posix()

        def visit(node: ast.AST, prefix: str) -> int:
            """Record the defs under ``node``; their total span."""
            nested = 0
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    span = child.end_lineno - first + 1
                    inner = visit(child, f"{prefix}{child.name}.")
                    found.append(Function(module, prefix + child.name,
                                          (str(path), first), span - inner))
                    nested += span
                elif isinstance(child, ast.ClassDef):
                    nested += visit(child, f"{prefix}{child.name}.")
                else:
                    nested += visit(child, prefix)
            return nested

        visit(tree, "")
    return found


def pipeline_runs(work: Path) -> List[Run]:
    """E1–E11, the examples, the CLI and the contract workloads."""
    python = sys.executable
    query = work / "query.rq"
    query.write_text(SPARQL_QUERY)
    runs: List[Run] = [([python, "-m", "pytest", "-q", "-p",
                         "no:cacheprovider", "--benchmark-disable",
                         *sorted(str(path) for path in
                                 (ROOT / "benchmarks").glob("bench_e*.py"))],
                        0)]
    runs += [([python, str(path)], 0)
             for path in sorted((ROOT / "examples").glob("*.py"))]
    runs += [([python, "-m", "repro",
               *(arg.format(query=query) for arg in args),
               "--observations", "400"], code) for args, code in CLI_RUNS]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs += [([python, str(ROOT / "benchmarks" / "perf" / "run.py"),
               "--workload", workload["name"], "--seed", "1",
               "--seconds", str(WORKLOAD_SECONDS)], 0)
             for workload in contract["workloads"]]
    return runs


def trace(runs: Iterable[Run], work: Path,
          echo: bool = True) -> Tuple[Set[Key], List[str]]:
    """Run each command under the hook: the code objects they called,
    and one line per run whose exit code was not the expected one."""
    hook = work / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK)
    logs = Path(tempfile.mkdtemp(prefix="logs-", dir=work))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(ROOT / "src")]
        + [entry for entry in [env.get("PYTHONPATH")] if entry])
    env["REPRO_REACH_PREFIX"] = str(PACKAGE) + os.sep
    env["REPRO_REACH_DIR"] = str(logs)
    unexpected: List[str] = []
    for command, expected in runs:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True)
        shown = " ".join(Path(part).name if os.sep in part else part
                         for part in command[1:])
        if done.returncode != expected:
            unexpected.append(f"exit {done.returncode} (expected "
                              f"{expected}): {shown}")
        if echo:
            print(f"exit {done.returncode}: {shown}", file=sys.stderr,
                  flush=True)
            if done.returncode != expected:
                print(done.stderr[-2000:] or done.stdout[-2000:],
                      file=sys.stderr, flush=True)
    reached: Set[Key] = set()
    for log in logs.glob("*.log"):
        for line in log.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            reached.add((filename, int(first)))
    return reached, unexpected


def buckets(found: List[Function], pipeline: Set[Key],
            tests: Optional[Set[Key]]) -> Dict[str, List[Function]]:
    """``pipeline`` / ``tests only`` / ``unreached`` — or, without a
    tests trace, ``pipeline`` / ``off the pipeline``."""
    if tests is None:
        return {"pipeline": [f for f in found if f.key in pipeline],
                "off the pipeline": [f for f in found
                                     if f.key not in pipeline]}
    split: Dict[str, List[Function]] = {
        "pipeline": [], "tests only": [], "unreached": []}
    for function in found:
        if function.key in pipeline:
            split["pipeline"].append(function)
        elif function.key in tests:
            split["tests only"].append(function)
        else:
            split["unreached"].append(function)
    return split


def table(split: Dict[str, List[Function]]) -> str:
    """One markdown row per module: functions / body lines per bucket."""
    names = list(split)
    counts: Dict[str, Dict[str, List[int]]] = {}
    for bucket, members in split.items():
        for function in members:
            cell = counts.setdefault(function.module, {
                name: [0, 0] for name in names})[bucket]
            cell[0] += 1
            cell[1] += function.lines
    total = {name: [len(split[name]), sum(f.lines for f in split[name])]
             for name in names}
    header = "| module | " + " | ".join(names) + " |"
    rows = [header, "| --- |" + " --- |" * len(names)]
    for module in sorted(counts):
        rows.append(f"| `{module}` | " + " | ".join(
            f"{counts[module][name][0]} / {counts[module][name][1]}"
            for name in names) + " |")
    rows.append("| **total** | " + " | ".join(
        f"**{total[name][0]} / {total[name][1]}**" for name in names) + " |")
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 under the hook")
    parser.add_argument("--names", action="store_true",
                        help="list the functions off the pipeline")
    parser.add_argument("--work", help="scratch directory (default: a "
                        "temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.work) as scratch:
        work = Path(scratch)
        pipeline, unexpected = trace(pipeline_runs(work), work)
        tests = None
        if args.tests:
            tests, failed = trace([([sys.executable, "-m", "pytest", "-q",
                                     "-p", "no:cacheprovider", "tests"], 0)],
                                  work)
            unexpected += failed
    if unexpected:
        print("not tabulated: these runs did not exit as expected",
              file=sys.stderr)
        for line in unexpected:
            print(f"  {line}", file=sys.stderr)
        return 1
    split = buckets(functions(), pipeline, tests)
    print(table(split))
    if args.names:
        for bucket in list(split)[1:]:
            print(f"\n{bucket}:")
            for function in split[bucket]:
                print(f"  {function.module}: {function.name} "
                      f"({function.lines})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
