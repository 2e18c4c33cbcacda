#!/usr/bin/env python
"""``cProfile`` one round — or the set-up — of one perf-benchmark
workload.

Sets the workload up through ``benchmarks/perf/harness.py`` exactly as
``run.py`` does (imported, never edited), verifies it — which is also
the warm round: every distinct op runs once, so plan and parse caches
are hot — then runs one round of ops under :mod:`cProfile` and prints
the cumulative table.  With ``--setup`` the profiled subject is
``harness.set_up`` itself (generate, load, enrich, and for a star
workload ETL, column export and pool spawn): what ``setup_s`` is made
of.

Usage::

    python tools/profile_round.py --workload rollup_20k [--top 30]
    python tools/profile_round.py --workload rollup_20k \\
        --wall repro.sparql.aggregation.partials,repro.olap.kernel.partials
    python tools/profile_round.py --workload rollup_20k --setup \\
        --wall repro.rdf.graph.Graph.add_all
    python tools/profile_round.py --workload rollup_20k --steps
    make profile WORKLOAD=rollup_20k [TOP=30] [WALL=dotted.name,...] \\
        [SETUP=1] [STEPS=1]

``cProfile`` charges every Python call but not the work inside native
code, so the proportions lean against call-heavy code: find candidates
here, measure them with ``make perf`` / ``make perf-compare``.
``--wall`` sizes a candidate before that: the same round once more,
un-profiled, with a ``perf_counter`` wrapper around each named function
(``module.function`` or ``module.Class.method``, static and class
methods included; the class must define the method, not inherit it),
and their share of the round's wall clock — the number a claim should
be sized from (cProfile put ``aggregation.partials`` at 58 % of a
roll-up; it is 45 %).  Under it, the same round split by op kind, the
kinds in ``harness.UNGATED_KINDS`` starred: those ops run and are
verified in every round but stay out of ``ops_per_s`` /
``cpu_ms_per_op``, so each function's share of the *gated* time stands
beside its share of the round (on a 2-vCPU host the ETL is 15 % of a
``star_50k`` round and 36 % of what the contract's throughput pools).

``--steps`` prints, in place of the profile, the round's join steps as
a markdown table (docs/performance.md, "Range scan or keyed probe"):
every shared-variable ``JoinSteps._step_triple`` call by shape — the
strategy the step took (``append`` for a scanned range that lined up
with the table), table rows, distinct join keys, range entries, rows
out — with how often the shape occurs in the round, and the first step
of each shape replayed on its own table and source, ungoverned, best
of ``--repeat``: "append" is an ``append`` step as it ran (a scan, one
``np.array_equal``, the object column appended); "range scan" is the
step with ``hash`` forced and the append turned off (one read of the
pattern's whole range through the join kernel), "keyed probe" with
``probe`` forced (one read of all its distinct keys as array cells);
both of those include the join kernel.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import pstats
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
# the harness modules import each other by bare name
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]


def _resolve(dotted: str) -> Any:
    """The object ``dotted`` names: its longest importable prefix, then
    attributes.  A name that does not resolve is a :class:`LookupError`
    saying how far it got and what that object offers instead."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for at, name in enumerate(parts[cut:], cut):
            if not hasattr(found, name):
                offered = sorted(
                    attr for attr in dir(found) if not attr.startswith("_")
                    and callable(getattr(found, attr, None)))
                raise LookupError(
                    f"{dotted!r}: {'.'.join(parts[:at])!r} resolved, but "
                    f"has no {name!r}; its public callables: "
                    f"{', '.join(offered) or 'none'}")
            found = getattr(found, name)
        return found
    raise LookupError(f"{dotted!r}: no importable module in that name")


def _holders(dotted: str) -> List[Tuple[Any, Any]]:
    """``(holder, stored)`` for each place ``dotted``'s function is
    called through: its owner and every loaded module that imported it
    by name, with what that namespace holds under the name — the
    function itself, or the ``staticmethod`` / ``classmethod`` around
    it.  A name that is no function, or that nothing holds (an
    inherited method: the class that defines it does), is a
    :class:`LookupError` — wrapping it would time nothing."""
    found = _resolve(dotted)
    if not callable(found):
        raise LookupError(f"{dotted!r} resolved to {found!r}, not a "
                          f"function")
    function = getattr(found, "__func__", found)  # a classmethod binds
    owner, _, name = dotted.rpartition(".")
    held = []
    for holder in [_resolve(owner), *sys.modules.values()]:
        stored = getattr(holder, "__dict__", {}).get(name)
        if stored is function or isinstance(
                stored, (staticmethod, classmethod)) \
                and stored.__func__ is function:
            held.append((holder, stored))
    if not held:
        raise LookupError(
            f"{dotted!r} resolved to {found!r}, which no module or class "
            f"holds as {name!r} (an inherited method: name the class that "
            f"defines it)")
    return held


def timed(dotted: str, seconds: Dict[str, List[float]]
          ) -> Callable[[], None]:
    """Put a ``perf_counter`` wrapper in place of the function
    ``dotted`` names — on its owner and in every loaded module that
    imported it by name, a static or class method re-wrapped as one —
    appending each call's wall clock (callees included) to
    ``seconds[dotted]``.  Returns the undo."""
    held = _holders(dotted)
    stored = held[0][1]
    original = getattr(stored, "__func__", stored)
    calls = seconds.setdefault(dotted, [])

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            calls.append(time.perf_counter() - started)

    name = dotted.rpartition(".")[2]
    for holder, stored in held:
        setattr(holder, name, type(stored)(wrapper)
                if isinstance(stored, (staticmethod, classmethod))
                else wrapper)

    def undo() -> None:
        for holder, stored in held:
            setattr(holder, name, stored)
    return undo


def timed_round(run_op: Callable[[Any], Any], ops: Iterable[Any],
                seconds: Dict[str, List[float]], ungated: Iterable[str]
                ) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """Run ``ops`` one by one: ``(by_kind, gated)`` — each op's wall
    clock under its ``kind``, and per :func:`timed` name the seconds
    its calls took inside ops whose kind is not ``ungated``."""
    ungated = frozenset(ungated)
    by_kind: Dict[str, List[float]] = {}
    gated = dict.fromkeys(seconds, 0.0)
    for op in ops:
        marks = {name: len(calls) for name, calls in seconds.items()}
        started = time.perf_counter()
        run_op(op)
        by_kind.setdefault(op.kind, []).append(time.perf_counter() - started)
        if op.kind not in ungated:
            for name, calls in seconds.items():
                gated[name] += sum(calls[marks[name]:])
    return by_kind, gated


def wall_lines(wall: float, seconds: Dict[str, List[float]],
               by_kind: Dict[str, List[float]], gated: Dict[str, float],
               ungated: Iterable[str]) -> List[str]:
    """The ``--wall`` footer: per function its share of the round
    (``wall`` seconds) and, where the round was run op by op, of the
    gated time; then the round by op kind."""
    ungated = frozenset(ungated)
    gated_wall = sum(sum(took) for kind, took in by_kind.items()
                     if kind not in ungated)
    lines = [f"# the same again un-profiled: {wall * 1e3:.1f} ms wall "
             f"clock; per function, callees included"]
    for name, calls in seconds.items():
        share = f"{sum(calls) / wall:6.1%} of the round"
        if gated_wall:
            share += f" {gated[name] / gated_wall:6.1%} of the gated time"
        lines.append(f"{sum(calls) * 1e3:10.1f} ms {share} "
                     f"{len(calls):6d} calls  {name}")
    if by_kind:
        lines.append("# by op kind (* = in harness.UNGATED_KINDS: run and "
                     "verified, but outside ops_per_s / cpu_ms_per_op)")
        for kind, took in sorted(by_kind.items(),
                                 key=lambda item: -sum(item[1])):
            lines.append(f"{sum(took) * 1e3:10.1f} ms {sum(took) / wall:6.1%} "
                         f"{len(took):6d} ops    {kind}"
                         f"{' *' if kind in ungated else ''}")
        lines.append(f"{gated_wall * 1e3:10.1f} ms {gated_wall / wall:6.1%} "
                     f"gated")
    return lines


def step_table(subject: Callable[[], Any], repeat: int) -> None:
    """Run ``subject`` with :meth:`JoinSteps._step_triple` wrapped, and
    print its shared-variable steps by shape, each shape timed under
    both strategies."""
    from repro.sparql import evaluator_steps as steps

    original = steps.JoinSteps._step_triple
    #: shape -> [steps of that shape, append ms (``None``: not an
    #: append), range-scan ms, keyed-probe ms]
    shapes: Dict[tuple, List[Any]] = {}

    def best(evaluator: Any, forced: Any, *step: Any) -> float:
        """The step's best time: as it ran (``forced`` ``None``), or
        with the strategy forced and the append turned off."""
        if forced is not None:
            evaluator._prefer_hash = lambda *_: forced
            evaluator._aligned = lambda *_: False
        clock = []
        for _ in range(repeat):
            started = time.perf_counter()
            original(evaluator, *step)
            clock.append(time.perf_counter() - started)
        return min(clock) * 1e3

    def recording(self: Any, pattern: Any, source: Any, table: Any) -> Any:
        out = original(self, pattern, source, table)
        strategy = self._last_strategy
        spec, _names, _dead = self._compile_positions(
            pattern.positions(), table)
        slots = [slot for kind, slot in spec if kind == "v"]
        if not slots or not table:
            return out
        shape = (strategy, len(table),
                 len(set(zip(*(table.columns[slot].tolist()
                               for slot in slots)))),
                 source.estimate_ids(steps._base_pattern(spec)), len(out))
        if shape not in shapes:
            # the replay must not show in the request's trace
            step = (pattern, source, table)
            try:
                appended = best(self, None, *step) \
                    if strategy == "append" else None
                shapes[shape] = [0, appended, best(self, True, *step),
                                 best(self, False, *step)]
            finally:
                self.__dict__.pop("_prefer_hash", None)
                self.__dict__.pop("_aligned", None)
                self._last_strategy = strategy
        shapes[shape][0] += 1
        return out

    steps.JoinSteps._step_triple = recording  # type: ignore[method-assign]
    try:
        subject()
    finally:
        steps.JoinSteps._step_triple = original  # type: ignore[method-assign]
    print("| step took | table rows | distinct keys | range entries "
          "| rows out | steps | append, ms | range scan + kernel, ms "
          "| keyed probe + kernel, ms |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for shape in sorted(shapes, key=lambda shape: shape[1:]):
        count, appended, scan, probe = shapes[shape]
        print("| " + " | ".join(
            [str(cell) for cell in shape]
            + [str(count), "—" if appended is None else f"{appended:.3f}",
               f"{scan:.3f}", f"{probe:.3f}"]) + " |")
    print(f"# {sum(entry[0] for entry in shapes.values())} "
          f"shared-variable steps, {len(shapes)} shapes, best of {repeat}")


def main() -> int:
    import harness
    from spans import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup", action="store_true",
                        help="profile harness.set_up (generate, load, "
                             "enrich, star ETL) instead of a round")
    parser.add_argument("--top", type=int, default=30,
                        help="rows of the cumulative table")
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (cumulative, tottime, ...)")
    parser.add_argument("--steps", action="store_true",
                        help="print the round's join steps by shape, each "
                             "timed as a range scan and as a keyed probe, "
                             "instead of the profile")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed replays per strategy of --steps")
    parser.add_argument("--wall", default="", metavar="FUNC[,FUNC...]",
                        help="dotted names of functions to time, callees "
                             "included, in one more, un-profiled round")
    args = parser.parse_args()
    if args.steps and args.setup:
        parser.error("--steps tabulates a round's join steps; set-up has none")
    named = [name for name in args.wall.split(",") if name]
    for name in named:  # a typo costs a usage line, not a set-up
        try:
            _holders(name)
        except LookupError as error:
            parser.error(f"--wall {error}")

    workload = WORKLOADS[args.workload]

    def set_up() -> Any:
        return harness.set_up(workload.observations, args.seed,
                              workload.star, Tracer())

    def close(made: Any) -> None:
        if made is not None:
            harness.clean_up(made)

    cube = None
    try:
        if args.setup:
            # the subject is set-up itself; each run's cube is closed
            # outside the measured region
            subject, what = set_up, f"set-up of {args.workload}"
        else:
            cube = set_up()
            ops = workload.round_ops(random.Random(args.seed))
            harness.verify(cube, ops)
            what = f"one round of {args.workload}: {len(ops)} ops"

            def subject() -> None:
                for op in ops:
                    harness.run_op(cube, op)
        if args.steps:
            print(f"# {what} (seed {args.seed})")
            step_table(subject, args.repeat)
            return 0
        gc.collect()
        profile = cProfile.Profile()
        profile.enable()
        made = subject()
        profile.disable()
        close(made)
        seconds: Dict[str, List[float]] = {}
        by_kind: Dict[str, List[float]] = {}
        gated: Dict[str, float] = {}
        if named:
            undo = [timed(name, seconds) for name in named]
            gc.collect()
            started = time.perf_counter()
            if args.setup:
                made = subject()
            else:
                by_kind, gated = timed_round(
                    lambda op: harness.run_op(cube, op), ops, seconds,
                    harness.UNGATED_KINDS)
            wall = time.perf_counter() - started
            close(made)
            for restore in undo:
                restore()
    finally:
        close(cube)
    print(f"# {what} (seed {args.seed})")
    pstats.Stats(profile).strip_dirs().sort_stats(args.sort).print_stats(
        args.top)
    if named:
        print("\n".join(wall_lines(wall, seconds, by_kind, gated,
                                   harness.UNGATED_KINDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
