"""The repo-aware lint rules.

The suite has two shapes.  Most of it pins a finished unification:
"this call, name, attribute, assignment or literal appears only in
module Z (function F)".  Each such pin is one row of :data:`PINS`, and
one visitor (:meth:`PinnedRule.pinned`) evaluates every row; the next
unification adds a row, not a class.  The checks no row can state —
lock, snapshot and error discipline, dtype safety,
determinism, row loops, taint — are visitor classes, each scoped to the
files whose conventions it understands.  Rule ids are the
``# repro: allow[...]`` suppression keys; one id may own rows and a
visitor both.  ``docs/analysis.md`` lists every id with its scope and
reason.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, Union)

from analysis.lint import Finding, Rule

#: ``sparql/evaluator.py`` and the modules it was split into: the rules
#: written for "the evaluator" apply to the whole family, so a file
#: split cannot silently drop coverage
EVALUATOR_FAMILY = ("repro/sparql/evaluator.py",
                    "repro/sparql/evaluator_source.py",
                    "repro/sparql/evaluator_steps.py",
                    "repro/sparql/evaluator_walker.py")

SPARQL = "src/repro/sparql/"
STEPS = "src/repro/sparql/evaluator_steps.py"
WALKER = "src/repro/sparql/evaluator_walker.py"
GRAPH = "src/repro/rdf/graph.py"
QL_PARSER = "src/repro/ql/parser.py"
COLUMNAR = "src/repro/rdf/columnar.py"
ETL = "src/repro/olap/etl.py"


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(node: ast.AST,
              parents: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    while node in parents:
        node = parents[node]
        yield node


def enclosing_function(node: ast.AST, parents: Dict[ast.AST, ast.AST]
                       ) -> Optional[ast.FunctionDef]:
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _iterables(node: ast.AST) -> List[ast.AST]:
    """What ``node`` iterates over, if it is a ``for`` statement or a
    comprehension."""
    if isinstance(node, ast.For):
        return [node.iter]
    return [loop.iter for loop in getattr(node, "generators", ())]


def _reads(node: ast.AST, attr: str) -> bool:
    """Whether ``node`` reads an attribute named ``attr`` anywhere."""
    return any(isinstance(inner, ast.Attribute) and inner.attr == attr
               for inner in ast.walk(node))


def dotted_names(node: ast.AST) -> Set[str]:
    """Every plain and dotted name referenced inside ``node``."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            parts: List[str] = []
            current: ast.AST = sub
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                parts.append(current.id)
                names.add(".".join(reversed(parts)))
    return names


def called_names(node: ast.AST) -> Set[str]:
    """The (last-attribute or plain) names of every call in ``node``."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None.

    Only the literal ``self`` receiver counts: ``summary.epoch =
    self.epoch`` mutates a per-predicate summary, not graph state.
    """
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


# ---------------------------------------------------------------------------
# the pin table
# ---------------------------------------------------------------------------

#: a path prefix, or a path prefix and the name of an enclosing class,
#: function (``Class.method`` for one class's method) or assigned name
Place = Union[str, Tuple[str, str]]


class Pin(NamedTuple):
    """One "X appears only in Y" row.

    ``kind`` says what ``names`` are: ``call`` (the callee — a dotted
    name matches exactly, a bare one the last attribute), ``name`` (a
    name, an attribute, an import or a definition), ``attr`` (an
    attribute read, a ``self.<attr>`` aside), ``assign`` (a
    ``self.<attr> = …``) or ``const`` (a string literal).  A match
    inside ``scope`` and in no home is a finding; ``message`` may say
    ``{name}`` and ``{where}`` (the enclosing function).
    """

    rule: str
    kind: str
    names: Tuple[str, ...]
    scope: Tuple[Place, ...]
    message: str
    homes: Tuple[Place, ...] = ()
    #: a call must pass this keyword: a constant, or an AST node class
    keyword: Optional[Tuple[str, object]] = None
    #: a match counts only inside a ``for`` or a comprehension — when a
    #: name, one whose iterable reads an attribute of that name
    in_loop: Union[bool, str] = False

    def covers(self, path: str) -> bool:
        return any(path.startswith(_place(place)[0]) for place in self.scope)


PINS: Tuple[Pin, ...] = (
    Pin("one-process-pool", "name",
        ("multiprocessing", "shared_memory", "ProcessPoolExecutor"),
        scope=("src/repro/",), homes=("src/repro/rdf/shm.py",),
        message="`{name}` outside rdf/shm.py (take a `shm.SpawnPool` and "
                "`shm.export_arrays` / `attach_arrays`)"),
    Pin("single-locate", "call", ("Build",),
        scope=(SPARQL,), homes=((STEPS, "grouped"),),
        message="`Build(` outside `evaluator_steps.grouped` (index a build "
                "side through `grouped`, look keys up through `located` / "
                "`_matched`)"),
    Pin("single-locate", "call", ("searchsorted",),
        scope=(SPARQL,), homes=((STEPS, "located"),),
        message="`searchsorted(` outside `evaluator_steps.located` (index "
                "a build side through `grouped`, look keys up through "
                "`located` / `_matched`)"),
    Pin("single-grouping-kernel", "call", ("unique",),
        scope=("src/",), keyword=("axis", 0),
        message="`np.unique(..., axis=0)` sorts whole rows as one "
                "void-dtype key (group the columns with "
                "repro.grouping.group instead)"),
    Pin("single-grouping-kernel", "call", ("unique",),
        scope=(SPARQL,), keyword=("return_inverse", True),
        message="the distinct ids of a column come from "
                "repro.grouping.distinct (it counts dense ids; "
                "`np.unique(..., return_inverse=True)` sorts or hashes "
                "them)"),
    Pin("single-grouping-kernel", "call", ("lexsort",),
        scope=("src/",), homes=("src/repro/grouping.py",),
        message="`np.lexsort` outside repro/grouping.py (group through "
                "repro.grouping.group / sorted_runs; a sort that is not a "
                "grouping carries a pragma saying so)"),
    Pin("single-grouping-kernel", "call", ("at",),
        scope=("src/",), homes=("src/repro/grouping.py",),
        message="`ufunc.at` outside repro/grouping.py (fold values per "
                "group through repro.grouping.fold; first rows come from "
                "repro.grouping.group)"),
    Pin("single-sparql-aggregate", "const", ("SUM", "AVG", "MIN", "MAX"),
        scope=(SPARQL,),
        homes=(SPARQL + "aggregation.py", SPARQL + "tokenizer.py",
               (SPARQL, "AGGREGATE_NAMES")),
        message="aggregate name literal \"{name}\" outside "
                "sparql/aggregation.py (ask the accumulator: "
                "aggregation.accumulator / Plan)"),
    Pin("single-expression-loop", "call", ("row_decoder",),
        scope=(SPARQL,), homes=(SPARQL + "bindings.py", (WALKER, "decoded")),
        message="`row_decoder(...)` outside the final projection "
                "(evaluate through bindings.expression_column, which "
                "decodes only the cells an expression reads)"),
    Pin("single-expression-loop", "call", ("evaluate",),
        scope=(SPARQL,), homes=(SPARQL + "bindings.py",), in_loop="rows",
        message="`.evaluate(...)` inside a loop over `.rows` "
                "(bindings.expression_column evaluates once per distinct "
                "id tuple)"),
    Pin("columnar-join-step", "call", ("BindingTable",), scope=("src/",),
        message="`BindingTable(...)` builds a table from row tuples (build "
                "it around id columns: `BindingTable.of`)"),
    Pin("columnar-join-step", "attr", ("rows",),
        scope=(WALKER,), homes=((WALKER, "decoded"),),
        message="`.rows` read in {where} (the walker pairs tables through "
                "`evaluator_steps.paired` and reads columns; only "
                "`decoded` reads the row view)"),
    Pin("columnar-join-step", "call", ("fetch", "match_arrays"),
        scope=(STEPS,), in_loop=True,
        message="`{name}(` in a loop: one keyed read a step (hand storage "
                "the step's distinct keys as array cells)"),
    Pin("single-generation-install", "assign", ("_columns",),
        scope=(GRAPH,), homes=((GRAPH, "__init__"), (GRAPH, "_install")),
        message="`self._columns` assigned outside `_install` (swap a "
                "generation in through the one helper, which also settles "
                "the overlay it replaces)"),
    Pin("single-generation-install", "call", ("self.add",),
        scope=((GRAPH, "Graph"),), in_loop=True,
        message="`self.add(` in a loop inside `Graph` (hand the batch to "
                "`add_all`: one validation, one interning pass, one "
                "placement)"),
    Pin("incremental-compaction", "call", ("lexsort",),
        scope=(COLUMNAR,), homes=((COLUMNAR, "TripleColumns.__init__"),),
        message="`np.lexsort` outside `TripleColumns.__init__` (a fold "
                "sorts only its delta — build it as a `TripleColumns` — "
                "and merges it in by position)"),
    Pin("incremental-compaction", "call", ("_range",),
        scope=(COLUMNAR,), in_loop=True,
        message="`_range(` in a loop (locate many rows with one vectorized "
                "`_locate`, not a staged search each)"),
    Pin("storage-tiers-private", "name", ("_columns", "_delta", "_tombstones"),
        scope=("src/",), homes=(GRAPH,),
        message="storage tier `{name}` read outside repro/rdf/graph.py "
                "(ask the graph: match_arrays / count_ids / contains_id / "
                "folded_columns / tier_sizes)"),
    Pin("storage-tiers-private", "name",
        ("triples_ids", "graphs_disjoint", "_track_add", "_track_batch"),
        scope=("src/",),
        message="`{name}` is a second read path or a disjointness tracker "
                "(storage answers through match_arrays / count_ids / "
                "contains_id; a union dedups when two or more members "
                "matched)"),
    Pin("single-algebra-walker", "call", ("source.match",),
        scope=tuple("src/" + member for member in EVALUATOR_FAMILY),
        message="term-level scan `source.match(...)` in the evaluator "
                "family (join at the id level through the walker's steps)"),
    Pin("columnar-etl", "call", ("graph.objects", "graph.subjects"),
        scope=(ETL,), in_loop=True,
        message="`{name}(` in a loop (one `match_arrays` read of the "
                "predicate, joined through `_locator`)"),
    Pin("one-rdf-reader", "name",
        ("unescape_string", "parse_turtle", "parse_trig", "parse_ntriples",
         "iter_ntriples"),
        scope=("src/",),
        homes=(SPARQL + "tokenizer.py", SPARQL + "parser.py",
               (QL_PARSER, "_value")),
        message="`{name}` outside sparql/tokenizer.py and sparql/parser.py "
                "(RDF text is read by the SPARQL parser's triples grammar: "
                "`parse_document`, through `LocalEndpoint.load_trig`)"),
    Pin("columnar-etl", "call", ("sorted",),
        scope=(ETL,), keyword=("key", ast.Lambda),
        message="`sorted(…, key=<lambda>)` (take the keys once as a list "
                "and sort by `keys.__getitem__`; a handful of IRIs sorts "
                "by `key=str`)"),
    Pin("exact-constant-costs", "name",
        ("PredicateSummary", "Histogram", "build_predicate_summary",
         "predicate_summary"),
        scope=("src/",),
        message="`{name}` is a value summary (the planner prices a "
                "pattern's constants with StatisticsView.count, the exact "
                "match count the graphs answer)"),
    Pin("one-constraint-table", "name",
        ("validate_schema", "validate_instances", "SchemaViolation"),
        scope=("src/",),
        message="`{name}` checks a QB4OLAP cube in Python (state the "
                "check as a row of repro.qb.constraints' table — "
                "`cube_constraint_checks`, run by `check_constraint` — "
                "so it reads the published triples through SPARQL)"),
)


def _place(place: Place) -> Tuple[str, Optional[str]]:
    return (place, None) if isinstance(place, str) else place


def _at(path: str, enclosing: Set[str], places: Sequence[Place]) -> bool:
    return any(path.startswith(prefix) and (name is None or name in enclosing)
               for prefix, name in map(_place, places))


def _enclosing(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Set[str]:
    """What ``node`` sits inside: every enclosing class and function,
    ``Class.method`` for a method, and the names an enclosing
    assignment binds."""
    chain: List[str] = []
    for outer in ancestors(node, parents):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            chain.append(outer.name)
        elif isinstance(outer, ast.Assign):
            chain.extend(target.id for target in outer.targets
                         if isinstance(target, ast.Name))
    return set(chain) | {f"{outer}.{inner}"
                         for inner, outer in zip(chain, chain[1:])}


def _callee(func: ast.AST) -> List[str]:
    """A callee's dotted name (when rooted at a plain name) and its
    last part: ``["np.lexsort", "lexsort"]``."""
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.insert(0, func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.insert(0, func.id)
        return [".".join(parts), parts[-1]]
    return parts[-1:]


def _candidates(node: ast.AST, kind: str) -> List[Optional[str]]:
    """The names ``node`` offers to a row of ``kind``."""
    if kind == "call":
        return _callee(node.func) if isinstance(node, ast.Call) else []
    if kind == "const":
        return [node.value] if isinstance(node, ast.Constant) \
            and isinstance(node.value, str) else []
    if kind == "attr":
        return [node.attr] if isinstance(node, ast.Attribute) \
            and isinstance(node.ctx, ast.Load) \
            and _self_attr(node) is None else []
    if kind == "assign":
        if isinstance(node, ast.Assign):
            return [_self_attr(target) for target in node.targets]
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [_self_attr(node.target)]
        return []
    if isinstance(node, ast.Import):
        return [part for alias in node.names
                for part in alias.name.split(".")]
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".") \
            + [alias.name for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    return [node.attr] if isinstance(node, ast.Attribute) else []


def _passes(node: ast.AST, keyword: Optional[Tuple[str, object]]) -> bool:
    if keyword is None:
        return True
    name, value = keyword
    return any(given.arg == name and (
        isinstance(given.value, value) if isinstance(value, type)
        else isinstance(given.value, ast.Constant)
        and given.value.value == value)
        for given in getattr(node, "keywords", ()))


class PinnedRule(Rule):
    """A rule id and its rows of :data:`PINS`.

    A subclass adds the semantic check no row can state: ``visit``,
    run on the paths under ``visited``.
    """

    #: path prefixes a subclass's ``visit`` reads
    visited: Tuple[str, ...] = ()

    def __init__(self, rule_id: str = "") -> None:
        self.id = rule_id or self.id
        self.pins = [pin for pin in PINS if pin.rule == self.id]

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        return iter(())

    def applies_to(self, path: str) -> bool:
        return path.startswith(self.visited) \
            or any(pin.covers(path) for pin in self.pins)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        yield from self.pinned(path, tree, lines)
        if path.startswith(self.visited):
            yield from self.visit(path, tree, lines)

    def pinned(self, path: str, tree: ast.AST,
               lines: Sequence[str]) -> Iterator[Finding]:
        """The rows' findings; a node that breaks several rows is
        reported once, by the first."""
        pins = [pin for pin in self.pins if pin.covers(path)]
        if not pins:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for pin in pins:
                names = sorted(set(pin.names)
                               & set(_candidates(node, pin.kind)))
                if not names or not _passes(node, pin.keyword):
                    continue
                parents = parents or parent_map(tree)
                if pin.in_loop and not any(
                        pin.in_loop is True or _reads(iterable, pin.in_loop)
                        for outer in ancestors(node, parents)
                        for iterable in _iterables(outer)):
                    continue
                enclosing = _enclosing(node, parents)
                if not _at(path, enclosing, pin.scope) \
                        or _at(path, enclosing, pin.homes):
                    continue
                function = enclosing_function(node, parents)
                where = "module level" if function is None \
                    else f"`{function.name}`"
                for name in names:
                    yield self.finding(path, node, pin.message.format(
                        name=name, where=where), lines)
                break


class LockDisciplineRule(Rule):
    """Graph index state is mutated only under the write lock.

    The lock makes a mutation call atomic with respect to snapshot
    publication.  Assignments to, and mutating calls on, the protected
    attributes must sit in a ``with self._lock`` / ``locked()`` block,
    in ``__init__``, or in a helper whose docstring documents the lock
    contract (``"must hold the lock"`` et al.).
    """

    id = "lock-discipline"

    #: attributes making up Graph/Dataset index state
    PROTECTED = {"_delta", "_tombstones", "_columns", "_size", "_shared",
                 "_snapshot", "epoch", "_graphs"}
    #: method calls that mutate their receiver
    MUTATORS = {"add", "discard", "remove", "clear", "update", "pop",
                "setdefault", "append", "extend", "add_all"}
    #: docstring markers sanctioning a lock-holding helper
    LOCK_DOC_MARKERS = ("must hold the lock", "under the write lock",
                        "holding the lock", "lock is held",
                        "caller holds the lock")

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/rdf/graph.py")

    def _holds_lock(self, node: ast.AST,
                    parents: Dict[ast.AST, ast.AST]) -> bool:
        for ancestor in ancestors(node, parents):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    expr = item.context_expr
                    names = dotted_names(expr)
                    if ("self._lock" in names or "locked" in names
                            or "_lock" in names):
                        return True
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                if ancestor.name == "__init__":
                    return True  # construction precedes publication
                doc = ast.get_docstring(ancestor) or ""
                lowered = doc.lower()
                if any(marker in lowered
                       for marker in self.LOCK_DOC_MARKERS):
                    return True
        return False

    def _mutation(self, node: ast.AST) -> Optional[str]:
        """What ``node`` does to protected index state, if anything."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr in self.PROTECTED:
                    return f"assignment to protected index state `{attr}`"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in self.MUTATORS:
            attr = _self_attr(node.func.value)
            if attr in self.PROTECTED:
                return (f"mutating call `.{node.func.attr}()` on "
                        f"protected index state `{attr}`")
        return None

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        for node in ast.walk(tree):
            what = self._mutation(node)
            if what is not None and not self._holds_lock(node, parents):
                yield self.finding(
                    path, node,
                    f"{what} outside the write lock (wrap in `with "
                    f"self._lock:` or document the lock contract in "
                    f"the helper's docstring)", lines)


class SnapshotDisciplineRule(Rule):
    """Endpoint read methods evaluate a pinned snapshot, never the live
    ``self.dataset`` (a ``.snapshot()`` receiver aside): a live read
    tears under a concurrent writer."""

    id = "snapshot-discipline"

    READ_METHODS = {"select", "ask", "construct", "describe", "query",
                    "explain"}

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/sparql/endpoint.py")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and node.attr == "dataset"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                continue
            function = enclosing_function(node, parents)
            if function is None or function.name not in self.READ_METHODS:
                continue
            # sanctioned shape: self.dataset.snapshot()
            parent = parents.get(node)
            grand = parents.get(parent) if parent is not None else None
            if (isinstance(parent, ast.Attribute)
                    and parent.attr == "snapshot"
                    and isinstance(grand, ast.Call)
                    and grand.func is parent):
                continue
            yield self.finding(
                path, node,
                f"read method `{function.name}` touches the live "
                f"`self.dataset` (pin a snapshot via `self._pin()` / "
                f"`.snapshot()` instead)", lines)


class ErrorTaxonomyRule(Rule):
    """Typed errors only on the serving path.

    Callers catch :class:`SPARQLError` subclasses with machine-readable
    codes; ``except Exception`` or a raw builtin ``raise`` smuggles an
    untyped failure past that contract.  The endpoint's
    ``_mapped_errors`` wrapper, the taxonomy boundary, is pragma'd.
    """

    id = "error-taxonomy"

    RAW_RAISES = {"Exception", "BaseException", "RuntimeError"}

    def applies_to(self, path: str) -> bool:
        return path.endswith(("repro/sparql/endpoint.py",
                              "repro/olap/engine.py",
                              "repro/olap/kernel.py")
                             + EVALUATOR_FAMILY)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                broad = node.type is None or (
                    isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException"))
                if broad:
                    caught = (node.type.id
                              if isinstance(node.type, ast.Name)
                              else "everything")
                    yield self.finding(
                        path, node,
                        f"handler catches bare `{caught}` on the "
                        f"serving path (catch typed SPARQLError "
                        f"subclasses, or pragma the sanctioned "
                        f"wrapper)", lines)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) \
                        and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name in self.RAW_RAISES:
                    yield self.finding(
                        path, node,
                        f"raw `raise {name}` on the serving path "
                        f"(raise a typed EndpointError subclass with a "
                        f"machine-readable code)", lines)


class ColumnarDtypeSafetyRule(Rule):
    """No silent int64->int32 narrowing; no numpy over dict tiers.

    A hard-coded ``astype(np.int32)`` without a fits guard
    (``_dtype_for`` / ``np.iinfo``) truncates large dictionaries, and a
    numpy constructor handed the dict-of-dict-of-set overlay builds an
    object array that looks right and scans wrong.
    """

    id = "columnar-dtype-safety"

    #: enclosing-function references that prove the cast is guarded
    GUARDS = {"_dtype_for", "iinfo"}
    #: numpy constructors/ops that must not receive a dict tier
    NP_CONSUMERS = {"asarray", "array", "concatenate", "stack", "unique",
                    "sort", "lexsort", "searchsorted"}
    OVERLAY_TIERS = {"_delta", "overlay", "_tombstones", "spo", "pos",
                     "osp"}

    def applies_to(self, path: str) -> bool:
        return "repro/rdf/" in path or path.endswith(EVALUATOR_FAMILY)

    @staticmethod
    def _is_int32(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "int32":
            return True
        return isinstance(node, ast.Constant) and node.value == "int32"

    @staticmethod
    def _is_zero_length(call: ast.Call) -> bool:
        return bool(call.args) and isinstance(call.args[0], ast.Constant) \
            and call.args[0].value == 0

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            narrow = False
            if isinstance(func, ast.Attribute) and func.attr == "astype" \
                    and node.args and self._is_int32(node.args[0]):
                narrow = True
            for keyword in node.keywords:
                if keyword.arg == "dtype" and self._is_int32(keyword.value):
                    if not (isinstance(func, ast.Attribute)
                            and func.attr in ("empty", "zeros", "ones")
                            and self._is_zero_length(node)):
                        narrow = True
            if narrow:
                function = enclosing_function(node, parents)
                guard_scope = function if function is not None else tree
                if not (called_names(guard_scope) & self.GUARDS):
                    yield self.finding(
                        path, node,
                        "hard-coded int32 narrowing without a fits "
                        "guard (size the dtype via _dtype_for / "
                        "np.iinfo, or prove the range)", lines)
            # numpy over an overlay dict tier
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in ("np", "numpy") \
                    and func.attr in self.NP_CONSUMERS:
                for arg in node.args:
                    attr = _self_attr(arg)
                    if attr in self.OVERLAY_TIERS:
                        yield self.finding(
                            path, node,
                            f"numpy `{func.attr}` applied to overlay "
                            f"dict tier `{attr}` (materialize ids "
                            f"explicitly first — the overlay is a "
                            f"dict-of-dict-of-set, not an array)",
                            lines)


class TestDeterminismRule(Rule):
    """Tests and benchmarks are deterministic: no global-RNG calls
    (seed a ``random.Random`` / ``np.random.default_rng`` instead) and
    no wall-clock reads inside an assertion."""

    id = "test-determinism"

    RANDOM_FUNCS = {"random", "randint", "randrange", "choice", "choices",
                    "shuffle", "sample", "uniform", "gauss", "betavariate",
                    "expovariate", "normalvariate"}
    NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence"}
    WALL_CLOCK = {"time.time", "datetime.now", "datetime.utcnow",
                  "date.today"}

    def applies_to(self, path: str) -> bool:
        return path.startswith(("tests/", "benchmarks/"))

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Name):
                    owner, attr = func.value.id, func.attr
                    if owner == "random" and attr in self.RANDOM_FUNCS:
                        yield self.finding(
                            path, node,
                            f"global-RNG call `random.{attr}()` (use a "
                            f"seeded `random.Random(seed)` instance)",
                            lines)
                    elif owner == "random" and attr == "seed" \
                            and not node.args:
                        yield self.finding(
                            path, node,
                            "`random.seed()` without a seed value",
                            lines)
                elif isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Attribute) \
                        and func.value.attr == "random" \
                        and isinstance(func.value.value, ast.Name) \
                        and func.value.value.id in ("np", "numpy") \
                        and func.attr not in self.NP_RANDOM_OK:
                    yield self.finding(
                        path, node,
                        f"legacy global `np.random.{func.attr}` (use "
                        f"`np.random.default_rng(seed)`)", lines)
            elif isinstance(node, ast.Assert):
                clocks = dotted_names(node.test) & self.WALL_CLOCK
                if clocks:
                    yield self.finding(
                        path, node,
                        f"assertion depends on wall clock "
                        f"({', '.join(sorted(clocks))}) — capture "
                        f"times outside the assert or use injected "
                        f"clocks", lines)


class MutableDefaultRule(Rule):
    """No mutable default arguments in library code: one default is
    shared by every call of a long-lived endpoint."""

    id = "mutable-default"

    MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                     "Counter", "deque", "bytearray"}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def _mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self.MUTABLE_CALLS
        return False

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) \
                + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        path, default,
                        f"mutable default argument in `{node.name}` "
                        f"(default to None and create inside the "
                        f"body)", lines)


class AssertValidationRule(Rule):
    """``assert`` is not validation in library code: ``python -O``
    strips it.  ``assert isinstance(x, T)`` narrowing is allowed."""

    id = "assert-validation"

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if isinstance(test, ast.Call) \
                    and isinstance(test.func, ast.Name) \
                    and test.func.id == "isinstance":
                continue  # type-narrowing idiom
            yield self.finding(
                path, node,
                "assert used as validation in library code (raise a "
                "typed error instead; asserts vanish under -O)", lines)


class ParallelSafetyRule(Rule):
    """The star aggregator's workers stay shared-nothing.

    A worker is a spawned process: the module globals it reads are its
    own fresh copies and the parent's heap is not there, so the
    endpoint, a live graph, the star schema or a parent-side cache
    reads empty or stale.  A task carries all a worker may use: the
    fact columns' shared-memory manifest, a row range and the compiled
    plan.  In scope are the ``_worker*`` / ``attach_*`` functions of
    ``olap/parallel.py`` and ``rdf/shm.py``, and every function of
    ``olap/kernel.py`` and ``grouping.py``, which a worker runs end to
    end.
    """

    id = "parallel-safety"

    #: parent-process state a worker must never reference: the serving
    #: layer, live graph state, and the parent's module-level caches
    FORBIDDEN = {"LocalEndpoint", "Graph", "Dataset", "DatasetSnapshot",
                 "GraphSnapshot", "PLAN_CACHE", "CONCURRENCY",
                 "SHM_SEGMENTS", "FAILPOINTS",
                 "get_plan", "StarSchema", "NativeOLAPEngine"}

    #: modules that are worker-side from top to bottom
    WORKER_MODULES = ("repro/olap/kernel.py", "repro/grouping.py")

    def applies_to(self, path: str) -> bool:
        return path.endswith(("repro/olap/parallel.py",
                              "repro/rdf/shm.py") + self.WORKER_MODULES)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        whole_module = path.endswith(self.WORKER_MODULES)
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not whole_module \
                    and not scope.name.startswith(("_worker", "attach_")):
                continue
            touched = (dotted_names(scope) | called_names(scope)) \
                & self.FORBIDDEN
            if touched:
                yield self.finding(
                    path, scope,
                    f"worker-side `{scope.name}` touches parent-process "
                    f"state ({', '.join(sorted(touched))}) — a star "
                    f"aggregator worker is shared-nothing: ship what it "
                    f"needs in its task (manifest, row range, plan)",
                    lines)


class StorageTiersPrivateRule(PinnedRule):
    """``match_arrays`` always answers, in every physical state: a
    ``None`` test on its result is the first line of a second scan
    path."""

    id = "storage-tiers-private"
    visited = ("src/",)

    @staticmethod
    def _is_none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        #: names bound directly from a ``match_arrays(...)`` call
        results: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and "match_arrays" in called_names(node.value):
                results.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) \
                    and any(self._is_none(side) for side in
                            [node.left, *node.comparators]):
                for side in [node.left, *node.comparators]:
                    if (isinstance(side, ast.Name) and side.id in results) \
                            or "match_arrays" in called_names(side):
                        yield self.finding(
                            path, node,
                            "match_arrays() result compared with None "
                            "(it always answers: there is no second scan "
                            "path to fall back to)", lines)
                        break


class SingleAlgebraWalkerRule(PinnedRule):
    """``PatternEvaluator._walk`` is the one function that dispatches
    over the pattern-node classes: a second dispatch is a second
    interpreter, whose operators drift from the walker's and escape its
    failpoints and traces.  Modules that describe
    trees without evaluating them are exempt."""

    id = "single-algebra-walker"
    visited = (SPARQL,)

    PATTERN_NODES = {"BGP", "Join", "LeftJoin", "Union", "UnionNode",
                     "Minus", "Filter", "Extend", "ValuesNode",
                     "GraphNode", "SubSelectNode", "Empty"}
    #: a dispatch is a function testing at least this many node classes
    DISPATCH_WIDTH = 4
    DESCRIBERS = tuple(SPARQL + name for name in
                       ("algebra.py", "explain.py", "optimizer.py"))

    def _node_classes_tested(self, function: ast.AST) -> Set[str]:
        tested: Set[str] = set()
        for call in ast.walk(function):
            if isinstance(call, ast.Call) \
                    and isinstance(call.func, ast.Name) \
                    and call.func.id == "isinstance" \
                    and len(call.args) == 2:
                tested |= dotted_names(call.args[1]) & self.PATTERN_NODES
        return tested

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        if path.startswith(self.DESCRIBERS):
            return
        allowed = 1 if path.startswith(WALKER) else 0
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tested = self._node_classes_tested(node)
            if len(tested) < self.DISPATCH_WIDTH:
                continue
            if allowed:
                allowed -= 1
                continue
            yield self.finding(
                path, node,
                f"`{node.name}` dispatches over {len(tested)} "
                f"algebra node classes: the walker "
                f"(PatternEvaluator._walk) is the one function that "
                f"evaluates them — extend it, or seed it", lines)


class ColumnarJoinStepRule(PinnedRule):
    """The join steps and the column readers never loop over a
    ``.rows`` view: a loop there costs an object per solution where the
    id columns cost one numpy call.  In ``aggregation.py``'s readers a
    ``for`` calling ``step`` is the per-row fold, allowed only in its
    one general fallback."""

    id = "columnar-join-step"

    #: functions of other modules that read whole columns
    COLUMN_READERS = {
        SPARQL + "aggregation.py": ("partials", "_key_column", "_states"),
        SPARQL + "bindings.py": ("expression_column",)}

    visited = (STEPS, *COLUMN_READERS)

    @staticmethod
    def _reads_rows(node: ast.AST, aliases: Set[str]) -> bool:
        return _reads(node, "rows") or any(
            isinstance(inner, ast.Name) and inner.id in aliases
            for inner in ast.walk(node))

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        readers = next((names for home, names
                        in self.COLUMN_READERS.items()
                        if path.startswith(home)), None)
        for node in ast.walk(tree):
            iterables = _iterables(node)
            function = enclosing_function(node, parents) \
                if iterables else None
            if function is None:
                continue
            if readers is None and function.name == "_step_path" \
                    or readers is not None and function.name not in readers:
                continue
            if isinstance(node, ast.For) and readers is not None \
                    and "step" in called_names(node):
                yield self.finding(
                    path, node,
                    f"`step` called a row at a time in `{function.name}` "
                    f"(fold the column whole — `_Accumulator.columns` — "
                    f"and leave the rest to the one general fallback)",
                    lines)
            # local names bound to a ``.rows`` view: ``rows = table.rows``
            aliases = {
                target.id for assign in ast.walk(function)
                if isinstance(assign, ast.Assign)
                and self._reads_rows(assign.value, set())
                for target in assign.targets
                if isinstance(target, ast.Name)}
            for iterable in iterables:
                if self._reads_rows(iterable, aliases):
                    yield self.finding(
                        path, iterable,
                        f"loop over a `.rows` view in `{function.name}` "
                        f"(read `table.columns[slot]` — the join "
                        f"kernel, `column_cells` — instead)", lines)


class IncrementalCompactionRule(PinnedRule):
    """The tombstones are a hash index: in ``rdf/graph.py`` a read
    asks them with a pattern, and only ``_unshare`` (the COW clone) and
    ``folded_columns`` (the hand-off to ``merged``) walk them whole;
    anywhere else a write would cost the size of the graph."""

    id = "incremental-compaction"
    visited = (GRAPH,)

    #: the functions of ``graph.py`` that may read every tombstone
    WALKERS = {"_unshare", "folded_columns"}
    #: whole-index reads when called with no pattern
    READS = {"ids", "arrays"}

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        for node in ast.walk(tree):
            function = enclosing_function(node, parents)
            if function is not None and function.name in self.WALKERS:
                continue
            if any(_reads(iterable, "_tombstones")
                   for iterable in _iterables(node)):
                yield self.finding(
                    path, node,
                    "loop over the tombstones (ask the index: "
                    "`_tombstones.has` / `.count(pattern)` / "
                    "`.ids(pattern)` answer in O(matches))", lines)
            elif isinstance(node, ast.Call) and not node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.READS \
                    and _reads(node.func.value, "_tombstones"):
                yield self.finding(
                    path, node,
                    f"`_tombstones.{node.func.attr}()` reads every "
                    f"tombstone (pass the pattern being answered)", lines)


class ColumnarEtlRule(PinnedRule):
    """``olap/etl.py`` runs nothing once per observation or member: no
    ``for`` writes a numpy array one element per iteration, and in
    ``_by_value`` / ``_level`` no ``dictionary.decode`` runs over the
    ids a ``match_arrays`` read returned (the dictionary's value ranks
    order them undecoded).  A loop over dimensions, levels or measures
    with a vectorized body is the module's shape."""

    id = "columnar-etl"
    visited = (ETL,)

    #: the functions numbering subjects by value, whose ids a
    #: ``match_arrays`` read hands out
    NUMBERING = {"_by_value", "_level"}

    @staticmethod
    def _numpy_locals(scope: ast.AST) -> Set[str]:
        """Names ``scope`` binds to the result of an ``np.…(`` call."""
        names: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and isinstance(value.func.value, ast.Name) \
                    and value.func.value.id == "np":
                names.update(target.id for target in targets
                             if isinstance(target, ast.Name))
        return names

    def visit(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterator[Finding]:
        parents = parent_map(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                yield from self._check_loop(path, node, parents, lines)
            elif isinstance(node, ast.FunctionDef) \
                    and node.name in self.NUMBERING:
                yield from self._check_decodes(path, node, lines)

    @staticmethod
    def _read_ids(function: ast.FunctionDef) -> Set[str]:
        """Names ``function`` binds — by assignment or as a
        comprehension's target — to a ``match_arrays(`` read's result
        or to something computed from another such name."""
        bindings = [(node.targets, node.value) for node in ast.walk(function)
                    if isinstance(node, ast.Assign)]
        bindings += [([node.target], node.iter) for node in ast.walk(function)
                     if isinstance(node, ast.comprehension)]
        read: Set[str] = set()
        grown = True
        while grown:
            grown = False
            for targets, value in bindings:
                if "match_arrays" not in called_names(value) \
                        and not read & dotted_names(value):
                    continue
                names = {name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)}
                grown = grown or not names <= read
                read |= names
        return read

    def _check_decodes(self, path: str, function: ast.FunctionDef,
                       lines: Sequence[str]) -> Iterator[Finding]:
        read = self._read_ids(function)
        aliases = {target.id for node in ast.walk(function)
                   if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "decode"
                   for target in node.targets if isinstance(target, ast.Name)}

        def decoder(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute)
                    and node.attr == "decode") \
                or (isinstance(node, ast.Name) and node.id in aliases)

        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "map" \
                    and node.args and decoder(node.args[0]):
                data = node.args[1:]
            elif decoder(node.func):
                data = node.args
            else:
                continue
            if any("match_arrays" in called_names(arg)
                   or read & dotted_names(arg) for arg in data):
                yield self.finding(
                    path, node,
                    f"`dictionary.decode` over the ids a `match_arrays` "
                    f"read returned, in `{function.name}` (order them by "
                    f"`dictionary.value_ranks(ids)`; decode only the "
                    f"members `_level` returns)", lines)

    def _check_loop(self, path: str, loop: ast.For,
                    parents: Dict[ast.AST, ast.AST],
                    lines: Sequence[str]) -> Iterator[Finding]:
        counters = {name.id for name in ast.walk(loop.target)
                    if isinstance(name, ast.Name)}
        arrays = self._numpy_locals(
            enclosing_function(loop, parents) or loop)
        for statement in loop.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in arrays \
                            and counters & {
                                name.id for name in ast.walk(target.slice)
                                if isinstance(name, ast.Name)}:
                        yield self.finding(
                            path, node,
                            f"`{target.value.id}[…] = …` once per "
                            f"iteration of a `for` (one fancy "
                            f"assignment: `array[indices] = values`)",
                            lines)


ALL_RULES: List[Rule] = [
    LockDisciplineRule(),
    SnapshotDisciplineRule(),
    ErrorTaxonomyRule(),
    ColumnarDtypeSafetyRule(),
    TestDeterminismRule(),
    MutableDefaultRule(),
    AssertValidationRule(),
    ParallelSafetyRule(),
    StorageTiersPrivateRule(),
    SingleAlgebraWalkerRule(),
    PinnedRule("single-sparql-aggregate"),
    PinnedRule("single-expression-loop"),
    ColumnarJoinStepRule(),
    PinnedRule("single-grouping-kernel"),
    PinnedRule("single-generation-install"),
    IncrementalCompactionRule(),
    PinnedRule("single-locate"),
    ColumnarEtlRule(),
    PinnedRule("one-process-pool"),
    PinnedRule("one-rdf-reader"),
    PinnedRule("exact-constant-costs"),
    PinnedRule("one-constraint-table"),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
