"""The repo-aware lint rules.

Each rule encodes one hand-enforced discipline of the engine as a
mechanical check.  They are deliberately scoped to the files whose
conventions they understand (see each rule's ``applies_to``) — this is
a repo linter, not a general-purpose one.

Rule catalog (ids are the ``# repro: allow[...]`` suppression keys):

``lock-discipline``
    Graph/Dataset index state may only be mutated under the write lock
    (``with self._lock`` / a helper documented to hold it).
``snapshot-discipline``
    Endpoint read paths must evaluate against pinned snapshots, never
    the live dataset.
``governor-discipline``
    Evaluator functions that consume scan/match batches must charge
    the governor.
``error-taxonomy``
    No ``except Exception`` and no raw builtin raises on the
    endpoint/evaluator/governor paths outside the sanctioned wrappers.
``columnar-dtype-safety``
    No silent int64->int32 narrowing; no numpy ops on overlay dict
    tiers.
``test-determinism``
    No unseeded global randomness, no wall-clock-dependent assertions
    in tests/benchmarks.
``mutable-default``
    No mutable default arguments anywhere in ``src/``.
``assert-validation``
    No ``assert``-as-validation in non-test code (isinstance
    narrowing excepted).
``parallel-safety``
    Worker-side code of the parallel star aggregator (``_worker*``
    functions, ``_Worker*`` classes, ``attach_*`` helpers, and every
    function of the star-query kernel and the grouping module) must
    stay shared-nothing: no endpoint, live graph/dataset/star-schema
    state, or parent module caches.
``storage-tiers-private``
    Under ``src/``, a graph's storage tiers (``_columns``,
    ``_delta``, ``_tombstones``)
    are read only inside ``repro/rdf/graph.py``, and a
    ``match_arrays(...)`` result is never compared with ``None``.
``single-algebra-walker``
    Under ``src/repro/sparql/`` one function evaluates the algebra:
    only ``PatternEvaluator._walk`` dispatches over the pattern-node
    classes, and no evaluator-family function scans at term level
    (``source.match(...)``).
``single-sparql-aggregate``
    Under ``src/repro/sparql/`` only ``aggregation.py`` says what SUM,
    AVG, MIN and MAX compute: the name literals appear nowhere else but
    the tokenizer's keyword list and ``AGGREGATE_NAMES``.
``single-expression-loop``
    Under ``src/repro/sparql/`` only ``bindings.expression_column``
    evaluates an expression over the rows of an id table: no
    ``.evaluate(`` inside a ``for`` over a ``.rows`` attribute, and no
    ``row_decoder(`` call but the final projection's, anywhere else.
``columnar-join-step``
    The join steps and the column readers of ``aggregation.py`` /
    ``bindings.py`` never loop over a ``.rows`` view, and the grouped
    fold steps a row at a time only in its one general fallback; the
    walker reads ``.rows`` only in ``decoded``, and nothing under
    ``src/`` calls ``BindingTable(`` (tables are built with ``of``).
``single-grouping-kernel``
    Under ``src/`` only ``repro/grouping.py`` groups rows by several
    key columns: no ``np.unique(..., axis=0)`` anywhere, no
    ``np.lexsort`` outside it.  Under ``src/repro/sparql/`` it also
    says which distinct ids a column holds (``grouping.distinct``): no
    ``np.unique(..., return_inverse=True)`` beside it.
``single-generation-install``
    In ``repro/rdf/graph.py`` a column generation is swapped in by one
    helper (``self._columns = …`` only in ``__init__`` and
    ``_install``), and no method of ``Graph`` loops over ``self.add(``.
``incremental-compaction``
    A write costs what it changes: in ``repro/rdf/columnar.py``
    ``np.lexsort`` runs only in ``TripleColumns.__init__`` and no loop
    calls ``_range``; in ``repro/rdf/graph.py`` nothing walks the whole
    tombstone index but ``_unshare`` and the hand-off to ``merged``.
``single-locate``
    Under ``src/repro/sparql/`` one place indexes a join's build side
    and one looks keys up in it: ``Build(`` is constructed only in
    ``evaluator_steps.grouped``, ``np.searchsorted`` called only in
    ``evaluator_steps.located``.
``columnar-etl``
    ``repro/olap/etl.py`` runs no statement once per observation or
    member: no ``sorted(…, key=<lambda>)``, no ``for`` that writes a
    numpy array one element per iteration, no ``graph.objects(`` /
    ``graph.subjects(`` read inside a loop, and in ``_by_value`` /
    ``_level`` no ``dictionary.decode`` over the ids a
    ``match_arrays`` read returned.
``one-process-pool``
    Under ``src/repro`` only ``repro/rdf/shm.py`` names
    ``multiprocessing``, ``shared_memory`` or ``ProcessPoolExecutor``:
    one place builds worker processes and shared segments.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from analysis.lint import Finding, Rule

#: ``sparql/evaluator.py`` and the modules it was split into: the rules
#: written for "the evaluator" apply to the whole family, so a file
#: split cannot silently drop coverage
EVALUATOR_FAMILY = ("repro/sparql/evaluator.py",
                    "repro/sparql/evaluator_source.py",
                    "repro/sparql/evaluator_steps.py",
                    "repro/sparql/evaluator_walker.py")

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


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


def enclosing_class(node: ast.AST, parents: Dict[ast.AST, ast.AST]
                    ) -> Optional[ast.ClassDef]:
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


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

    Restricting to the literal ``self`` receiver keeps the protected-
    attribute rules precise: ``summary.epoch = self.epoch`` mutates a
    per-predicate summary, not graph index state, and must not fire.
    """
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


class LockDisciplineRule(Rule):
    """Index-state mutation only under the write lock.

    The snapshot-epoch protocol (PR 5) requires every mutation of a
    graph's id-keyed index state to happen with the per-dataset write
    lock held: the lock is what makes a mutation call an atomic unit
    w.r.t. snapshot publication.  This rule flags any assignment to, or
    mutating call on, the protected attributes outside a ``with
    self._lock`` / ``locked()`` block — unless the enclosing helper's
    docstring documents the lock contract (``"must hold the lock"`` et
    al.), which is how ``_compact`` / ``_unshare`` are sanctioned.
    """

    id = "lock-discipline"
    title = "graph index state mutated only under the write lock"
    rationale = ("unlocked index mutation tears pinned snapshots and "
                 "breaks the atomic-batch guarantee of add_all/locked()")

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

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            if not self._holds_lock(node, parents):
                findings.append(self.finding(
                    path, node,
                    f"{what} outside the write lock (wrap in `with "
                    f"self._lock:` or document the lock contract in "
                    f"the helper's docstring)", lines))

        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = _self_attr(target)
                    if attr in self.PROTECTED:
                        flag(node, f"assignment to protected index "
                                   f"state `{attr}`")
                        break
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in self.MUTATORS:
                    attr = _self_attr(func.value)
                    if attr in self.PROTECTED:
                        flag(node, f"mutating call `.{func.attr}()` on "
                                   f"protected index state `{attr}`")
        return findings


# ---------------------------------------------------------------------------
# snapshot-discipline
# ---------------------------------------------------------------------------


class SnapshotDisciplineRule(Rule):
    """Endpoint read paths evaluate pinned snapshots, not live state.

    Every read request must pin a :class:`DatasetSnapshot` (via
    ``self._pin()`` or ``dataset.snapshot()``) and evaluate entirely
    against it — handing the *live* dataset to an evaluation context
    reintroduces torn reads under concurrent writers.  The rule flags
    any use of ``self.dataset`` inside the read-path methods that is
    not a ``.snapshot()`` receiver.
    """

    id = "snapshot-discipline"
    title = "read paths must evaluate against pinned snapshots"
    rationale = ("a live-index read races concurrent writers: results "
                 "can tear mid-query, which snapshot isolation exists "
                 "to prevent")

    READ_METHODS = {"select", "ask", "construct", "describe", "query",
                    "explain"}

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/sparql/endpoint.py")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
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
            findings.append(self.finding(
                path, node,
                f"read method `{function.name}` touches the live "
                f"`self.dataset` (pin a snapshot via `self._pin()` / "
                f"`.snapshot()` instead)", lines))
        return findings


# ---------------------------------------------------------------------------
# governor-discipline
# ---------------------------------------------------------------------------


class GovernorDisciplineRule(Rule):
    """Batch-consuming evaluator code must charge the governor.

    Deadlines/budgets are enforced *cooperatively* at batch boundaries
    (PR 6): a new loop that pulls scan or match batches without
    charging the governor is invisible to limits and can run away.
    The rule flags any evaluator function that calls a *raw* batch
    producer — the uncharged id-level reads ``match_ids`` /
    ``match_arrays`` / ``triples_ids`` — without referencing the
    governor (a charge call or ``self._gov``) anywhere in its body.
    Internally-charged producers (``_scan_chunks``, ``_vector_matches``,
    ``stream_tables``) pay at production time, so consuming *them*
    needs no further charge; and functions that merely *delegate* a
    producer (``match_arrays`` forwarding to a member graph) are
    exempt.
    """

    id = "governor-discipline"
    title = "batch consumers must charge the governor"
    rationale = ("an uncharged batch loop escapes deadlines and "
                 "budgets: one such query can hold a slot forever")

    BATCH_PRODUCERS = {"match_arrays", "triples_ids", "match_ids"}
    GOVERNOR_MARKS = {"charge_rows", "charge_scan", "tick_scan", "check",
                      "metered", "_gov", "governor"}

    def applies_to(self, path: str) -> bool:
        return path.endswith(EVALUATOR_FAMILY)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name in self.BATCH_PRODUCERS:
                continue  # delegation wrapper, charged by its consumer
            produced = called_names(node) & self.BATCH_PRODUCERS
            if not produced:
                continue
            names = dotted_names(node) | called_names(node)
            if names & self.GOVERNOR_MARKS:
                continue
            findings.append(self.finding(
                path, node,
                f"`{node.name}` consumes scan/match batches "
                f"({', '.join(sorted(produced))}) without charging the "
                f"governor (charge_rows/charge_scan/tick_scan or "
                f"metered())", lines))
        return findings


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------


class ErrorTaxonomyRule(Rule):
    """Typed errors only on the serving path.

    Callers of the endpoint catch :class:`SPARQLError` subclasses with
    machine-readable codes; a ``except Exception`` handler or a raw
    builtin ``raise`` smuggles untyped failures past that contract.
    The one sanctioned ``except Exception`` is the endpoint's
    ``_mapped_errors`` wrapper — it carries an ``allow`` pragma and a
    comment explaining that it *is* the taxonomy boundary.
    """

    id = "error-taxonomy"
    title = "no bare except/raise on the serving path"
    rationale = ("the endpoint contract is typed SPARQLError subclasses "
                 "with stable codes; bare handlers and builtin raises "
                 "leak engine internals to callers")

    RAW_RAISES = {"Exception", "BaseException", "RuntimeError"}

    def applies_to(self, path: str) -> bool:
        return path.endswith(("repro/sparql/endpoint.py",
                              "repro/sparql/governor.py",
                              "repro/olap/engine.py",
                              "repro/olap/kernel.py")
                             + EVALUATOR_FAMILY)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                broad = node.type is None or (
                    isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException"))
                if broad:
                    caught = (node.type.id
                              if isinstance(node.type, ast.Name)
                              else "everything")
                    findings.append(self.finding(
                        path, node,
                        f"handler catches bare `{caught}` on the "
                        f"serving path (catch typed SPARQLError "
                        f"subclasses, or pragma the sanctioned "
                        f"wrapper)", lines))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) \
                        and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name in self.RAW_RAISES:
                    findings.append(self.finding(
                        path, node,
                        f"raw `raise {name}` on the serving path "
                        f"(raise a typed EndpointError subclass with a "
                        f"machine-readable code)", lines))
        return findings


# ---------------------------------------------------------------------------
# columnar-dtype-safety
# ---------------------------------------------------------------------------


class ColumnarDtypeSafetyRule(Rule):
    """No silent int64->int32 narrowing; no numpy over dict tiers.

    The columnar tier stores int32 only after proving every id fits
    (:func:`_dtype_for` via ``np.iinfo``); a hard-coded
    ``astype(np.int32)`` elsewhere silently truncates large
    dictionaries.  And the delta overlay is a dict-of-dict-of-set —
    handing it to a numpy constructor builds an object array that
    *looks* like it works and is quadratically slow / semantically
    wrong.
    """

    id = "columnar-dtype-safety"
    title = "no unguarded int32 narrowing, no numpy over overlay dicts"
    rationale = ("a hard-coded int32 cast truncates ids beyond 2^31 "
                 "silently; numpy applied to the dict overlay builds "
                 "object arrays that scan wrong")

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
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # --- narrowing casts -------------------------------------------
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
                    findings.append(self.finding(
                        path, node,
                        "hard-coded int32 narrowing without a fits "
                        "guard (size the dtype via _dtype_for / "
                        "np.iinfo, or prove the range)", lines))
            # --- numpy over overlay dict tiers -----------------------------
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in ("np", "numpy") \
                    and func.attr in self.NP_CONSUMERS:
                for arg in node.args:
                    attr = _self_attr(arg)
                    if attr in self.OVERLAY_TIERS:
                        findings.append(self.finding(
                            path, node,
                            f"numpy `{func.attr}` applied to overlay "
                            f"dict tier `{attr}` (materialize ids "
                            f"explicitly first — the overlay is a "
                            f"dict-of-dict-of-set, not an array)",
                            lines))
        return findings


# ---------------------------------------------------------------------------
# test-determinism
# ---------------------------------------------------------------------------


class TestDeterminismRule(Rule):
    """Tests and benchmarks must be deterministic.

    Global-RNG calls (``random.random()``, legacy ``np.random.*``)
    derive from process-wide hidden state; a test that flakes under
    them wastes every future CI run.  Wall-clock reads inside
    assertions make results depend on the machine's load and the time
    of day.  Seeded instances (``random.Random(seed)``,
    ``np.random.default_rng(seed)``) are the sanctioned pattern.
    """

    id = "test-determinism"
    title = "no unseeded randomness / wall-clock asserts in tests"
    rationale = ("unseeded randomness makes failures unreproducible; "
                 "wall-clock assertions flake under load")

    RANDOM_FUNCS = {"random", "randint", "randrange", "choice", "choices",
                    "shuffle", "sample", "uniform", "gauss", "betavariate",
                    "expovariate", "normalvariate"}
    NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence"}
    WALL_CLOCK = {"time.time", "datetime.now", "datetime.utcnow",
                  "date.today"}

    def applies_to(self, path: str) -> bool:
        return path.startswith(("tests/", "benchmarks/"))

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Name):
                    owner, attr = func.value.id, func.attr
                    if owner == "random" and attr in self.RANDOM_FUNCS:
                        findings.append(self.finding(
                            path, node,
                            f"global-RNG call `random.{attr}()` (use a "
                            f"seeded `random.Random(seed)` instance)",
                            lines))
                    elif owner == "random" and attr == "seed" \
                            and not node.args:
                        findings.append(self.finding(
                            path, node,
                            "`random.seed()` without a seed value",
                            lines))
                elif isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Attribute) \
                        and func.value.attr == "random" \
                        and isinstance(func.value.value, ast.Name) \
                        and func.value.value.id in ("np", "numpy") \
                        and func.attr not in self.NP_RANDOM_OK:
                    findings.append(self.finding(
                        path, node,
                        f"legacy global `np.random.{func.attr}` (use "
                        f"`np.random.default_rng(seed)`)", lines))
            elif isinstance(node, ast.Assert):
                clocks = dotted_names(node.test) & self.WALL_CLOCK
                if clocks:
                    findings.append(self.finding(
                        path, node,
                        f"assertion depends on wall clock "
                        f"({', '.join(sorted(clocks))}) — capture "
                        f"times outside the assert or use injected "
                        f"clocks", lines))
        return findings


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------


class MutableDefaultRule(Rule):
    """No mutable default argument values in library code."""

    id = "mutable-default"
    title = "no mutable default arguments"
    rationale = ("a mutable default is shared across every call; state "
                 "leaks between requests on a long-lived endpoint")

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
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) \
                + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._mutable(default):
                    findings.append(self.finding(
                        path, default,
                        f"mutable default argument in `{node.name}` "
                        f"(default to None and create inside the "
                        f"body)", lines))
        return findings


# ---------------------------------------------------------------------------
# assert-validation
# ---------------------------------------------------------------------------


class AssertValidationRule(Rule):
    """``assert`` is not validation in library code.

    ``python -O`` strips asserts, so an assert guarding input or state
    silently stops guarding in optimized runs.  The narrow idiom
    ``assert isinstance(x, T)`` is allowed: it encodes a type-narrowing
    fact for readers and checkers, not a runtime contract.
    """

    id = "assert-validation"
    title = "no assert-as-validation outside tests"
    rationale = ("asserts vanish under python -O; real validation must "
                 "raise typed errors")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if isinstance(test, ast.Call) \
                    and isinstance(test.func, ast.Name) \
                    and test.func.id == "isinstance":
                continue  # type-narrowing idiom
            findings.append(self.finding(
                path, node,
                "assert used as validation in library code (raise a "
                "typed error instead; asserts vanish under -O)", lines))
        return findings


# ---------------------------------------------------------------------------
# parallel-safety
# ---------------------------------------------------------------------------


class ParallelSafetyRule(Rule):
    """Worker-side parallel code must stay shared-nothing.

    A morsel worker is a *spawned* process: module globals it touches
    are its own private copies, so reading the parent's caches
    (``PLAN_CACHE``, ``CONCURRENCY``) silently yields stale or
    empty state, and touching endpoint / live-graph classes implies a
    heap that simply is not there.  Everything a worker may use
    arrives through its task dict: SHM manifests, the shipped
    dictionary and the pattern list.  This rule flags any reference to
    parent-process state inside the worker-side scopes — functions
    named ``_worker*`` or ``attach_*`` and methods of ``_Worker*``
    classes — of the parallel star aggregator and the SHM mapping
    module, and inside *every* function of the star-query kernel
    (``olap/kernel.py``) and of ``grouping.py``, which workers run end
    to end: they may see arrays and the shipped plan, never the star
    schema.
    """

    id = "parallel-safety"
    title = "worker-side code must not touch parent-process state"
    rationale = ("spawned workers see private module globals and no "
                 "parent heap: touching endpoint state or module "
                 "caches from a worker reads stale/empty copies and "
                 "breaks the shared-nothing morsel contract")

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

    @staticmethod
    def _worker_scopes(tree: ast.AST,
                       whole_module: bool) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) \
                    and node.name.lstrip("_").startswith("Worker"):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        yield member
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (whole_module or node.name.startswith("_worker")
                         or node.name.startswith("attach_")):
                yield node

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[ast.AST] = set()
        for scope in self._worker_scopes(
                tree, path.endswith(self.WORKER_MODULES)):
            if scope in seen:
                continue
            seen.add(scope)
            touched = (dotted_names(scope) | called_names(scope)) \
                & self.FORBIDDEN
            if touched:
                findings.append(self.finding(
                    path, scope,
                    f"worker-side `{scope.name}` touches parent-process "
                    f"state ({', '.join(sorted(touched))}) — workers are "
                    f"shared-nothing: ship what they need through the "
                    f"task dict / SHM manifests", lines))
        return findings


# ---------------------------------------------------------------------------
# storage-tiers-private
# ---------------------------------------------------------------------------


class StorageTiersPrivateRule(Rule):
    """One scan path: only the graph composes its storage tiers.

    ``Graph.match_arrays`` / ``triples_ids`` / ``count_ids`` /
    ``folded_columns`` answer for columns, overlay and tombstones
    together, in every physical state.  A second composition written
    elsewhere (the statistics builder, a parallel exporter and the
    ETL each had one) silently diverges the next time a tier changes,
    and a ``None`` test on ``match_arrays`` is the first line of a
    second scan path — the contract is total, there is no fallback to
    select.
    """

    id = "storage-tiers-private"
    title = "storage tiers are composed only inside rdf/graph.py"
    rationale = ("a hand-written columns+overlay+tombstones read outside "
                 "the graph, or a fallback keyed on match_arrays() being "
                 "None, re-creates the duplicate scan path ISSUE 15 "
                 "deleted")

    TIERS = {"_columns", "_delta", "_tombstones"}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    @staticmethod
    def _is_none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        owner = path.endswith("repro/rdf/graph.py")
        #: names bound directly from a ``match_arrays(...)`` call
        results: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and "match_arrays" in called_names(node.value):
                results.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not owner \
                    and node.attr in self.TIERS:
                findings.append(self.finding(
                    path, node,
                    f"storage tier `{node.attr}` read outside "
                    f"repro/rdf/graph.py (ask the graph: match_arrays / "
                    f"triples_ids / count_ids / folded_columns / "
                    f"tier_sizes)", lines))
            elif isinstance(node, ast.Compare) \
                    and any(self._is_none(side) for side in
                            [node.left, *node.comparators]):
                for side in [node.left, *node.comparators]:
                    if (isinstance(side, ast.Name) and side.id in results) \
                            or "match_arrays" in called_names(side):
                        findings.append(self.finding(
                            path, node,
                            "match_arrays() result compared with None "
                            "(it always answers: there is no second scan "
                            "path to fall back to)", lines))
                        break
        return findings


# ---------------------------------------------------------------------------
# single-algebra-walker
# ---------------------------------------------------------------------------


class SingleAlgebraWalkerRule(Rule):
    """One function evaluates the algebra.

    ``PatternEvaluator._walk`` is the only dispatch over the pattern-
    node classes that *evaluates* them; ASK, EXISTS, SELECT (streamed
    or not), CONSTRUCT, DESCRIBE and updates all drain it.  A second
    function testing ``isinstance`` against the node classes is the
    start of a second interpreter, whose BGP step, OPTIONAL, MINUS …
    then drift from the first (ISSUE 16 deleted one that had).  The
    algebra's own traversals and the planner / EXPLAIN / verifier, which
    describe trees without evaluating them, are exempt.  Term-level
    scans (``source.match(...)``) are how that second interpreter read
    storage: in the evaluator family they belong to DESCRIBE alone
    (pragma'd), property paths live in ``paths.py``.
    """

    id = "single-algebra-walker"
    title = "one dispatch over the algebra node classes"
    rationale = ("a second function branching on the pattern-node "
                 "classes is a second interpreter: its operators drift "
                 "from the walker's and escape its governor charges, "
                 "failpoints and traces")

    PATTERN_NODES = {"BGP", "Join", "LeftJoin", "Union", "UnionNode",
                     "Minus", "Filter", "Extend", "ValuesNode",
                     "GraphNode", "SubSelectNode", "Empty"}
    #: a dispatch is a function testing at least this many node classes
    DISPATCH_WIDTH = 4
    WALKER_FILE = "repro/sparql/evaluator_walker.py"
    DESCRIBERS = ("repro/sparql/algebra.py", "repro/sparql/explain.py",
                  "repro/sparql/optimizer.py",
                  "repro/sparql/plan_verifier.py")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/sparql/") \
            and not path.endswith(self.DESCRIBERS)

    def _node_classes_tested(self, function: ast.AST) -> Set[str]:
        tested: Set[str] = set()
        for call in ast.walk(function):
            if isinstance(call, ast.Call) \
                    and isinstance(call.func, ast.Name) \
                    and call.func.id == "isinstance" \
                    and len(call.args) == 2:
                tested |= dotted_names(call.args[1]) & self.PATTERN_NODES
        return tested

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        allowed = 1 if path.endswith(self.WALKER_FILE) else 0
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                tested = self._node_classes_tested(node)
                if len(tested) < self.DISPATCH_WIDTH:
                    continue
                if allowed:
                    allowed -= 1
                    continue
                findings.append(self.finding(
                    path, node,
                    f"`{node.name}` dispatches over {len(tested)} "
                    f"algebra node classes: the walker "
                    f"(PatternEvaluator._walk) is the one function that "
                    f"evaluates them — extend it, or seed it", lines))
            elif isinstance(node, ast.Call) \
                    and path.endswith(EVALUATOR_FAMILY) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "match" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "source":
                findings.append(self.finding(
                    path, node,
                    "term-level scan `source.match(...)` in the "
                    "evaluator family (join at the id level through "
                    "the walker's steps)", lines))
        return findings


# ---------------------------------------------------------------------------
# single-sparql-aggregate
# ---------------------------------------------------------------------------


class SingleSparqlAggregateRule(Rule):
    """One module says what the SPARQL aggregates compute.

    ``repro/sparql/aggregation.py`` folds SUM / AVG / MIN / MAX for
    every grouped SELECT.  Code that
    branches on those names anywhere else under ``sparql/`` is a second
    statement of their int / decimal / double, empty-group and tie
    rules — ISSUE 17 deleted three, one of which had drifted.  The
    tokenizer's keyword list and the ``AGGREGATE_NAMES`` set name the
    aggregates without computing them; ``"COUNT"`` is exempt because
    the parser needs it for ``COUNT(*)``.
    """

    id = "single-sparql-aggregate"
    title = "SPARQL aggregates are computed in sparql/aggregation.py only"
    rationale = ("a branch on an aggregate's name outside aggregation.py "
                 "re-states its semantics, and the copy drifts from the "
                 "accumulator the other execution paths run")

    NAMES = {"SUM", "AVG", "MIN", "MAX"}
    HOMES = ("repro/sparql/aggregation.py", "repro/sparql/tokenizer.py")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/sparql/") \
            and not path.endswith(self.HOMES)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant)
                    and node.value in self.NAMES):
                continue
            if any(isinstance(outer, ast.Assign) and any(
                    isinstance(target, ast.Name)
                    and target.id == "AGGREGATE_NAMES"
                    for target in outer.targets)
                    for outer in ancestors(node, parents)):
                continue
            findings.append(self.finding(
                path, node,
                f"aggregate name literal \"{node.value}\" outside "
                f"sparql/aggregation.py (ask the accumulator: "
                f"aggregation.accumulator / Plan)", lines))
        return findings


# ---------------------------------------------------------------------------
# single-expression-loop
# ---------------------------------------------------------------------------


class SingleExpressionLoopRule(Rule):
    """One function evaluates an expression over an id table.

    ``bindings.expression_column`` evaluates FILTER conditions, BIND
    expressions, aggregate arguments and computed group keys once per
    distinct id tuple of the columns they read, and knows the two kinds
    of expression (EXISTS, ``BNODE()``) that must see every row.  A
    hand-written ``for row in table.rows: … .evaluate(decode_row(row))``
    beside it decodes every visible cell of every row again — ISSUE 18
    deleted three, which were 57 % of a dice — and has to re-learn those
    two exceptions.  ``PatternEvaluator.decoded`` (the final projection)
    is the one other caller of ``row_decoder``.
    """

    id = "single-expression-loop"
    title = "expressions run over id tables in bindings.expression_column only"
    rationale = ("a per-row evaluate loop decodes whole rows the memoised "
                 "column function decodes once per distinct id tuple, and "
                 "drifts from its EXISTS / BNODE handling")

    HOME = "repro/sparql/bindings.py"
    PROJECTION = ("repro/sparql/evaluator_walker.py", "decoded")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/sparql/") \
            and not path.endswith(self.HOME)

    @staticmethod
    def _loops_over_rows(outer: ast.AST) -> bool:
        """Whether ``outer`` is a ``for`` statement, or a comprehension
        with a generator, iterating something with ``.rows`` in it."""
        loops = [outer] if isinstance(outer, ast.For) \
            else getattr(outer, "generators", ())
        return any(isinstance(node, ast.Attribute) and node.attr == "rows"
                   for loop in loops for node in ast.walk(loop.iter))

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) \
                    and node.func.id == "row_decoder":
                function = enclosing_function(node, parents)
                if not (path.endswith(self.PROJECTION[0]) and function
                        is not None and function.name == self.PROJECTION[1]):
                    findings.append(self.finding(
                        path, node,
                        "`row_decoder(...)` outside the final projection "
                        "(evaluate through bindings.expression_column, "
                        "which decodes only the cells an expression "
                        "reads)", lines))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "evaluate" \
                    and any(map(self._loops_over_rows,
                                ancestors(node, parents))):
                findings.append(self.finding(
                    path, node,
                    "`.evaluate(...)` inside a loop over `.rows` "
                    "(bindings.expression_column evaluates once per "
                    "distinct id tuple)", lines))
        return findings


# ---------------------------------------------------------------------------
# columnar-join-step
# ---------------------------------------------------------------------------


class ColumnarJoinStepRule(Rule):
    """The join steps, the column readers and the walker stay columnar.

    A ``BindingTable`` holds one id column per variable; ``.rows`` is a
    derived view for what reads whole solutions.  A ``for`` over it
    inside a BGP join step re-creates the per-row join the kernel
    replaced (79 % of a roll-up), and a ``[row[slot] for row in table.rows]``
    column read in ``aggregation.partials`` or
    ``bindings.expression_column`` rebuilds every row tuple to pick one
    cell of each.  The grouped fold is columnar too:
    ``_Accumulator.columns`` folds an argument column whole, and a loop
    calling ``step`` a row is the general fallback for what no array
    dtype holds — there is one, pragma'd.

    The walker pairs tables through the kernel too (``paired`` replaced
    the nested loops of MINUS and the ``UNDEF``-tolerant joins, and
    OPTIONAL's dict of tuples), so there *any* ``.rows`` read is a
    finding but in ``decoded``, the result decoding (``self.rows`` is
    not a table's).  And a table is built around columns only:
    ``BindingTable(`` anywhere under ``src/`` is the tuple constructor
    that went with those loops.
    """

    id = "columnar-join-step"
    title = "join steps, column reads and the walker do not read .rows"
    rationale = ("a Python loop over the row view inside a join step or "
                 "a column read costs an object per solution where the "
                 "column arrays cost one numpy call")

    STEPS = "repro/sparql/evaluator_steps.py"
    WALKER = ("repro/sparql/evaluator_walker.py", "decoded")
    #: functions of other modules that read whole columns
    COLUMN_READERS = {
        "repro/sparql/aggregation.py": ("partials", "_key_column",
                                        "_states"),
        "repro/sparql/bindings.py": ("expression_column",)}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    @staticmethod
    def _reads_rows(node: ast.AST, aliases: Set[str]) -> bool:
        return any(
            isinstance(inner, ast.Attribute) and inner.attr == "rows"
            or isinstance(inner, ast.Name) and inner.id in aliases
            for inner in ast.walk(node))

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(func, ast.Name) and func.id == "BindingTable"
                    or isinstance(func, ast.Attribute)
                    and func.attr == "BindingTable"):
                findings.append(self.finding(
                    path, node,
                    "`BindingTable(...)` builds a table from row tuples "
                    "(build it around id columns: `BindingTable.of`)",
                    lines))
        if path.endswith(self.WALKER[0]):
            findings.extend(self._walker_reads(path, tree, parents, lines))
        elif path.endswith((self.STEPS, *self.COLUMN_READERS)):
            findings.extend(self._row_loops(path, tree, parents, lines))
        return findings

    def _walker_reads(self, path: str, tree: ast.AST,
                      parents: Dict[ast.AST, ast.AST],
                      lines: Sequence[str]) -> List[Finding]:
        """Every ``.rows`` read in the walker outside ``decoded``."""
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "rows"
                    and isinstance(node.ctx, ast.Load)) \
                    or _self_attr(node) is not None:
                continue
            function = enclosing_function(node, parents)
            if function is not None and function.name == self.WALKER[1]:
                continue
            where = "module level" if function is None \
                else f"`{function.name}`"
            findings.append(self.finding(
                path, node,
                f"`.rows` read in {where} (the walker pairs tables "
                f"through `evaluator_steps.paired` and reads columns; "
                f"only `decoded` reads the row view)", lines))
        return findings

    def _row_loops(self, path: str, tree: ast.AST,
                   parents: Dict[ast.AST, ast.AST],
                   lines: Sequence[str]) -> List[Finding]:
        """Loops over a ``.rows`` view in the join steps and the column
        readers, and the per-row ``step`` of the grouped fold."""
        readers = next((names for home, names
                        in self.COLUMN_READERS.items()
                        if path.endswith(home)), None)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            loops = [node] if isinstance(node, ast.For) \
                else getattr(node, "generators", ())
            function = enclosing_function(node, parents) if loops else None
            if function is None:
                continue
            if readers is None and function.name == "_step_path" \
                    or readers is not None and function.name not in readers:
                continue
            if isinstance(node, ast.For) and readers is not None \
                    and "step" in called_names(node):
                findings.append(self.finding(
                    path, node,
                    f"`step` called a row at a time in `{function.name}` "
                    f"(fold the column whole — `_Accumulator.columns` — "
                    f"and leave the rest to the one general fallback)",
                    lines))
            # local names bound to a ``.rows`` view: ``rows = table.rows``
            aliases = {
                target.id for assign in ast.walk(function)
                if isinstance(assign, ast.Assign)
                and self._reads_rows(assign.value, set())
                for target in assign.targets
                if isinstance(target, ast.Name)}
            for loop in loops:
                if self._reads_rows(loop.iter, aliases):
                    findings.append(self.finding(
                        path, loop.iter,
                        f"loop over a `.rows` view in `{function.name}` "
                        f"(read `table.columns[slot]` — the join "
                        f"kernel, `column_cells` — instead)", lines))
        return findings


# ---------------------------------------------------------------------------
# single-grouping-kernel
# ---------------------------------------------------------------------------


class SingleGroupingKernelRule(Rule):
    """One module groups rows by several key columns.

    ``repro/grouping.py`` sorts the key columns, marks run starts and
    numbers the runs; the star kernel, SPARQL GROUP BY, the join
    kernel's composite keys and the storage tier's triple dedup call
    it.  ``np.unique(..., axis=0)`` does the same job through a
    void-dtype sort an order of magnitude slower (it was 93 % of a
    star-engine op until ISSUE 21), and a hand-rolled ``np.lexsort`` +
    neighbour diff is a second copy of the kernel.  A ``lexsort`` that
    orders rows without grouping them (an index order) says so beside
    its pragma.

    The one-column case has the same home under ``repro/sparql/``:
    ``grouping.distinct`` counts a column's dense ids where
    ``np.unique(..., return_inverse=True)`` sorts or hashes them
    (0.7 ms per SUM per op until ISSUE 27).
    """

    id = "single-grouping-kernel"
    title = "composite-key grouping lives in repro/grouping.py only"
    rationale = ("np.unique(axis=0) sorts void-dtype rows ~10x slower "
                 "than a lexsort of the columns, and every hand-rolled "
                 "lexsort + neighbour diff is a copy of the shared "
                 "kernel that drifts from it")

    HOME = "repro/grouping.py"

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    @staticmethod
    def _passes(node: ast.Call, keyword: str, value: object) -> bool:
        """Whether the call passes ``keyword=value`` (a constant)."""
        return any(given.arg == keyword
                   and isinstance(given.value, ast.Constant)
                   and given.value.value == value
                   for given in node.keywords)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        distinct_ids = path.startswith("src/repro/sparql/")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            if name == "unique" and self._passes(node, "axis", 0):
                findings.append(self.finding(
                    path, node,
                    "`np.unique(..., axis=0)` sorts whole rows as one "
                    "void-dtype key (group the columns with "
                    "repro.grouping.group instead)", lines))
            elif distinct_ids and name == "unique" \
                    and self._passes(node, "return_inverse", True):
                findings.append(self.finding(
                    path, node,
                    "the distinct ids of a column come from "
                    "repro.grouping.distinct (it counts dense ids; "
                    "`np.unique(..., return_inverse=True)` sorts or "
                    "hashes them)", lines))
            elif name == "lexsort" and not path.endswith(self.HOME):
                findings.append(self.finding(
                    path, node,
                    "`np.lexsort` outside repro/grouping.py (group "
                    "through repro.grouping.group / sorted_runs; a sort "
                    "that is not a grouping carries a pragma saying "
                    "so)", lines))
        return findings


# ---------------------------------------------------------------------------
# single-generation-install
# ---------------------------------------------------------------------------


class SingleGenerationInstallRule(Rule):
    """One batch write path, one place a generation is swapped in.

    ``Graph._install`` is the only code that replaces the column
    generation and abandons-or-clears the overlay with it; compaction,
    the batch fold and ``clear`` call it (they were three copies of the
    same twelve lines, and the copy in ``bulk_load_ids`` had drifted:
    it dropped the statistics and the dataset's disjointness claim).
    And a batch is validated, interned and placed as a batch: a loop
    over ``self.add(`` inside ``Graph`` is the per-triple load ISSUE 22
    deleted (10 µs a triple, twice validated, rolled back by hand).
    """

    id = "single-generation-install"
    title = "one install helper, no per-triple add loop, in rdf/graph.py"
    rationale = ("a second `self._columns = …` site forgets the overlay, "
                 "the shared flag or the delta size sooner or later, and "
                 "a `for` over `self.add(` pays the overlay for every "
                 "triple of a batch the column tier could take whole")

    INSTALLERS = {"__init__", "_install"}
    LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/rdf/graph.py")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                function = enclosing_function(node, parents)
                if any(_self_attr(target) == "_columns"
                       for target in targets) and (
                        function is None
                        or function.name not in self.INSTALLERS):
                    findings.append(self.finding(
                        path, node,
                        "`self._columns` assigned outside `_install` "
                        "(swap a generation in through the one helper, "
                        "which also settles the overlay it replaces)",
                        lines))
            elif isinstance(node, ast.Call) \
                    and _self_attr(node.func) == "add":
                owner = enclosing_class(node, parents)
                if owner is not None and owner.name == "Graph" and any(
                        isinstance(ancestor, self.LOOPS)
                        for ancestor in ancestors(node, parents)):
                    findings.append(self.finding(
                        path, node,
                        "`self.add(` in a loop inside `Graph` (hand the "
                        "batch to `add_all`: one validation, one "
                        "interning pass, one placement)", lines))
        return findings


# ---------------------------------------------------------------------------
# incremental-compaction
# ---------------------------------------------------------------------------


class IncrementalCompactionRule(Rule):
    """A write costs what it changes, not what the graph holds.

    ``TripleColumns.merged`` folds a delta and the tombstones into the
    sorted generation by locating them (one vectorized binary search
    per order) and copying once; the tombstones are a hash index, so a
    read subtracts the dead rows of *its* pattern.  Until ISSUE 23 the
    fold re-``lexsort``ed all three orders of the whole generation
    (250 ms of a 570 ms refresh round to fold 3 060 rows into 180k),
    located tombstones one ``_range`` call at a time, and every
    ``remove`` scanned the whole tombstone set twice per victim.  Both
    come back one innocent-looking line at a time: a second
    ``np.lexsort`` in ``columnar.py``, a ``for`` over
    ``self._tombstones`` in ``graph.py``.
    """

    id = "incremental-compaction"
    title = "no whole-generation re-sort, no walk over all tombstones"
    rationale = ("a lexsort of a whole generation, a per-row `_range` "
                 "loop or a scan of every tombstone makes each write "
                 "cost the size of the graph instead of the size of "
                 "the change")

    COLUMNAR = "repro/rdf/columnar.py"
    #: the one function that sorts a generation from scratch
    SORTER = ("TripleColumns", "__init__")
    #: the functions of ``graph.py`` that may read every tombstone: the
    #: COW clone and the hand-off to ``TripleColumns.merged``
    WALKERS = {"_unshare", "folded_columns"}
    #: whole-index reads when called with no pattern
    READS = {"ids", "arrays"}
    LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)

    def applies_to(self, path: str) -> bool:
        return path.endswith((self.COLUMNAR, "repro/rdf/graph.py"))

    @staticmethod
    def _iterables(loop: ast.AST) -> List[ast.AST]:
        if isinstance(loop, ast.For):
            return [loop.iter]
        return [generator.iter for generator in loop.generators]

    @staticmethod
    def _reads_tombstones(node: ast.AST) -> bool:
        return any(isinstance(inner, ast.Attribute)
                   and inner.attr == "_tombstones"
                   for inner in ast.walk(node))

    def _check_columnar(self, path: str, tree: ast.AST,
                        parents: Dict[ast.AST, ast.AST],
                        lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "lexsort":
                function = enclosing_function(node, parents)
                owner = enclosing_class(node, parents)
                if (owner and owner.name,
                        function and function.name) != self.SORTER:
                    yield self.finding(
                        path, node,
                        "`np.lexsort` outside `TripleColumns.__init__` "
                        "(a fold sorts only its delta — build it as a "
                        "`TripleColumns` — and merges it in by position)",
                        lines)
            elif node.func.attr == "_range" and any(
                    isinstance(ancestor, self.LOOPS)
                    for ancestor in ancestors(node, parents)):
                yield self.finding(
                    path, node,
                    "`_range(` in a loop (locate many rows with one "
                    "vectorized `_locate`, not a staged search each)",
                    lines)

    def _check_graph(self, path: str, tree: ast.AST,
                     parents: Dict[ast.AST, ast.AST],
                     lines: Sequence[str]) -> Iterator[Finding]:
        for node in ast.walk(tree):
            function = enclosing_function(node, parents)
            if function is not None and function.name in self.WALKERS:
                continue
            if isinstance(node, self.LOOPS) and any(
                    self._reads_tombstones(iterable)
                    for iterable in self._iterables(node)):
                yield self.finding(
                    path, node,
                    "loop over the tombstones (ask the index: "
                    "`_tombstones.has` / `.count(pattern)` / "
                    "`.ids(pattern)` answer in O(matches))", lines)
            elif isinstance(node, ast.Call) and not node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.READS \
                    and self._reads_tombstones(node.func.value):
                yield self.finding(
                    path, node,
                    f"`_tombstones.{node.func.attr}()` reads every "
                    f"tombstone (pass the pattern being answered)", lines)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        if path.endswith(self.COLUMNAR):
            return list(self._check_columnar(path, tree, parents, lines))
        return list(self._check_graph(path, tree, parents, lines))


# ---------------------------------------------------------------------------
# single-locate
# ---------------------------------------------------------------------------


class SingleLocateRule(Rule):
    """One place indexes a build side, one place looks keys up in it.

    ``evaluator_steps.grouped`` makes the :class:`Build` of a join step
    — a key directory when the keys are dense, a sorted column when
    they are not — and ``located`` reads it: one clipped gather or, for
    sparse keys only, one ``searchsorted``.  Until ISSUE 26 every step
    sorted its build and binary-searched every row (56 % of a roll-up
    round).  A second ``np.searchsorted`` under ``sparql/`` is that
    per-query sort-and-search coming back beside the kernel; a second
    ``Build(`` constructor is a second layout for the readers (the
    walker's MINUS and relation joins, the morsel workers' cache) to
    drift from.
    """

    id = "single-locate"
    title = "Build( only in grouped, np.searchsorted only in located"
    rationale = ("a second place that sorts and searches a build side is "
                 "the per-query work the key directory removed, and a "
                 "second `Build(` constructor is a second layout for the "
                 "workers' cache to drift from")

    HOME = "repro/sparql/evaluator_steps.py"
    #: call name -> the one function of ``HOME`` that may make it
    OWNERS = {"Build": "grouped", "searchsorted": "located"}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/sparql/")

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            owner = self.OWNERS.get(name)
            if owner is None:
                continue
            function = enclosing_function(node, parents)
            if path.endswith(self.HOME) and function is not None \
                    and function.name == owner:
                continue
            findings.append(self.finding(
                path, node,
                f"`{name}(` outside `evaluator_steps.{owner}` (index a "
                f"build side through `grouped`, look keys up through "
                f"`located` / `_matched`)", lines))
        return findings


# ---------------------------------------------------------------------------
# columnar-etl
# ---------------------------------------------------------------------------


class ColumnarEtlRule(Rule):
    """The ETL stays in id space: nothing runs once per row.

    ``olap/etl.py`` reads each property, ``skos:broader`` hop and
    attribute as one ``match_arrays`` call and joins it to fact rows or
    member codes through ``_locator`` / ``_assigned``.  Until ISSUE 28
    it also ranked fact rows with ``sorted(range(n), key=lambda …)``
    (6.4 ms of a 55 ms extraction at 50 000 observations), scattered
    those ranks with a Python loop (2.8 ms), and read every member's
    parents and attributes through ``graph.objects(member, …)`` — 722
    term-level reads, 30 % of what the extraction costs now.  A loop
    over dimensions, levels, attributes or measures whose body is
    vectorized is the module's shape, not a finding.

    ``_by_value`` then still decoded every subject a ``match_arrays``
    read returned and sorted their values in Python (12.8 ms of a
    21 ms extraction at 50 000 observations on a 2-vCPU host); the
    dictionary's value ranks order ids undecoded, so in ``_by_value``
    / ``_level`` a ``dictionary.decode`` mapped or called over such ids
    — directly, through names bound from them, or a comprehension over
    them — is a finding.  ``_level`` decoding the members
    ``_by_value`` hands it is not.
    """

    id = "columnar-etl"
    title = "no per-row sort key, element write, term-level read or decode"
    rationale = ("a lambda sort key, an `array[i] = …` loop, a "
                 "`graph.objects(member, …)` walk or a decode of every "
                 "subject read costs a Python call per observation or "
                 "member, which is what the columnar extractor exists "
                 "to avoid")

    READS = {"objects", "subjects"}
    COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)
    #: the functions numbering subjects by value, whose ids a
    #: ``match_arrays`` read hands out
    NUMBERING = {"_by_value", "_level"}

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/olap/etl.py")

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

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        parents = parent_map(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(path, node, parents, lines))
            elif isinstance(node, ast.For):
                findings.extend(self._check_loop(path, node, parents, lines))
            elif isinstance(node, ast.FunctionDef) \
                    and node.name in self.NUMBERING:
                findings.extend(self._check_decodes(path, node, lines))
        return findings

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

    def _check_call(self, path: str, node: ast.Call,
                    parents: Dict[ast.AST, ast.AST],
                    lines: Sequence[str]) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sorted" and any(
                keyword.arg == "key" and isinstance(keyword.value, ast.Lambda)
                for keyword in node.keywords):
            yield self.finding(
                path, node,
                "`sorted(…, key=<lambda>)` (take the keys once as a list "
                "and sort by `keys.__getitem__`; a handful of IRIs sorts "
                "by `key=str`)", lines)
        elif isinstance(func, ast.Attribute) and func.attr in self.READS \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "graph" and any(
                    isinstance(ancestor, (ast.For, *self.COMPREHENSIONS))
                    for ancestor in ancestors(node, parents)):
            yield self.finding(
                path, node,
                f"`graph.{func.attr}(` in a loop (one `match_arrays` "
                f"read of the predicate, joined through `_locator`)",
                lines)

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


# ---------------------------------------------------------------------------
# one-process-pool
# ---------------------------------------------------------------------------


class OneProcessPoolRule(Rule):
    """One module builds worker processes and shared segments.

    ``rdf/shm.py`` holds :class:`SpawnPool` (``spawn``, rebuilt after a
    dead worker) and the segment export / attach pair that keeps the
    resource tracker balanced.  A ``multiprocessing`` import anywhere
    else under ``src/repro`` is a second pool or segment lifecycle
    starting, which has to re-learn all three.  Docstrings may name the
    modules — only code counts.
    """

    id = "one-process-pool"
    title = "process pools and shared memory live in rdf/shm.py only"
    rationale = ("a second pool or segment lifecycle re-learns spawn vs "
                 "fork, tracker registration and dead-worker recovery, "
                 "and adds a fan-out no contract workload measures")

    NAMES = {"multiprocessing", "shared_memory", "ProcessPoolExecutor"}
    HOME = "repro/rdf/shm.py"

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/") and not path.endswith(self.HOME)

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = {part for alias in node.names
                         for part in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                named = set((node.module or "").split(".")) | {
                    alias.name for alias in node.names}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                named = {node.id if isinstance(node, ast.Name)
                         else node.attr}
            else:
                continue
            for name in sorted(named & self.NAMES):
                findings.append(self.finding(
                    path, node,
                    f"`{name}` outside rdf/shm.py (take a "
                    f"`shm.SpawnPool` and `shm.export_arrays` / "
                    f"`attach_arrays`)", lines))
        return findings


ALL_RULES: List[Rule] = [
    LockDisciplineRule(),
    SnapshotDisciplineRule(),
    GovernorDisciplineRule(),
    ErrorTaxonomyRule(),
    ColumnarDtypeSafetyRule(),
    TestDeterminismRule(),
    MutableDefaultRule(),
    AssertValidationRule(),
    ParallelSafetyRule(),
    StorageTiersPrivateRule(),
    SingleAlgebraWalkerRule(),
    SingleSparqlAggregateRule(),
    SingleExpressionLoopRule(),
    ColumnarJoinStepRule(),
    SingleGroupingKernelRule(),
    SingleGenerationInstallRule(),
    IncrementalCompactionRule(),
    SingleLocateRule(),
    ColumnarEtlRule(),
    OneProcessPoolRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
