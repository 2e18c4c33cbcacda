"""SPARQL 1.1 property-path support.

The path AST mirrors the grammar in the SPARQL 1.1 recommendation
(section 9): links, inverses, sequences, alternatives, the arity
modifiers ``?``/``*``/``+`` and negated property sets.  Evaluation
follows the W3C semantics:

* ``elt*`` / ``elt?`` include the *zero-length* path, whose endpoints
  range over the nodes of the active graph when unbound;
* ``elt+`` is the transitive closure without the zero step;
* evaluation of closures is a breadth-first search over distinct nodes,
  so cyclic member graphs (which occur in real SKOS hierarchies)
  terminate.

The parser keeps plain-IRI predicates as ordinary triple patterns and
decomposes top-level sequences into conjunctions of patterns; only
genuinely non-decomposable operators reach evaluation, as
:class:`~repro.sparql.algebra` ``PathPatternNode`` entries inside BGPs.

The W3C RDF Data Cube integrity constraints (see
:mod:`repro.qb.constraints`) are the main in-repo consumer: IC-11/12
navigate ``qb:dataSet/qb:structure/qb:component/qb:componentProperty``
and IC-20/21 check hierarchical code lists with ``<p>*`` and ``^``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import IRI, Term

# ---------------------------------------------------------------------------
# Path AST
# ---------------------------------------------------------------------------


class Path:
    """Base class for property-path expressions."""

    def to_sparql(self) -> str:
        """Round-trippable SPARQL surface syntax."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sparql()})"

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other)
                and self.to_sparql() == other.to_sparql())  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_sparql()))


class LinkPath(Path):
    """A single predicate IRI used as a path."""

    __slots__ = ("iri",)

    def __init__(self, iri: IRI) -> None:
        self.iri = iri

    def to_sparql(self) -> str:
        return self.iri.n3()


class InversePath(Path):
    """``^path`` — traverses the child path object-to-subject."""

    __slots__ = ("child",)

    def __init__(self, child: Path) -> None:
        self.child = child

    def to_sparql(self) -> str:
        return f"^({self.child.to_sparql()})"


class SequencePath(Path):
    """``p1/p2/...`` — relational composition."""

    def __init__(self, steps: Sequence[Path]) -> None:
        if len(steps) < 2:
            raise ValueError("sequence path needs at least two steps")
        self.steps = list(steps)

    def to_sparql(self) -> str:
        return "/".join(f"({step.to_sparql()})" for step in self.steps)


class AlternativePath(Path):
    """``p1|p2|...`` — union of the alternatives."""

    def __init__(self, choices: Sequence[Path]) -> None:
        if len(choices) < 2:
            raise ValueError("alternative path needs at least two choices")
        self.choices = list(choices)

    def to_sparql(self) -> str:
        return "|".join(f"({choice.to_sparql()})" for choice in self.choices)


class ZeroOrOnePath(Path):
    """``path?`` — the child path or the zero-length path."""

    __slots__ = ("child",)

    def __init__(self, child: Path) -> None:
        self.child = child

    def to_sparql(self) -> str:
        return f"({self.child.to_sparql()})?"


class ZeroOrMorePath(Path):
    """``path*`` — reflexive-transitive closure."""

    __slots__ = ("child",)

    def __init__(self, child: Path) -> None:
        self.child = child

    def to_sparql(self) -> str:
        return f"({self.child.to_sparql()})*"


class OneOrMorePath(Path):
    """``path+`` — transitive closure (at least one step)."""

    __slots__ = ("child",)

    def __init__(self, child: Path) -> None:
        self.child = child

    def to_sparql(self) -> str:
        return f"({self.child.to_sparql()})+"


class NegatedPropertySet(Path):
    """``!(iri1|^iri2|...)`` — any single edge not using the listed IRIs.

    ``forward`` lists plain IRIs, ``inverse`` the ``^``-marked ones.
    """

    def __init__(self, forward: Sequence[IRI] = (),
                 inverse: Sequence[IRI] = ()) -> None:
        if not forward and not inverse:
            raise ValueError("negated property set cannot be empty")
        self.forward = list(forward)
        self.inverse = list(inverse)

    def to_sparql(self) -> str:
        parts = [iri.n3() for iri in self.forward]
        parts += [f"^{iri.n3()}" for iri in self.inverse]
        if len(parts) == 1:
            return f"!{parts[0]}"
        return "!(" + "|".join(parts) + ")"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Pair = Tuple[Term, Term]


def _graph_nodes(source) -> Iterator[Term]:
    """All distinct subjects and objects in the source (zero-length domain)."""
    seen: Set[Term] = set()
    for triple in source.match((None, None, None)):
        if triple.subject not in seen:
            seen.add(triple.subject)
            yield triple.subject
        if triple.object not in seen:
            seen.add(triple.object)
            yield triple.object


def _step(source, path: Path, node: Term, forward: bool) -> Iterator[Term]:
    """Single-step neighbours of ``node`` via ``path`` in one direction."""
    if forward:
        yield from {end for _, end in evaluate_path(source, path, node, None)}
    else:
        yield from {start for start, _ in
                    evaluate_path(source, path, None, node)}


def _closure(source, path: Path, origin: Term, forward: bool,
             include_zero: bool) -> Iterator[Term]:
    """Nodes reachable from ``origin`` through ``path`` repetitions (BFS)."""
    seen: Set[Term] = set()
    frontier: List[Term] = [origin]
    if include_zero:
        seen.add(origin)
        yield origin
    first = True
    while frontier:
        next_frontier: List[Term] = []
        for node in frontier:
            for neighbour in _step(source, path, node, forward):
                if neighbour not in seen:
                    seen.add(neighbour)
                    yield neighbour
                    next_frontier.append(neighbour)
                elif first and not include_zero and neighbour == origin \
                        and origin not in seen:
                    seen.add(origin)
                    yield origin
                    next_frontier.append(origin)
        frontier = next_frontier
        first = False


def evaluate_path(source, path: Path, start: Optional[Term],
                  end: Optional[Term]) -> Iterator[Pair]:
    """All (start, end) node pairs connected by ``path``.

    ``start``/``end`` are concrete terms or ``None`` (unbound).  The
    ``source`` must offer ``match(pattern)`` like
    :class:`repro.sparql.evaluator.GraphSource`.  Pairs are distinct.
    """
    if isinstance(path, LinkPath):
        for triple in source.match((start, path.iri, end)):
            yield (triple.subject, triple.object)
        return

    if isinstance(path, InversePath):
        for pair in evaluate_path(source, path.child, end, start):
            yield (pair[1], pair[0])
        return

    if isinstance(path, SequencePath):
        yield from _evaluate_sequence(source, path.steps, start, end)
        return

    if isinstance(path, AlternativePath):
        seen: Set[Pair] = set()
        for choice in path.choices:
            for pair in evaluate_path(source, choice, start, end):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
        return

    if isinstance(path, ZeroOrOnePath):
        seen = set()
        if start is not None:
            if end is None or end == start:
                seen.add((start, start))
                yield (start, start)
        elif end is not None:
            seen.add((end, end))
            yield (end, end)
        else:
            for node in _graph_nodes(source):
                seen.add((node, node))
                yield (node, node)
        for pair in evaluate_path(source, path.child, start, end):
            if pair not in seen:
                seen.add(pair)
                yield pair
        return

    if isinstance(path, (ZeroOrMorePath, OneOrMorePath)):
        include_zero = isinstance(path, ZeroOrMorePath)
        if start is not None:
            for node in _closure(source, path.child, start,
                                 forward=True, include_zero=include_zero):
                if end is None or end == node:
                    yield (start, node)
            return
        if end is not None:
            for node in _closure(source, path.child, end,
                                 forward=False, include_zero=include_zero):
                yield (node, end)
            return
        # both unbound: closure from every node in the graph
        emitted: Set[Pair] = set()
        for origin in list(_graph_nodes(source)):
            for node in _closure(source, path.child, origin,
                                 forward=True, include_zero=include_zero):
                pair = (origin, node)
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair
        return

    if isinstance(path, NegatedPropertySet):
        forbidden = set(path.forward)
        if path.forward or not path.inverse:
            for triple in source.match((start, None, end)):
                if triple.predicate not in forbidden:
                    yield (triple.subject, triple.object)
        forbidden_inverse = set(path.inverse)
        if path.inverse:
            for triple in source.match((end, None, start)):
                if triple.predicate not in forbidden_inverse:
                    yield (triple.object, triple.subject)
        return

    raise TypeError(f"unknown path type {type(path).__name__}")


def _evaluate_sequence(source, steps: List[Path], start: Optional[Term],
                       end: Optional[Term]) -> Iterator[Pair]:
    """Pairs for ``steps[0]/steps[1]/...`` with direction choice.

    When only the end is bound the sequence is walked right-to-left so
    the bound endpoint seeds index lookups instead of full scans.
    """
    if len(steps) == 1:
        yield from evaluate_path(source, steps[0], start, end)
        return
    emitted: Set[Pair] = set()
    if start is None and end is not None:
        # walk backwards: last step first
        for mid, last in evaluate_path(source, steps[-1], None, end):
            for first, _ in _evaluate_sequence(source, steps[:-1],
                                               None, mid):
                pair = (first, end)
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair
        return
    for first, mid in evaluate_path(source, steps[0], start, None):
        for _, last in _evaluate_sequence(source, steps[1:], mid, end):
            pair = (first, last)
            if pair not in emitted:
                emitted.add(pair)
                yield pair
