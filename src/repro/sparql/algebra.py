"""Logical algebra for SPARQL queries.

The parser lowers query text into a tree of these nodes; the evaluator
interprets the tree against a graph source.  The node set covers the
SPARQL 1.1 algebra fragment used by QB2OLAP's generated queries plus
what the test suite exercises:

``BGP``, ``Join``, ``LeftJoin`` (OPTIONAL), ``Union``, ``Minus``,
``Filter``, ``Extend`` (BIND), ``ValuesNode``, ``GraphNode``,
``SubSelect``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.rdf.terms import IRI, Term
from repro.sparql.expressions import Aggregate, Expression
from repro.sparql.paths import Path

# ---------------------------------------------------------------------------
# Variables and triple patterns
# ---------------------------------------------------------------------------


class Var:
    """A SPARQL variable.  Not an RDF term — it only appears in patterns."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))

    def __repr__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


class TriplePatternNode:
    """One triple pattern: each position is a term or a variable."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: PatternTerm,
                 obj: PatternTerm) -> None:
        self.subject = subject
        self.predicate = predicate
        self.object = obj

    def positions(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {p.name for p in self.positions() if isinstance(p, Var)}

    def __repr__(self) -> str:
        return (f"TriplePatternNode({self.subject!r}, {self.predicate!r}, "
                f"{self.object!r})")


class PathPatternNode:
    """A triple pattern whose predicate position is a property path.

    Only non-decomposable paths reach the algebra (the parser rewrites
    sequences into plain conjunctions and bare links into
    :class:`TriplePatternNode`), so evaluation cost stays visible in the
    plan.
    """

    __slots__ = ("subject", "path", "object")

    def __init__(self, subject: PatternTerm, path: Path,
                 obj: PatternTerm) -> None:
        self.subject = subject
        self.path = path
        self.object = obj

    def endpoints(self) -> Tuple[PatternTerm, PatternTerm]:
        return (self.subject, self.object)

    def variables(self) -> set[str]:
        return {p.name for p in self.endpoints() if isinstance(p, Var)}

    def __repr__(self) -> str:
        return (f"PathPatternNode({self.subject!r}, "
                f"{self.path.to_sparql()}, {self.object!r})")


# ---------------------------------------------------------------------------
# Pattern operators
# ---------------------------------------------------------------------------


class PatternNode:
    """Base class for algebra operators."""

    def variables(self) -> set[str]:
        """All variables this pattern can bind."""
        raise NotImplementedError


class BGP(PatternNode):
    """A basic graph pattern: a conjunction of triple and path patterns."""

    def __init__(self, patterns: Sequence[Union[TriplePatternNode,
                                                PathPatternNode]]) -> None:
        self.patterns = list(patterns)

    def variables(self) -> set[str]:
        result: set[str] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def __repr__(self) -> str:
        return f"BGP({len(self.patterns)} patterns)"


class Join(PatternNode):
    """Join: solutions compatible across both children."""
    def __init__(self, left: PatternNode, right: PatternNode) -> None:
        self.left = left
        self.right = right

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"Join({self.left!r}, {self.right!r})"


class LeftJoin(PatternNode):
    """OPTIONAL: keep left rows, extend with right when compatible."""

    def __init__(self, left: PatternNode, right: PatternNode,
                 condition: Optional[Expression] = None) -> None:
        self.left = left
        self.right = right
        self.condition = condition

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"LeftJoin({self.left!r}, {self.right!r})"


class Union(PatternNode):
    """UNION: solutions of either branch."""
    def __init__(self, left: PatternNode, right: PatternNode) -> None:
        self.left = left
        self.right = right

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"Union({self.left!r}, {self.right!r})"


class Minus(PatternNode):
    """MINUS: left solutions not excluded by compatible right ones."""
    def __init__(self, left: PatternNode, right: PatternNode) -> None:
        self.left = left
        self.right = right

    def variables(self) -> set[str]:
        return self.left.variables()

    def __repr__(self) -> str:
        return f"Minus({self.left!r}, {self.right!r})"


class Filter(PatternNode):
    """FILTER: keep child solutions satisfying the condition."""
    def __init__(self, condition: Expression, child: PatternNode) -> None:
        self.condition = condition
        self.child = child

    def variables(self) -> set[str]:
        return self.child.variables()

    def __repr__(self) -> str:
        return f"Filter({self.condition!r}, {self.child!r})"


class Extend(PatternNode):
    """BIND(expr AS ?var) over a child pattern."""

    def __init__(self, child: PatternNode, var: str,
                 expression: Expression) -> None:
        self.child = child
        self.var = var
        self.expression = expression

    def variables(self) -> set[str]:
        return self.child.variables() | {self.var}

    def __repr__(self) -> str:
        return f"Extend({self.child!r}, ?{self.var})"


class ValuesNode(PatternNode):
    """Inline data: VALUES (?a ?b) { (1 2) (3 4) }.

    ``rows`` entries use ``None`` for UNDEF.
    """

    def __init__(self, variables_: Sequence[str],
                 rows: Sequence[Sequence[Optional[Term]]]) -> None:
        self.vars = list(variables_)
        self.rows = [list(row) for row in rows]

    def variables(self) -> set[str]:
        return set(self.vars)

    def __repr__(self) -> str:
        return f"ValuesNode({self.vars!r}, {len(self.rows)} rows)"


class GraphNode(PatternNode):
    """GRAPH <iri> { ... } or GRAPH ?g { ... }."""

    def __init__(self, name: Union[IRI, Var], child: PatternNode) -> None:
        self.name = name
        self.child = child

    def variables(self) -> set[str]:
        result = set(self.child.variables())
        if isinstance(self.name, Var):
            result.add(self.name.name)
        return result

    def __repr__(self) -> str:
        return f"GraphNode({self.name!r}, {self.child!r})"


class Empty(PatternNode):
    """The empty group pattern ``{}`` — one empty solution."""

    def variables(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return "Empty()"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class ProjectionItem:
    """One SELECT item: a plain variable or ``(expr AS ?alias)``."""

    def __init__(self, variable: Optional[str] = None,
                 expression: Optional[Expression] = None,
                 alias: Optional[str] = None) -> None:
        if variable is None and (expression is None or alias is None):
            raise ValueError("projection needs a variable or expr AS alias")
        self.variable = variable
        self.expression = expression
        self.alias = alias

    @property
    def name(self) -> str:
        """The output column name."""
        return self.alias if self.alias is not None else self.variable  # type: ignore[return-value]

    def __repr__(self) -> str:
        if self.variable is not None:
            return f"?{self.variable}"
        return f"({self.expression!r} AS ?{self.alias})"


class SelectQuery:
    """A parsed SELECT query ready for evaluation."""

    def __init__(self,
                 projection: Optional[List[ProjectionItem]],
                 pattern: PatternNode,
                 distinct: bool = False,
                 reduced: bool = False,
                 group_by: Optional[List[Expression]] = None,
                 group_aliases: Optional[Dict[int, str]] = None,
                 having: Optional[List[Expression]] = None,
                 order_by: Optional[List[Tuple[Expression, bool]]] = None,
                 limit: Optional[int] = None,
                 offset: int = 0,
                 prefixes: Optional[Dict[str, str]] = None,
                 from_graphs: Optional[List[IRI]] = None,
                 from_named: Optional[List[IRI]] = None) -> None:
        #: ``None`` projection means ``SELECT *``.
        self.projection = projection
        self.pattern = pattern
        self.distinct = distinct
        self.reduced = reduced
        self.group_by = group_by or []
        #: maps index in group_by → alias var name (GROUP BY (expr AS ?v))
        self.group_aliases = group_aliases or {}
        self.having = having or []
        self.order_by = order_by or []
        self.limit = limit
        self.offset = offset
        self.prefixes = prefixes or {}
        self.from_graphs = from_graphs or []
        self.from_named = from_named or []

    @property
    def is_aggregate_query(self) -> bool:
        from repro.sparql.expressions import contains_aggregate
        if self.group_by:
            return True
        if self.projection:
            return any(
                item.expression is not None
                and contains_aggregate(item.expression)
                for item in self.projection)
        return False

    def output_names(self) -> List[str]:
        if self.projection is None:
            return sorted(self.pattern.variables())
        return [item.name for item in self.projection]

    def __repr__(self) -> str:
        return f"SelectQuery({self.output_names()})"


class AskQuery:
    """A parsed ASK query."""

    def __init__(self, pattern: PatternNode,
                 prefixes: Optional[Dict[str, str]] = None,
                 from_graphs: Optional[List[IRI]] = None,
                 from_named: Optional[List[IRI]] = None) -> None:
        self.pattern = pattern
        self.prefixes = prefixes or {}
        self.from_graphs = from_graphs or []
        self.from_named = from_named or []

    def __repr__(self) -> str:
        return "AskQuery()"


class ConstructQuery:
    """A parsed CONSTRUCT query: a triple template over a WHERE pattern.

    ``CONSTRUCT WHERE { bgp }`` short form is normalized at parse time
    by copying the BGP into the template.
    """

    def __init__(self, template: List[TriplePatternNode],
                 pattern: PatternNode,
                 prefixes: Optional[Dict[str, str]] = None,
                 from_graphs: Optional[List[IRI]] = None,
                 limit: Optional[int] = None,
                 offset: int = 0,
                 from_named: Optional[List[IRI]] = None) -> None:
        self.template = list(template)
        self.pattern = pattern
        self.prefixes = prefixes or {}
        self.from_graphs = from_graphs or []
        self.from_named = from_named or []
        self.limit = limit
        self.offset = offset

    def __repr__(self) -> str:
        return f"ConstructQuery({len(self.template)} template triples)"


class DescribeQuery:
    """A parsed DESCRIBE query.

    ``resources`` holds the explicitly named IRIs; ``variables`` the
    projected variables whose bindings (from ``pattern``) are described.
    ``star`` marks ``DESCRIBE *``.
    """

    def __init__(self,
                 resources: Optional[List[IRI]] = None,
                 variables: Optional[List[str]] = None,
                 pattern: Optional[PatternNode] = None,
                 star: bool = False,
                 prefixes: Optional[Dict[str, str]] = None,
                 from_graphs: Optional[List[IRI]] = None,
                 from_named: Optional[List[IRI]] = None) -> None:
        self.resources = resources or []
        self.variables = variables or []
        self.pattern = pattern
        self.star = star
        self.prefixes = prefixes or {}
        self.from_graphs = from_graphs or []
        self.from_named = from_named or []

    def __repr__(self) -> str:
        return (f"DescribeQuery({len(self.resources)} resources, "
                f"{len(self.variables)} variables)")


# NOTE: the algebra class ``Union`` shadows ``typing.Union`` at this
# point in the module, so the alias is written with PEP 604 syntax.
Query = SelectQuery | AskQuery | ConstructQuery | DescribeQuery


def pattern_nodes(node: PatternNode) -> Iterator[PatternNode]:
    """``node`` and every pattern node under it, sub-SELECT patterns
    included (right operands before left ones)."""
    stack: List[PatternNode] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (Join, LeftJoin, Union, Minus)):
            stack.append(current.left)
            stack.append(current.right)
        elif isinstance(current, (Filter, Extend, GraphNode)):
            stack.append(current.child)
        elif isinstance(current, SubSelectNode):
            stack.append(current.query.pattern)


def collect_triple_patterns(node: PatternNode) -> List[TriplePatternNode]:
    """All plain triple patterns anywhere under ``node`` (for analysis)."""
    return [pattern for current in pattern_nodes(node)
            if isinstance(current, BGP) for pattern in current.patterns
            if isinstance(pattern, TriplePatternNode)]


def collect_path_patterns(node: PatternNode) -> List[PathPatternNode]:
    """All path patterns anywhere under ``node`` (for analysis/tests)."""
    return [pattern for current in pattern_nodes(node)
            if isinstance(current, BGP) for pattern in current.patterns
            if isinstance(pattern, PathPatternNode)]


class SubSelectNode(PatternNode):
    """A nested SELECT used as a group graph pattern."""

    def __init__(self, query: SelectQuery) -> None:
        self.query = query

    def variables(self) -> set[str]:
        return set(self.query.output_names())

    def __repr__(self) -> str:
        return f"SubSelectNode({self.query!r})"
