"""SPARQL expressions: AST nodes and evaluation semantics.

Implements the SPARQL 1.1 operator mappings for the fragment QB2OLAP
emits plus a broad set of builtins:

* effective boolean value (EBV) coercion,
* value comparison with numeric type promotion
  (``"01"^^xsd:integer = "1"^^xsd:integer`` is *true* even though the
  terms differ),
* arithmetic with integer/decimal/double promotion,
* string, date and type-test builtins,
* ``IN`` / ``NOT IN``, ``COALESCE``, ``IF``, ``EXISTS`` is handled by the
  evaluator (it needs pattern evaluation).

Evaluation errors raise :class:`~repro.sparql.errors.ExpressionError`;
callers decide whether that eliminates a row (FILTER) or leaves a
variable unbound (BIND), per the SPARQL error semantics.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from decimal import Decimal
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    NUMERIC_DATATYPES,
    RDF_LANGSTRING,
    Term,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql.errors import ExpressionError

Binding = Dict[str, Term]

_TRUE = Literal("true", datatype=XSD_BOOLEAN)
_FALSE = Literal("false", datatype=XSD_BOOLEAN)


def boolean(value: bool) -> Literal:
    """The xsd:boolean literal for a Python bool."""
    return _TRUE if value else _FALSE


# ---------------------------------------------------------------------------
# Value-space helpers
# ---------------------------------------------------------------------------

def numeric_value(term: Term) -> Any:
    """The numeric Python value of a literal, or raise ExpressionError."""
    if not isinstance(term, Literal) or not term.is_numeric:
        raise ExpressionError(f"not a numeric literal: {term!r}")
    value = term.value
    if isinstance(value, str):  # ill-typed lexical form
        raise ExpressionError(f"ill-typed numeric literal: {term!r}")
    return value


def effective_boolean_value(term: Term) -> bool:
    """SPARQL 17.2.2 EBV rules."""
    if isinstance(term, Literal):
        dt = term.datatype.value
        if dt == XSD_BOOLEAN:
            value = term.value
            if isinstance(value, bool):
                return value
            raise ExpressionError(f"ill-typed boolean: {term!r}")
        if dt in (XSD_STRING, RDF_LANGSTRING):
            return len(term.lexical) > 0
        if dt in NUMERIC_DATATYPES:
            value = term.value
            if isinstance(value, str):
                return False  # ill-typed numeric has EBV false
            return bool(value) and not (
                isinstance(value, float) and math.isnan(value))
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _comparable_value(term: Term) -> tuple[str, Any]:
    """Map a term to a (category, value) pair for ordering/equality.

    Categories keep incomparable spaces apart (numbers vs strings vs
    dates vs booleans vs IRIs).
    """
    if isinstance(term, Literal):
        dt = term.datatype.value
        if dt in NUMERIC_DATATYPES:
            value = term.value
            if isinstance(value, str):
                raise ExpressionError(f"ill-typed numeric: {term!r}")
            if isinstance(value, Decimal):
                value = float(value) if value != value.to_integral_value() \
                    else int(value)
            return ("num", value)
        if dt == XSD_BOOLEAN:
            value = term.value
            if not isinstance(value, bool):
                raise ExpressionError(f"ill-typed boolean: {term!r}")
            return ("bool", value)
        if dt in (XSD_DATETIME, XSD_DATE):
            value = term.value
            if isinstance(value, str):
                raise ExpressionError(f"ill-typed date: {term!r}")
            if isinstance(value, _dt.datetime) and value.tzinfo is not None:
                value = value.replace(tzinfo=None)
            if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
                value = _dt.datetime(value.year, value.month, value.day)
            return ("date", value)
        if dt in (XSD_STRING, RDF_LANGSTRING):
            return ("str", (term.lexical, term.language or ""))
        # unknown datatype: only term-equality applies
        return ("other", (term.lexical, dt))
    if isinstance(term, IRI):
        return ("iri", term.value)
    assert isinstance(term, BNode)
    return ("bnode", term.label)


def compare_terms(left: Term, right: Term, op: str) -> bool:
    """SPARQL value comparison for ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``."""
    if op in ("=", "!="):
        if left == right:  # term-equal is always value-equal
            return op == "="
        try:
            lcat, lval = _comparable_value(left)
            rcat, rval = _comparable_value(right)
        except ExpressionError:
            raise
        if lcat != rcat:
            if lcat in ("iri", "bnode") or rcat in ("iri", "bnode"):
                return op == "!="  # distinct RDF terms
            if lcat == "other" or rcat == "other":
                raise ExpressionError(
                    f"incomparable terms: {left!r} vs {right!r}")
            return op == "!="
        if lcat == "other":
            raise ExpressionError(f"unknown datatype equality: {left!r}")
        equal = lval == rval
        return equal if op == "=" else not equal
    # ordering comparisons
    lcat, lval = _comparable_value(left)
    rcat, rval = _comparable_value(right)
    if lcat != rcat or lcat in ("other", "bnode", "iri"):
        raise ExpressionError(
            f"cannot order {left!r} against {right!r}")
    if lcat == "str":
        lval, rval = lval[0], rval[0]
    if op == "<":
        return lval < rval
    if op == "<=":
        return lval <= rval
    if op == ">":
        return lval > rval
    if op == ">=":
        return lval >= rval
    raise ExpressionError(f"unknown comparison operator {op!r}")


def order_key(term: Optional[Term]) -> tuple:
    """Total order used by ORDER BY: unbound < bnodes < IRIs < literals."""
    if term is None:
        return (0, "", "")
    if isinstance(term, BNode):
        return (1, term.label, "")
    if isinstance(term, IRI):
        return (2, term.value, "")
    assert isinstance(term, Literal)
    try:
        category, value = _comparable_value(term)
    except ExpressionError:
        category, value = "other", (term.lexical, term.datatype.value)
    if category == "num":
        return (3, "", float(value))
    if category == "date":
        return (4, value.isoformat(), "")
    if category == "bool":
        return (5, "", 1.0 if value else 0.0)
    if category == "str":
        return (6, value[0], value[1])
    return (7, term.lexical, term.datatype.value)


def promoted(left: Any, right: Any) -> tuple[Any, Any]:
    """Two numeric values under SPARQL's type promotion.

    Python already promotes integer ⊕ decimal and integer ⊕ double the
    way XPath does; decimal ⊕ double is the pair it refuses
    (``TypeError``), so there the decimal becomes a double.
    """
    if isinstance(left, float):
        if isinstance(right, Decimal):
            return left, float(right)
    elif isinstance(right, float) and isinstance(left, Decimal):
        return float(left), right
    return left, right


def arithmetic(left: Term, right: Term, op: str) -> Literal:
    """Numeric ``+ - * /`` with SPARQL type promotion."""
    lval, rval = promoted(numeric_value(left), numeric_value(right))
    if op == "+":
        result = lval + rval
    elif op == "-":
        result = lval - rval
    elif op == "*":
        result = lval * rval
    elif op == "/":
        if rval == 0:
            raise ExpressionError("division by zero")
        if isinstance(lval, int) and isinstance(rval, int):
            result = Decimal(lval) / Decimal(rval)  # xsd:integer ÷ → decimal
        else:
            result = lval / rval
    else:
        raise ExpressionError(f"unknown arithmetic operator {op!r}")
    return _numeric_literal(result)


def _numeric_literal(value: Any) -> Literal:
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return Literal(value)
    if isinstance(value, Decimal):
        normalized = value.normalize()
        if normalized == normalized.to_integral_value():
            quantized = normalized.quantize(Decimal(1))
            return Literal(str(quantized), datatype=XSD_DECIMAL)
        return Literal(str(normalized), datatype=XSD_DECIMAL)
    if isinstance(value, float):
        return Literal(value)
    raise ExpressionError(f"not a numeric result: {value!r}")


def string_value(term: Term) -> str:
    """The STR() of a term (IRI text or literal lexical form)."""
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return term.lexical
    raise ExpressionError(f"STR() of a blank node: {term!r}")


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class Expression:
    """Base class; subclasses implement :meth:`evaluate`."""

    def evaluate(self, binding: Binding, context: "EvalContext") -> Term:
        raise NotImplementedError

    def variables(self) -> set[str]:
        """Free variables mentioned anywhere in the expression."""
        return set()

    def __repr__(self) -> str:
        """``Class(field, …)`` in constructor order — what the node
        computes, never where it lives: EXPLAIN prints conditions."""
        fields = ", ".join(map(repr, vars(self).values()))
        return f"{type(self).__name__}({fields})"


class EvalContext:
    """What expression evaluation may need besides the row binding.

    ``exists_evaluator`` is injected by the query evaluator so that
    ``EXISTS { ... }`` can recursively evaluate patterns.
    ``aggregates`` holds each :class:`Aggregate`'s finished value for
    the group whose HAVING / projection is being evaluated (set by
    :func:`repro.sparql.aggregation.finalize`, ``None`` elsewhere).
    ``row`` is the index of the table row under evaluation, kept by
    :func:`repro.sparql.bindings.expression_column` and passed to
    ``exists_evaluator(pattern, binding, row)``, which may answer a
    whole table at once.
    """

    def __init__(self, exists_evaluator: Optional[Callable] = None,
                 now: Optional[_dt.datetime] = None) -> None:
        self.exists_evaluator = exists_evaluator
        self.now = now or _dt.datetime(2016, 1, 1, 0, 0, 0)
        self.aggregates: Optional[Dict["Aggregate", Term]] = None
        self.row = 0


class TermExpression(Expression):
    """A constant RDF term."""

    def __init__(self, term: Term) -> None:
        self.term = term

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        return self.term


class VariableExpression(Expression):
    """A variable reference; unbound evaluates to an error."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        value = binding.get(self.name)
        if value is None:
            raise ExpressionError(f"unbound variable ?{self.name}")
        return value

    def variables(self) -> set[str]:
        return {self.name}


class BooleanExpression(Expression):
    """``&&`` and ``||`` with SPARQL three-valued error handling."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in ("&&", "||"):
            raise ExpressionError(f"unknown boolean operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        left_error: Optional[ExpressionError] = None
        left_value: Optional[bool] = None
        try:
            left_value = effective_boolean_value(
                self.left.evaluate(binding, context))
        except ExpressionError as error:
            left_error = error
        try:
            right_value = effective_boolean_value(
                self.right.evaluate(binding, context))
        except ExpressionError:
            right_value = None
        if self.op == "&&":
            if left_value is False or right_value is False:
                return _FALSE
            if left_error is not None or right_value is None:
                raise left_error or ExpressionError("error in && operand")
            return boolean(left_value and right_value)
        # ||
        if left_value is True or right_value is True:
            return _TRUE
        if left_error is not None or right_value is None:
            raise left_error or ExpressionError("error in || operand")
        return boolean(left_value or right_value)

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()


class NotExpression(Expression):
    """Logical negation with SPARQL error propagation."""
    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        return boolean(not effective_boolean_value(
            self.operand.evaluate(binding, context)))

    def variables(self) -> set[str]:
        return self.operand.variables()


class ComparisonExpression(Expression):
    """Binary comparison with numeric/type promotion."""
    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        left = self.left.evaluate(binding, context)
        right = self.right.evaluate(binding, context)
        return boolean(compare_terms(left, right, self.op))

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()


class ArithmeticExpression(Expression):
    """Binary arithmetic over numeric literals."""
    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        return arithmetic(
            self.left.evaluate(binding, context),
            self.right.evaluate(binding, context),
            self.op,
        )

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()


class UnaryMinusExpression(Expression):
    """Numeric negation."""
    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        value = numeric_value(self.operand.evaluate(binding, context))
        return _numeric_literal(-value)

    def variables(self) -> set[str]:
        return self.operand.variables()


class InExpression(Expression):
    """``expr IN (a, b, ...)`` and its negation."""

    def __init__(self, operand: Expression, choices: Sequence[Expression],
                 negated: bool = False) -> None:
        self.operand = operand
        self.choices = list(choices)
        self.negated = negated

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        needle = self.operand.evaluate(binding, context)
        found = False
        for choice in self.choices:
            candidate = choice.evaluate(binding, context)
            try:
                if compare_terms(needle, candidate, "="):
                    found = True
                    break
            except ExpressionError:
                continue
        return boolean(found != self.negated)

    def variables(self) -> set[str]:
        result = self.operand.variables()
        for choice in self.choices:
            result |= choice.variables()
        return result


class ExistsExpression(Expression):
    """``EXISTS { pattern }`` — pattern evaluation is delegated."""

    def __init__(self, pattern: Any, negated: bool = False) -> None:
        self.pattern = pattern
        self.negated = negated

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        if context.exists_evaluator is None:
            raise ExpressionError("EXISTS used outside a query evaluator")
        exists = context.exists_evaluator(self.pattern, binding,
                                          context.row)
        return boolean(exists != self.negated)

    def variables(self) -> set[str]:
        """The variables the pattern can bind — the ones through which
        the outer row it is seeded with correlates with it."""
        return set(self.pattern.variables())


class FunctionExpression(Expression):
    """A builtin function call dispatched by (upper-case) name."""

    def __init__(self, name: str, args: Sequence[Expression],
                 distinct: bool = False) -> None:
        self.name = name.upper()
        self.args = list(args)
        self.distinct = distinct

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        handler = _BUILTINS.get(self.name)
        if handler is None:
            raise ExpressionError(f"unknown function {self.name}")
        return handler(self.args, binding, context)

    def variables(self) -> set[str]:
        result: set[str] = set()
        for arg in self.args:
            result |= arg.variables()
        return result

    def __repr__(self) -> str:
        return f"FunctionExpression({self.name!r}, {self.args!r})"


# ---------------------------------------------------------------------------
# Builtin function implementations
# ---------------------------------------------------------------------------

def _eval_args(args: Sequence[Expression], binding: Binding,
               context: EvalContext) -> List[Term]:
    return [arg.evaluate(binding, context) for arg in args]


def _require(args: Sequence[Expression], count: int, name: str) -> None:
    if len(args) != count:
        raise ExpressionError(f"{name} expects {count} argument(s)")


def _string_literal_pair(term: Term, name: str) -> tuple[str, Optional[str]]:
    if not isinstance(term, Literal) or not term.is_plain_string:
        raise ExpressionError(f"{name} expects a string literal, got {term!r}")
    return term.lexical, term.language


def _simple_literal(term: Term, name: str) -> str:
    """The lexical form of a string literal without a language tag —
    what STRDT, STRLANG and LANGMATCHES take."""
    lexical, language = _string_literal_pair(term, name)
    if language:
        raise ExpressionError(f"{name} expects a simple literal, got {term!r}")
    return lexical


def _fn_bound(args, binding, context):
    _require(args, 1, "BOUND")
    variable = args[0]
    if not isinstance(variable, VariableExpression):
        raise ExpressionError("BOUND expects a variable")
    return boolean(variable.name in binding)


def _fn_str(args, binding, context):
    _require(args, 1, "STR")
    return Literal(string_value(args[0].evaluate(binding, context)),
                   datatype=XSD_STRING)


def _fn_lang(args, binding, context):
    _require(args, 1, "LANG")
    term = args[0].evaluate(binding, context)
    if not isinstance(term, Literal):
        raise ExpressionError("LANG expects a literal")
    return Literal(term.language or "", datatype=XSD_STRING)


def _fn_datatype(args, binding, context):
    _require(args, 1, "DATATYPE")
    term = args[0].evaluate(binding, context)
    if not isinstance(term, Literal):
        raise ExpressionError("DATATYPE expects a literal")
    return term.datatype


def _fn_iri(args, binding, context):
    _require(args, 1, "IRI")
    term = args[0].evaluate(binding, context)
    if isinstance(term, IRI):
        return term
    if isinstance(term, Literal) and term.is_plain_string:
        return IRI(term.lexical)
    raise ExpressionError(f"IRI() cannot convert {term!r}")


def _fn_bnode(args, binding, context):
    if args:
        _require(args, 1, "BNODE")
        label_term = args[0].evaluate(binding, context)
        return BNode(string_value(label_term))
    return BNode()


def _fn_strdt(args, binding, context):
    _require(args, 2, "STRDT")
    lexical = _simple_literal(args[0].evaluate(binding, context), "STRDT")
    datatype = args[1].evaluate(binding, context)
    if not isinstance(datatype, IRI):
        raise ExpressionError("STRDT expects a datatype IRI")
    return Literal(lexical, datatype=datatype)


def _fn_strlang(args, binding, context):
    _require(args, 2, "STRLANG")
    lexical = _simple_literal(args[0].evaluate(binding, context), "STRLANG")
    tag = _simple_literal(args[1].evaluate(binding, context), "STRLANG")
    return Literal(lexical, language=tag)


def _fn_sameterm(args, binding, context):
    _require(args, 2, "SAMETERM")
    left = args[0].evaluate(binding, context)
    right = args[1].evaluate(binding, context)
    return boolean(left == right)


def _type_test(predicate: Callable[[Term], bool]):
    def handler(args, binding, context):
        if len(args) != 1:
            raise ExpressionError("type test expects 1 argument")
        return boolean(predicate(args[0].evaluate(binding, context)))
    return handler


def _fn_isnumeric(args, binding, context):
    _require(args, 1, "ISNUMERIC")
    term = args[0].evaluate(binding, context)
    if isinstance(term, Literal) and term.is_numeric:
        return boolean(not isinstance(term.value, str))
    return _FALSE


def _fn_strlen(args, binding, context):
    _require(args, 1, "STRLEN")
    text, _ = _string_literal_pair(
        args[0].evaluate(binding, context), "STRLEN")
    return Literal(len(text))


def _fn_substr(args, binding, context):
    if len(args) not in (2, 3):
        raise ExpressionError("SUBSTR expects 2 or 3 arguments")
    source = args[0].evaluate(binding, context)
    text, language = _string_literal_pair(source, "SUBSTR")
    start = numeric_value(args[1].evaluate(binding, context))
    if len(args) == 3:
        length = numeric_value(args[2].evaluate(binding, context))
        result = text[int(start) - 1: int(start) - 1 + int(length)]
    else:
        result = text[int(start) - 1:]
    if language:
        return Literal(result, language=language)
    return Literal(result, datatype=XSD_STRING)


def _string_unary(transform: Callable[[str], str], name: str):
    def handler(args, binding, context):
        _require(args, 1, name)
        term = args[0].evaluate(binding, context)
        text, language = _string_literal_pair(term, name)
        result = transform(text)
        if language:
            return Literal(result, language=language)
        return Literal(result, datatype=XSD_STRING)
    return handler


def _string_binary_test(test: Callable[[str, str], bool], name: str):
    def handler(args, binding, context):
        _require(args, 2, name)
        left, _ = _string_literal_pair(args[0].evaluate(binding, context), name)
        right, _ = _string_literal_pair(args[1].evaluate(binding, context), name)
        return boolean(test(left, right))
    return handler


def _fn_strbefore(args, binding, context):
    _require(args, 2, "STRBEFORE")
    text, language = _string_literal_pair(
        args[0].evaluate(binding, context), "STRBEFORE")
    needle, _ = _string_literal_pair(
        args[1].evaluate(binding, context), "STRBEFORE")
    index = text.find(needle)
    result = text[:index] if index >= 0 else ""
    if language and index >= 0:
        return Literal(result, language=language)
    return Literal(result, datatype=XSD_STRING)


def _fn_strafter(args, binding, context):
    _require(args, 2, "STRAFTER")
    text, language = _string_literal_pair(
        args[0].evaluate(binding, context), "STRAFTER")
    needle, _ = _string_literal_pair(
        args[1].evaluate(binding, context), "STRAFTER")
    index = text.find(needle)
    result = text[index + len(needle):] if index >= 0 else ""
    if language and index >= 0:
        return Literal(result, language=language)
    return Literal(result, datatype=XSD_STRING)


def _fn_concat(args, binding, context):
    parts: List[str] = []
    language: Optional[str] = None
    first = True
    for arg in args:
        text, lang = _string_literal_pair(
            arg.evaluate(binding, context), "CONCAT")
        parts.append(text)
        if first:
            language = lang
            first = False
        elif language != lang:
            language = None
    if language:
        return Literal("".join(parts), language=language)
    return Literal("".join(parts), datatype=XSD_STRING)


def _fn_langmatches(args, binding, context):
    _require(args, 2, "LANGMATCHES")
    tag = _simple_literal(args[0].evaluate(binding, context), "LANGMATCHES")
    pattern = _simple_literal(
        args[1].evaluate(binding, context), "LANGMATCHES")
    if pattern == "*":
        return boolean(bool(tag))
    return boolean(tag.lower() == pattern.lower()
                   or tag.lower().startswith(pattern.lower() + "-"))


def _regex_flags(flag_text: str) -> int:
    flags = 0
    for flag in flag_text:
        if flag == "i":
            flags |= re.IGNORECASE
        elif flag == "s":
            flags |= re.DOTALL
        elif flag == "m":
            flags |= re.MULTILINE
        elif flag == "x":
            flags |= re.VERBOSE
        else:
            raise ExpressionError(f"unsupported REGEX flag {flag!r}")
    return flags


def _fn_regex(args, binding, context):
    if len(args) not in (2, 3):
        raise ExpressionError("REGEX expects 2 or 3 arguments")
    text, _ = _string_literal_pair(args[0].evaluate(binding, context), "REGEX")
    pattern, _ = _string_literal_pair(
        args[1].evaluate(binding, context), "REGEX")
    flags = 0
    if len(args) == 3:
        flag_text, _ = _string_literal_pair(
            args[2].evaluate(binding, context), "REGEX")
        flags = _regex_flags(flag_text)
    try:
        return boolean(re.search(pattern, text, flags) is not None)
    except re.error as error:
        raise ExpressionError(f"invalid REGEX pattern: {error}")


def _fn_replace(args, binding, context):
    if len(args) not in (3, 4):
        raise ExpressionError("REPLACE expects 3 or 4 arguments")
    text, language = _string_literal_pair(
        args[0].evaluate(binding, context), "REPLACE")
    pattern, _ = _string_literal_pair(
        args[1].evaluate(binding, context), "REPLACE")
    replacement, _ = _string_literal_pair(
        args[2].evaluate(binding, context), "REPLACE")
    flags = 0
    if len(args) == 4:
        flag_text, _ = _string_literal_pair(
            args[3].evaluate(binding, context), "REPLACE")
        flags = _regex_flags(flag_text)
    try:
        result = re.sub(pattern, replacement.replace("$", "\\"), text,
                        flags=flags)
    except re.error as error:
        raise ExpressionError(f"invalid REPLACE pattern: {error}")
    if language:
        return Literal(result, language=language)
    return Literal(result, datatype=XSD_STRING)


def _numeric_unary(transform: Callable[[Any], Any], name: str):
    def handler(args, binding, context):
        _require(args, 1, name)
        value = numeric_value(args[0].evaluate(binding, context))
        return _numeric_literal(transform(value))
    return handler


def _date_component(extract: Callable[[_dt.datetime], int], name: str):
    def handler(args, binding, context):
        _require(args, 1, name)
        term = args[0].evaluate(binding, context)
        if not isinstance(term, Literal):
            raise ExpressionError(f"{name} expects a date literal")
        value = term.value
        if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
            value = _dt.datetime(value.year, value.month, value.day)
        if not isinstance(value, _dt.datetime):
            raise ExpressionError(f"{name} expects a date literal, got {term!r}")
        return Literal(extract(value))
    return handler


def _fn_now(args, binding, context):
    if args:
        raise ExpressionError("NOW takes no arguments")
    return Literal(context.now.isoformat(), datatype=XSD_DATETIME)


def _fn_coalesce(args, binding, context):
    for arg in args:
        try:
            return arg.evaluate(binding, context)
        except ExpressionError:
            continue
    raise ExpressionError("COALESCE: all arguments errored")


def _fn_if(args, binding, context):
    _require(args, 3, "IF")
    condition = effective_boolean_value(args[0].evaluate(binding, context))
    chosen = args[1] if condition else args[2]
    return chosen.evaluate(binding, context)


def _xsd_cast(datatype: str, converter: Callable[[Term], Any]):
    def handler(args, binding, context):
        if len(args) != 1:
            raise ExpressionError("cast expects 1 argument")
        term = args[0].evaluate(binding, context)
        try:
            value = converter(term)
        except (ValueError, TypeError, ArithmeticError) as error:
            raise ExpressionError(f"cast failed: {error}")
        return Literal(value, datatype=datatype) if not isinstance(value, bool) \
            else Literal("true" if value else "false", datatype=datatype)
    return handler


def _to_int(term: Term) -> int:
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float, Decimal)):
            return int(value)
        return int(str(value).strip())
    raise ValueError(f"cannot cast {term!r} to integer")


def _to_float(term: Term) -> float:
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, (int, float, Decimal, bool)):
            return float(value)
        return float(str(value).strip())
    raise ValueError(f"cannot cast {term!r} to double")


def _to_string(term: Term) -> str:
    return string_value(term)


def _to_bool(term: Term) -> bool:
    if isinstance(term, Literal):
        if term.datatype.value == XSD_BOOLEAN:
            value = term.value
            if isinstance(value, bool):
                return value
        text = term.lexical.strip().lower()
        if text in ("true", "1"):
            return True
        if text in ("false", "0"):
            return False
    raise ValueError(f"cannot cast {term!r} to boolean")


_BUILTINS: Dict[str, Callable] = {
    "BOUND": _fn_bound,
    "STR": _fn_str,
    "LANG": _fn_lang,
    "DATATYPE": _fn_datatype,
    "IRI": _fn_iri,
    "URI": _fn_iri,
    "BNODE": _fn_bnode,
    "STRDT": _fn_strdt,
    "STRLANG": _fn_strlang,
    "SAMETERM": _fn_sameterm,
    "ISIRI": _type_test(lambda t: isinstance(t, IRI)),
    "ISURI": _type_test(lambda t: isinstance(t, IRI)),
    "ISBLANK": _type_test(lambda t: isinstance(t, BNode)),
    "ISLITERAL": _type_test(lambda t: isinstance(t, Literal)),
    "ISNUMERIC": _fn_isnumeric,
    "STRLEN": _fn_strlen,
    "SUBSTR": _fn_substr,
    "UCASE": _string_unary(str.upper, "UCASE"),
    "LCASE": _string_unary(str.lower, "LCASE"),
    "STRSTARTS": _string_binary_test(lambda a, b: a.startswith(b), "STRSTARTS"),
    "STRENDS": _string_binary_test(lambda a, b: a.endswith(b), "STRENDS"),
    "CONTAINS": _string_binary_test(lambda a, b: b in a, "CONTAINS"),
    "STRBEFORE": _fn_strbefore,
    "STRAFTER": _fn_strafter,
    "CONCAT": _fn_concat,
    "LANGMATCHES": _fn_langmatches,
    "REGEX": _fn_regex,
    "REPLACE": _fn_replace,
    "ABS": _numeric_unary(abs, "ABS"),
    "ROUND": _numeric_unary(lambda v: float(round(v)) if isinstance(v, float)
                            else round(v), "ROUND"),
    "CEIL": _numeric_unary(lambda v: float(math.ceil(v))
                           if isinstance(v, float) else math.ceil(v), "CEIL"),
    "FLOOR": _numeric_unary(lambda v: float(math.floor(v))
                            if isinstance(v, float) else math.floor(v), "FLOOR"),
    "YEAR": _date_component(lambda d: d.year, "YEAR"),
    "MONTH": _date_component(lambda d: d.month, "MONTH"),
    "DAY": _date_component(lambda d: d.day, "DAY"),
    "HOURS": _date_component(lambda d: d.hour, "HOURS"),
    "MINUTES": _date_component(lambda d: d.minute, "MINUTES"),
    "SECONDS": _date_component(lambda d: d.second, "SECONDS"),
    "NOW": _fn_now,
    "COALESCE": _fn_coalesce,
    "IF": _fn_if,
    "XSD:INTEGER": _xsd_cast(XSD_INTEGER, _to_int),
    "XSD:DECIMAL": _xsd_cast(XSD_DECIMAL, _to_float),
    "XSD:DOUBLE": _xsd_cast(XSD_DOUBLE, _to_float),
    "XSD:FLOAT": _xsd_cast(XSD_FLOAT, _to_float),
    "XSD:STRING": _xsd_cast(XSD_STRING, _to_string),
    "XSD:BOOLEAN": _xsd_cast(XSD_BOOLEAN, _to_bool),
}

#: Aggregate names are parsed into Aggregate objects, not FunctionExpression.
AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"})


class Aggregate(Expression):
    """An aggregate call inside a SELECT/HAVING of a grouped query.

    Here we only carry structure: what each aggregate computes is
    stated once, in :mod:`repro.sparql.aggregation`.  ``expression`` is
    ``None`` for ``COUNT(*)``.
    """

    def __init__(self, name: str, expression: Optional[Expression],
                 distinct: bool = False,
                 separator: str = " ") -> None:
        self.name = name.upper()
        if self.name not in AGGREGATE_NAMES:
            raise ExpressionError(f"unknown aggregate {name!r}")
        self.expression = expression
        self.distinct = distinct
        self.separator = separator

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        """The value the grouping stage finished for the current group."""
        value = (context.aggregates or {}).get(self)
        if value is None:
            raise ExpressionError(
                f"aggregate {self.name} has no value here: outside GROUP BY "
                f"context, or it is an error for this group")
        return value

    def variables(self) -> set[str]:
        return self.expression.variables() if self.expression else set()

    def apply(self, group: List[Binding], context: EvalContext) -> Term:
        """Compute this aggregate over the bindings of one group."""
        from repro.sparql.aggregation import accumulator
        values: List[Any] = []
        for row in group:
            try:
                values.append(self.expression.evaluate(row, context)
                              if self.expression else row)
            except ExpressionError:
                continue
        return accumulator(self).over(values)

    def __repr__(self) -> str:
        distinct = "DISTINCT " if self.distinct else ""
        separator = f"; SEPARATOR={self.separator!r}" \
            if self.name == "GROUP_CONCAT" else ""
        return (f"Aggregate({self.name}({distinct}{self.expression!r}"
                f"{separator}))")


def subexpressions(expression: Expression) -> Iterator[Expression]:
    """``expression`` and every expression nested in it (an aggregate's
    argument excepted: it is evaluated per row, not per group)."""
    yield expression
    for attr in ("left", "right", "operand"):
        child = getattr(expression, attr, None)
        if isinstance(child, Expression):
            yield from subexpressions(child)
    for attr in ("args", "choices"):
        for child in getattr(expression, attr, None) or ():
            if isinstance(child, Expression):
                yield from subexpressions(child)


def contains_aggregate(expression: Expression) -> bool:
    """True when an expression tree contains an Aggregate node."""
    return any(isinstance(node, Aggregate)
               for node in subexpressions(expression))
