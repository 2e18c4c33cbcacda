"""A SPARQL 1.1 engine for in-memory RDF graphs.

This package stands in for the Virtuoso 7 endpoint of the paper's
architecture.  Supported fragment (everything QB2OLAP emits, plus what
the tests exercise):

* **Query forms**: ``SELECT`` (with ``DISTINCT``/``REDUCED``), ``ASK``,
  ``CONSTRUCT`` (incl. the ``CONSTRUCT WHERE`` short form) and
  ``DESCRIBE`` (concise bounded descriptions).
* **Patterns**: basic graph patterns, ``OPTIONAL``, ``UNION``,
  ``MINUS``, ``FILTER``, ``BIND``, ``VALUES``, ``GRAPH``, nested
  sub-``SELECT``, and **property paths** (``/``, ``|``, ``^``, ``?``,
  ``*``, ``+``, negated property sets) with W3C closure semantics.
* **Expressions**: comparisons with numeric promotion, arithmetic,
  boolean logic with SPARQL error semantics, ``IN``/``NOT IN``,
  ``EXISTS``/``NOT EXISTS``, ~45 builtins, xsd casts.
* **Aggregation**: ``GROUP BY`` (vars and expressions with aliases),
  ``HAVING``, ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``/``SAMPLE``/
  ``GROUP_CONCAT`` with ``DISTINCT``.
* **Solution modifiers**: ``ORDER BY`` (ASC/DESC), ``LIMIT``/``OFFSET``.
* **Updates**: ``INSERT DATA``, ``DELETE DATA``, ``DELETE/INSERT ...
  WHERE`` (incl. ``WITH``), ``DELETE WHERE``, ``CLEAR``, ``CREATE``,
  ``DROP``, with ``GRAPH`` blocks.
* **Result formats** (:mod:`repro.sparql.serializers`): SPARQL 1.1
  JSON (round-trippable), XML, CSV and TSV.
* **Plans**: BGPs are planned by a cost-based optimizer (greedy join
  ordering over the O(1) statistics layer in :mod:`repro.rdf.stats`)
  into cached :class:`~repro.sparql.optimizer.PhysicalPlan`\\ s;
  :func:`repro.sparql.explain.explain` renders the plan tree with
  estimated — and, with ``analyze=True``, actual — per-step
  cardinalities.
* **Dataset clauses**: ``FROM`` / ``FROM NAMED`` with W3C scoping on
  all four query forms.

Not supported: federated ``SERVICE``.
"""

from repro.sparql.endpoint import (
    EndpointLimits,
    EndpointStatistics,
    LocalEndpoint,
    QueryLogEntry,
)
from repro.sparql.errors import (
    EndpointError,
    EvaluationError,
    ExpressionError,
    QuerySyntaxError,
    SPARQLError,
    UpdateError,
)
from repro.sparql.bindings import BindingTable
from repro.sparql.evaluator import (
    PROBE_COUNTER,
    DatasetContext,
    evaluate_query,
)
from repro.sparql.explain import explain, plan_cache_statistics
from repro.sparql.optimizer import (
    PLAN_CACHE,
    PhysicalPlan,
    PlanCache,
    PlanStep,
)
from repro.sparql.parser import parse_query, parse_update
from repro.sparql.results import ResultTable
from repro.sparql.serializers import (
    boolean_to_json,
    boolean_to_xml,
    results_from_json,
    results_to_csv,
    results_to_json,
    results_to_tsv,
    results_to_xml,
)

__all__ = [
    "BindingTable",
    "DatasetContext",
    "EndpointError",
    "EndpointLimits",
    "EndpointStatistics",
    "EvaluationError",
    "ExpressionError",
    "LocalEndpoint",
    "PLAN_CACHE",
    "PROBE_COUNTER",
    "PhysicalPlan",
    "PlanCache",
    "PlanStep",
    "QueryLogEntry",
    "QuerySyntaxError",
    "ResultTable",
    "SPARQLError",
    "UpdateError",
    "boolean_to_json",
    "boolean_to_xml",
    "evaluate_query",
    "explain",
    "parse_query",
    "parse_update",
    "plan_cache_statistics",
    "results_from_json",
    "results_to_csv",
    "results_to_json",
    "results_to_tsv",
    "results_to_xml",
]
