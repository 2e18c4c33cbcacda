"""The 21 normative RDF Data Cube integrity constraints — the QB validator.

The W3C recommendation (§11.1) *defines* well-formedness operationally:
a QB data set is well-formed iff, after normalization
(:mod:`repro.qb.normalize`), every one of 21 ``ASK`` queries returns
``false``.  This module carries those queries and runs them on the
in-repo SPARQL engine — the same way the paper's tool would validate
input cubes against a Virtuoso endpoint before enrichment.  The
constraints are specified against *normalized* graphs: run
:func:`check_graph` on a normalized copy.

The query texts follow the spec with three engine-documented
adaptations:

* **IC-12** (no duplicate observations) is the one constraint answered
  by code instead of an ``ASK``: :func:`has_duplicate_observations`
  keys every observation's dimension values by SPARQL ``=`` and looks
  for a key held twice, in linear time.  The pairwise text
  (:data:`IC12_PAIRWISE`, a nested-``FILTER NOT EXISTS`` form of the
  spec's ``MIN(?equal)`` subquery) stays as its test oracle.
* **IC-17** restates the spec's ``HAVING (?count != ?numMeasures)``
  as ``HAVING (COUNT(?obs2) != ?numMeasures)`` (the aggregate inlined,
  same value).
* **IC-20/IC-21** are the spec's *templates*: they are expanded per
  ``qb:parentChildProperty`` value found in the graph
  (:func:`hierarchy_constraint_checks`) exactly as §11.1.1 prescribes —
  IRI-valued properties instantiate IC-20, ``owl:inverseOf`` blank
  nodes instantiate IC-21 with an inverse path.

Two adjunct ``ASK`` rows the spec leaves out run after the 21
(:data:`ADJUNCT_CONSTRAINTS`): ``qb:dimension`` values are IRIs and
measure values are literals.  IC-17 compares observation pairs
(quadratic); it is flagged ``expensive`` so :func:`check_graph` can
skip it on large graphs.

The same table states the QB4OLAP checks (``Q4-*`` on the schema,
``Q4I-*`` on the level instances), as templates expanded over one
cube's DSD (:func:`cube_constraint_checks`): run them on a graph
holding the enrichment's schema and instance triples.  Two checks of
the Python validator they replaced have no row, because the schema
reader repairs what they looked for: a dimension always has the
hierarchy that named it, and a DSD level in no hierarchy becomes a
degenerate dimension of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.rdf.graph import Dataset, Graph
from repro.rdf.namespace import OWL, QB
from repro.rdf.terms import IRI, Term
from repro.qb4olap import vocabulary as qb4o
from repro.sparql.errors import ExpressionError
from repro.sparql.evaluator import evaluate_query
from repro.sparql.expressions import _comparable_value
from repro.sparql.parser import parse_query

PROLOGUE = """\
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX qb:   <http://purl.org/linked-data/cube#>
PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
PREFIX owl:  <http://www.w3.org/2002/07/owl#>
PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
"""


@dataclass
class ConstraintCheck:
    """One integrity constraint: id, spec title and its ASK queries.

    A constraint is violated when *any* of its queries returns true —
    or, when it has an ``answer``, when that returns true.
    """

    ic: str
    label: str
    queries: List[str]
    expensive: bool = False
    answer: Optional[Callable[[Graph], bool]] = None


@dataclass
class ConstraintReport:
    """Outcome of a constraint run over one graph.

    ``results`` holds the verdicts in the order the checks ran: the W3C
    ids by number (IC-20/21 after IC-19), then the adjuncts; or the
    QB4OLAP rows in table order.
    """

    results: Dict[str, bool] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        return [ic for ic, violated in self.results.items() if violated]

    @property
    def well_formed(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = []
        for ic, violated in self.results.items():
            lines.append(f"{ic}: {'VIOLATED' if violated else 'ok'}")
        for ic in self.skipped:
            lines.append(f"{ic}: skipped")
        return "\n".join(lines)


def _run(graph: Graph, query_text: str):
    dataset = Dataset()
    dataset.default = graph
    return evaluate_query(parse_query(query_text), dataset,
                          default_as_union=False)


#: IC-12 as the spec states it, pairwise (a nested-``FILTER NOT
#: EXISTS`` form of its ``MIN(?equal)`` subquery): quadratic in
#: observations.  The oracle of :func:`has_duplicate_observations`.
IC12_PAIRWISE = PROLOGUE + """
ASK {
  ?obs1 qb:dataSet ?dataset .
  ?obs2 qb:dataSet ?dataset .
  FILTER (?obs1 != ?obs2)
  FILTER NOT EXISTS {
    ?dataset qb:structure/qb:component/qb:componentProperty ?dim .
    ?dim a qb:DimensionProperty .
    FILTER NOT EXISTS {
      ?obs1 ?dim ?value1 .
      ?obs2 ?dim ?value2 .
      FILTER (?value1 = ?value2)
    }
  }
}
"""

_DATASET_DIMENSIONS = PROLOGUE + """
SELECT DISTINCT ?dataset ?dim WHERE {
  [] qb:dataSet ?dataset .
  OPTIONAL {
    ?dataset qb:structure/qb:component/qb:componentProperty ?dim .
    ?dim a qb:DimensionProperty .
  }
}
"""


def _equality_key(term: Term) -> Hashable:
    """Equal keys exactly when SPARQL ``=`` holds between two terms.

    A term whose ``=`` is an error (ill-typed, unknown datatype) or
    never true (NaN) is only equal to itself, so it keys as itself.
    """
    try:
        category, value = _comparable_value(term)
    except ExpressionError:
        return ("term", term)
    if category == "other" or value != value:
        return ("term", term)
    return (category, value)


def has_duplicate_observations(graph: Graph) -> bool:
    """IC-12 in linear time: do two observations of one data set share
    a value, under ``=``, on every dimension of its structure?

    One SELECT per distinct dimension list returns each observation's
    dimension values, a row per combination of a multi-valued
    dimension's values — "shares some value" in the pairwise text.  An
    observation lacking a dimension has no row, so it duplicates
    nothing; with no dimensions every two observations are duplicates.
    """
    dimensions: Dict[Term, List[Term]] = {}
    for dataset, dim in _run(graph, _DATASET_DIMENSIONS).rows:
        listed = dimensions.setdefault(dataset, [])
        if dim is not None:
            listed.append(dim)
    groups: Dict[Tuple[Term, ...], Set[Term]] = {}
    for dataset, dims in dimensions.items():
        # a blank-node dimension is no predicate: no observation has a
        # value for it, so its data set holds no duplicates
        if all(isinstance(dim, IRI) for dim in dims):
            key = tuple(sorted(dims, key=lambda dim: dim.value))
            groups.setdefault(key, set()).add(dataset)
    keys: Dict[Term, Hashable] = {}
    for dims, datasets in groups.items():
        names = [f"?v{position}" for position in range(len(dims))]
        values = "".join(f" ; {dim.n3()} {name}"
                         for dim, name in zip(dims, names))
        rows = _run(graph, PROLOGUE + (
            f"SELECT ?obs ?dataset {' '.join(names)} "
            f"WHERE {{ ?obs qb:dataSet ?dataset{values} }}")).rows
        holder: Dict[Tuple[Hashable, ...], Term] = {}
        for obs, dataset, *row in rows:
            if dataset not in datasets:
                continue
            for term in row:
                if term not in keys:
                    keys[term] = _equality_key(term)
            seen = holder.setdefault(
                (dataset, *(keys[term] for term in row)), obs)
            if seen != obs:
                return True
    return False


STATIC_CONSTRAINTS: List[ConstraintCheck] = [
    ConstraintCheck("IC-1", "Unique DataSet", [PROLOGUE + """
ASK {
  {
    ?obs a qb:Observation .
    FILTER NOT EXISTS { ?obs qb:dataSet ?dataset1 . }
  } UNION {
    ?obs a qb:Observation ;
       qb:dataSet ?dataset1, ?dataset2 .
    FILTER (?dataset1 != ?dataset2)
  }
}
"""]),
    ConstraintCheck("IC-2", "Unique DSD", [PROLOGUE + """
ASK {
  {
    ?dataset a qb:DataSet .
    FILTER NOT EXISTS { ?dataset qb:structure ?dsd . }
  } UNION {
    ?dataset a qb:DataSet ;
       qb:structure ?dsd1, ?dsd2 .
    FILTER (?dsd1 != ?dsd2)
  }
}
"""]),
    ConstraintCheck("IC-3", "DSD includes measure", [PROLOGUE + """
ASK {
  ?dsd a qb:DataStructureDefinition .
  FILTER NOT EXISTS {
    ?dsd qb:component [ qb:componentProperty [ a qb:MeasureProperty ] ]
  }
}
"""]),
    ConstraintCheck("IC-4", "Dimensions have range", [PROLOGUE + """
ASK {
  ?dim a qb:DimensionProperty .
  FILTER NOT EXISTS { ?dim rdfs:range [] }
}
"""]),
    ConstraintCheck("IC-5", "Concept dimensions have code lists",
                    [PROLOGUE + """
ASK {
  ?dim a qb:DimensionProperty ;
       rdfs:range skos:Concept .
  FILTER NOT EXISTS { ?dim qb:codeList [] }
}
"""]),
    ConstraintCheck("IC-6", "Only attributes may be optional",
                    [PROLOGUE + """
ASK {
  ?dsd qb:component ?componentSpec .
  ?componentSpec qb:componentRequired "false"^^xsd:boolean ;
                 qb:componentProperty ?component .
  FILTER NOT EXISTS { ?component a qb:AttributeProperty }
}
"""]),
    ConstraintCheck("IC-7", "Slice Keys must be declared", [PROLOGUE + """
ASK {
  ?sliceKey a qb:SliceKey .
  FILTER NOT EXISTS {
    [ a qb:DataStructureDefinition ] qb:sliceKey ?sliceKey
  }
}
"""]),
    ConstraintCheck("IC-8", "Slice Keys consistent with DSD", [PROLOGUE + """
ASK {
  ?slicekey a qb:SliceKey ;
      qb:componentProperty ?prop .
  ?dsd qb:sliceKey ?slicekey .
  FILTER NOT EXISTS { ?dsd qb:component [ qb:componentProperty ?prop ] }
}
"""]),
    ConstraintCheck("IC-9", "Unique slice structure", [PROLOGUE + """
ASK {
  {
    ?slice a qb:Slice .
    FILTER NOT EXISTS { ?slice qb:sliceStructure ?key }
  } UNION {
    ?slice a qb:Slice ;
           qb:sliceStructure ?key1, ?key2 .
    FILTER (?key1 != ?key2)
  }
}
"""]),
    ConstraintCheck("IC-10", "Slice dimensions complete", [PROLOGUE + """
ASK {
  ?slice qb:sliceStructure [ qb:componentProperty ?dim ] .
  FILTER NOT EXISTS { ?slice ?dim [] }
}
"""]),
    ConstraintCheck("IC-11", "All dimensions required", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?dim .
  ?dim a qb:DimensionProperty .
  FILTER NOT EXISTS { ?obs ?dim [] }
}
"""]),
    ConstraintCheck("IC-12", "No duplicate observations", [],
                    answer=has_duplicate_observations),
    ConstraintCheck("IC-13", "Required attributes", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component ?component .
  ?component qb:componentRequired "true"^^xsd:boolean ;
             qb:componentProperty ?attr .
  FILTER NOT EXISTS { ?obs ?attr [] }
}
"""]),
    ConstraintCheck("IC-14", "All measures present", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure ?dsd .
  FILTER NOT EXISTS {
    ?dsd qb:component/qb:componentProperty qb:measureType
  }
  ?dsd qb:component/qb:componentProperty ?measure .
  ?measure a qb:MeasureProperty .
  FILTER NOT EXISTS { ?obs ?measure [] }
}
"""]),
    ConstraintCheck("IC-15", "Measure dimension consistent", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure ?dsd ;
       qb:measureType ?measure .
  ?dsd qb:component/qb:componentProperty qb:measureType .
  FILTER NOT EXISTS { ?obs ?measure [] }
}
"""]),
    ConstraintCheck("IC-16", "Single measure on measure dimension cube",
                    [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure ?dsd ;
       qb:measureType ?measure ;
       ?omeasure [] .
  ?dsd qb:component/qb:componentProperty qb:measureType ;
       qb:component/qb:componentProperty ?omeasure .
  ?omeasure a qb:MeasureProperty .
  FILTER (?omeasure != ?measure)
}
"""]),
    ConstraintCheck("IC-17", "All measures present in measures dimension cube",
                    [PROLOGUE + """
ASK {
  {
    SELECT ?numMeasures (COUNT(?obs2) AS ?count) WHERE {
      {
        SELECT ?dsd (COUNT(?m) AS ?numMeasures) WHERE {
          ?dsd qb:component/qb:componentProperty ?m .
          ?m a qb:MeasureProperty .
        } GROUP BY ?dsd
      }
      ?obs1 qb:dataSet/qb:structure ?dsd ;
            qb:measureType ?m1 .
      ?obs2 qb:dataSet/qb:structure ?dsd ;
            qb:measureType ?m2 .
      FILTER NOT EXISTS {
        ?dsd qb:component/qb:componentProperty ?dim .
        FILTER (?dim != qb:measureType)
        ?dim a qb:DimensionProperty .
        ?obs1 ?dim ?v1 .
        ?obs2 ?dim ?v2 .
        FILTER (?v1 != ?v2)
      }
    } GROUP BY ?obs1 ?numMeasures
      HAVING (COUNT(?obs2) != ?numMeasures)
  }
}
"""], expensive=True),
    ConstraintCheck("IC-18", "Consistent data set links", [PROLOGUE + """
ASK {
  ?dataset qb:slice ?slice .
  ?slice   qb:observation ?obs .
  FILTER NOT EXISTS { ?obs qb:dataSet ?dataset . }
}
"""]),
    ConstraintCheck("IC-19", "Codes from code list", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?dim .
  ?dim a qb:DimensionProperty ;
       qb:codeList ?list .
  ?list a skos:ConceptScheme .
  ?obs ?dim ?v .
  FILTER NOT EXISTS { ?v a skos:Concept ; skos:inScheme ?list }
}
""", PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?dim .
  ?dim a qb:DimensionProperty ;
       qb:codeList ?list .
  ?list a skos:Collection .
  ?obs ?dim ?v .
  FILTER NOT EXISTS { ?v a skos:Concept . ?list skos:member+ ?v }
}
"""]),
]

#: IC-20/IC-21 template bodies; ``%(p)s`` is the parent-child property.
_IC20_TEMPLATE = PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?dim .
  ?dim a qb:DimensionProperty ;
       qb:codeList ?list .
  ?list a qb:HierarchicalCodeList .
  ?obs ?dim ?v .
  FILTER NOT EXISTS { ?list qb:hierarchyRoot/<%(p)s>* ?v }
}
"""

_IC21_TEMPLATE = PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?dim .
  ?dim a qb:DimensionProperty ;
       qb:codeList ?list .
  ?list a qb:HierarchicalCodeList .
  ?obs ?dim ?v .
  FILTER NOT EXISTS { ?list qb:hierarchyRoot/(^<%(p)s>)* ?v }
}
"""


def hierarchy_constraint_checks(graph: Graph) -> List[ConstraintCheck]:
    """Expand the IC-20/IC-21 templates for ``graph``.

    One IC-20 query per IRI-valued ``qb:parentChildProperty``; one IC-21
    query per ``[owl:inverseOf <p>]`` blank-node value, per §11.1.1.
    """
    forward: List[IRI] = []
    inverse: List[IRI] = []
    for _, _, value in graph.triples((None, QB.parentChildProperty, None)):
        if isinstance(value, IRI):
            if value not in forward:
                forward.append(value)
        else:  # blank node: look for owl:inverseOf
            for inverted in graph.objects(value, OWL.inverseOf):
                if isinstance(inverted, IRI) and inverted not in inverse:
                    inverse.append(inverted)
    checks: List[ConstraintCheck] = []
    if forward:
        checks.append(ConstraintCheck(
            "IC-20", "Codes from hierarchy",
            [_IC20_TEMPLATE % {"p": iri.value} for iri in forward]))
    if inverse:
        checks.append(ConstraintCheck(
            "IC-21", "Codes from hierarchy (inverse)",
            [_IC21_TEMPLATE % {"p": iri.value} for iri in inverse]))
    return checks


#: Checks the recommendation leaves out, run after its 21.
ADJUNCT_CONSTRAINTS: List[ConstraintCheck] = [
    ConstraintCheck("IC-DIM", "Dimensions are IRIs", [PROLOGUE + """
ASK {
  [] qb:dimension ?dim .
  FILTER (!isIRI(?dim))
}
"""]),
    ConstraintCheck("IC-MEAS", "Measure values are literals", [PROLOGUE + """
ASK {
  ?obs qb:dataSet/qb:structure/qb:component/qb:componentProperty ?measure .
  ?measure a qb:MeasureProperty .
  ?obs ?measure ?value .
  FILTER (!isLiteral(?value))
}
"""]),
]


def _among(terms: Tuple[IRI, ...]) -> str:
    return ", ".join(term.n3() for term in terms)


#: The hierarchies of one cube: the dimensions its DSD's levels belong
#: to, and every hierarchy of those dimensions.  ``%(dsd)s`` is the
#: DSD's IRI.
_CUBE_HIERARCHIES = """
  <%(dsd)s> qb:component/qb4o:level ?base .
  ?anchor a qb4o:Hierarchy ; qb4o:hasLevel ?base ; qb4o:inDimension ?dim .
  ?dim qb4o:hasHierarchy|^qb4o:inDimension ?h .
"""

#: ... and their roll-up steps between two levels.
_CUBE_STEPS = _CUBE_HIERARCHIES + """
  ?step qb4o:inHierarchy ?h ;
        qb4o:childLevel ?child ;
        qb4o:parentLevel ?parent .
  FILTER (isIRI(?child) && isIRI(?parent))
"""

#: Each step's members and how many of them break it: a child member
#: of a ManyToOne or OneToOne step (a step stating no cardinality reads
#: as ManyToOne) must have exactly one ``skos:broader`` parent among the
#: parent level's members.  Zero parents break it as two do.
_STEP_ERRORS = """ WHERE {
  { SELECT DISTINCT ?child ?parent ?card WHERE {""" + _CUBE_STEPS + """
      OPTIONAL { ?step qb4o:pcCardinality ?card . FILTER isIRI(?card) }
  } }
  ?member qb4o:memberOf ?child .
  OPTIONAL {
    { SELECT ?member ?parent (COUNT(DISTINCT ?up) AS ?ups) WHERE {
        ?member skos:broader ?up .
        ?up qb4o:memberOf ?parent .
      } GROUP BY ?member ?parent }
  }
  BIND (IF((!BOUND(?card) || ?card IN (""" + _among(
    (qb4o.MANY_TO_ONE, qb4o.ONE_TO_ONE)) + """))
           && COALESCE(?ups, 0) != 1, 1, 0) AS ?bad)
} GROUP BY ?child ?parent"""

#: The QB4OLAP rows (Etcheverry, Gomez & Vaisman's structure), as
#: templates over one cube's DSD: ``(id, label, ASK text)``.
_CUBE_TEMPLATES: List[Tuple[str, str, str]] = [
    ("Q4-MEASURE", "Cube declares a measure", """
ASK { FILTER NOT EXISTS {
  <%(dsd)s> qb:component/qb:measure ?measure . FILTER isIRI(?measure)
} }
"""),
    ("Q4-AGG", "Measures carry a known aggregate function", """
ASK {
  <%(dsd)s> qb:component ?component .
  ?component qb:measure ?measure ; qb4o:aggregateFunction ?function .
  FILTER (isIRI(?measure) && isIRI(?function)
          && ?function NOT IN (""" + _among(qb4o.AGGREGATE_FUNCTIONS) + """))
}
"""),
    ("Q4-DIM", "Cube declares a dimension", """
ASK { FILTER NOT EXISTS {
  <%(dsd)s> qb:component/qb4o:level ?level . FILTER isIRI(?level)
} }
"""),
    ("Q4-LEVELS", "Hierarchies have levels",
     "ASK {" + _CUBE_HIERARCHIES + """
  FILTER NOT EXISTS { ?h qb4o:hasLevel ?level . FILTER isIRI(?level) }
}
"""),
    ("Q4-STEP", "Steps stay inside their hierarchy",
     "ASK {" + _CUBE_STEPS + """
  FILTER (NOT EXISTS { ?h qb4o:hasLevel ?child }
          || NOT EXISTS { ?h qb4o:hasLevel ?parent })
}
"""),
    ("Q4-CARD", "Steps carry a known cardinality", "ASK {" + _CUBE_STEPS + """
  ?step qb4o:pcCardinality ?card .
  FILTER (isIRI(?card)
          && ?card NOT IN (""" + _among(qb4o.CARDINALITIES) + """))
}
"""),
    ("Q4-SELF", "No step rolls a level to itself", "ASK {" + _CUBE_STEPS + """
  FILTER (?child = ?parent)
}
"""),
    ("Q4-CYCLE", "No roll-up cycle", "ASK {" + _CUBE_STEPS + """
  ?child (^qb4o:childLevel/qb4o:parentLevel)+ ?child .
}
"""),
    ("Q4I-EMPTY", "Levels have members", """
ASK {
  { <%(dsd)s> qb:component/qb4o:level ?level }
  UNION {""" + _CUBE_HIERARCHIES + """ ?h qb4o:hasLevel ?level }
  FILTER isIRI(?level)
  FILTER NOT EXISTS { ?member qb4o:memberOf ?level }
}
"""),
    ("Q4I-FUNC", "Steps are functional within the tolerance",
     "ASK { { SELECT ?child ?parent" + _STEP_ERRORS + """
  HAVING (SUM(?bad) / COUNT(?member) > %(tolerance)r)
} }
"""),
]


def cube_constraint_checks(dsd: IRI, functional_tolerance: float = 0.0
                           ) -> List[ConstraintCheck]:
    """Expand the QB4OLAP rows for the cube whose DSD is ``dsd``.

    Run them on a graph holding the cube's schema and level instances.
    ``Q4I-FUNC`` is violated when a step's error rate
    (:func:`step_error_rates`) exceeds ``functional_tolerance``, the
    quasi-FD threshold enrichment may have accepted.
    """
    values = {"dsd": dsd.value, "tolerance": float(functional_tolerance)}
    return [ConstraintCheck(ic, label, [PROLOGUE + text % values])
            for ic, label, text in _CUBE_TEMPLATES]


def step_error_rates(graph: Graph, dsd: IRI
                     ) -> Dict[Tuple[Term, Term], float]:
    """``(child level, parent level)`` → the fraction of the child
    level's members that break the step (``Q4I-FUNC``'s rate), for
    every step of the cube whose child level has members."""
    query = (PROLOGUE + "SELECT ?child ?parent (COUNT(?member) AS ?members)"
             " (SUM(?bad) AS ?errors)" + _STEP_ERRORS) % {"dsd": dsd.value}
    return {(child, parent): errors.value / members.value
            for child, parent, members, errors in _run(graph, query).rows}


def all_constraint_checks(graph: Graph) -> List[ConstraintCheck]:
    """The static constraints, the expanded hierarchy templates, then
    the adjuncts."""
    return (STATIC_CONSTRAINTS + hierarchy_constraint_checks(graph)
            + ADJUNCT_CONSTRAINTS)


def check_constraint(graph: Graph, check: ConstraintCheck) -> bool:
    """True when ``graph`` violates ``check``."""
    if check.answer is not None:
        return check.answer(graph)
    return any(bool(_run(graph, query)) for query in check.queries)


def check_graph(graph: Graph,
                include_expensive: Optional[bool] = None,
                expensive_limit: int = 2000) -> ConstraintReport:
    """Run the full constraint suite over a normalized graph.

    ``include_expensive`` defaults to running the quadratic IC-17 only
    when the graph holds at most ``expensive_limit`` triples.  Skipped
    constraints are reported, never silently dropped.
    """
    if include_expensive is None:
        include_expensive = len(graph) <= expensive_limit
    report = ConstraintReport()
    for check in all_constraint_checks(graph):
        if check.expensive and not include_expensive:
            report.skipped.append(check.ic)
            continue
        report.results[check.ic] = check_constraint(graph, check)
    return report
