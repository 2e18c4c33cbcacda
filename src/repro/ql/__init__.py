"""QL: the high-level OLAP language of the Querying module.

The pipeline mirrors the paper's Fig. 3: QL text is parsed
(:mod:`repro.ql.parser`), semantically checked against the QB4OLAP
schema (:mod:`repro.ql.checker`), simplified (slice-early and
roll-up-fusion rules, :mod:`repro.ql.simplifier`), translated into two
equivalent SPARQL queries (:mod:`repro.ql.translator`), executed on the
endpoint, and materialized as a result cube (:mod:`repro.ql.cube`).
"""

from repro.ql.ast import (
    AttributePath,
    BooleanCondition,
    Comparison,
    Dice,
    DiceCondition,
    DrillDown,
    MeasureRef,
    NotCondition,
    Operation,
    QLProgram,
    QLSyntaxError,
    RollUp,
    Slice,
    Statement,
)
from repro.ql.builder import (
    ConditionBuilder,
    QLBuilder,
    all_of,
    any_of,
    attr,
    measure,
    negate,
)
from repro.ql.checker import CubeState, QLSemanticError, check_program
from repro.ql.cube import Axis, ResultCube
from repro.ql.drillacross import (
    DrillAcrossError,
    DrillAcrossResult,
    drill_across,
    execute_drill_across,
)
from repro.ql.executor import ExecutionReport, QLEngine, QLResult
from repro.ql.parser import parse_ql
from repro.ql.simplifier import (
    SimplificationReport,
    SimplifiedProgram,
    simplify,
    simplify_with_report,
)
from repro.ql.translator import Translation, TranslationMetadata, translate

__all__ = [
    "AttributePath",
    "Axis",
    "BooleanCondition",
    "Comparison",
    "ConditionBuilder",
    "CubeState",
    "Dice",
    "DiceCondition",
    "DrillAcrossError",
    "DrillAcrossResult",
    "DrillDown",
    "ExecutionReport",
    "drill_across",
    "execute_drill_across",
    "MeasureRef",
    "NotCondition",
    "Operation",
    "QLBuilder",
    "QLEngine",
    "QLProgram",
    "QLResult",
    "QLSemanticError",
    "QLSyntaxError",
    "ResultCube",
    "RollUp",
    "SimplificationReport",
    "SimplifiedProgram",
    "Slice",
    "Statement",
    "Translation",
    "TranslationMetadata",
    "all_of",
    "any_of",
    "attr",
    "check_program",
    "measure",
    "negate",
    "parse_ql",
    "simplify",
    "simplify_with_report",
    "translate",
]
