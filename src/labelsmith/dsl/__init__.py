"""The labeling-rule DSL: parse, print, evaluate, extract."""

from .ast import (
    And,
    Contains,
    ContainsAny,
    DslError,
    DslEvaluationError,
    DslParseError,
    DslValidationError,
    Expr,
    LengthAtLeast,
    Matches,
    Not,
    Or,
    Rule,
    RuleProgram,
    ScoreCmp,
    UppercaseRatioAtLeast,
    iter_leaves,
)
from .evaluate import DEFAULT_BUDGET_STEPS, evaluate
from .extract import ExtractionError, extract_program
from .parser import (
    RULE_COUNT_SOFT_CAP,
    format_expr,
    format_program,
    parse_program,
)

__all__ = [
    "And",
    "Contains",
    "ContainsAny",
    "DslError",
    "DslEvaluationError",
    "DslParseError",
    "DslValidationError",
    "Expr",
    "ExtractionError",
    "LengthAtLeast",
    "Matches",
    "Not",
    "Or",
    "Rule",
    "RuleProgram",
    "ScoreCmp",
    "UppercaseRatioAtLeast",
    "DEFAULT_BUDGET_STEPS",
    "RULE_COUNT_SOFT_CAP",
    "evaluate",
    "extract_program",
    "format_expr",
    "format_program",
    "iter_leaves",
    "parse_program",
]
