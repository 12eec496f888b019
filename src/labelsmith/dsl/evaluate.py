"""First-match evaluation of rule programs against records.

Each evaluation of a program on a record gets a fresh work budget
(``DEFAULT_BUDGET_STEPS``), which its ``matches`` leaves draw on in regex
steps (one per live NFA thread per text position). A program that runs
over it votes ABSTAIN for that record and the event is logged; one huge
record must not stall a labeling run. The count depends only on the
program and the record, never on the clock or the machine's load, so
votes are reproducible. The regex engine is linear-time, so the budget is
a backstop for sheer input size, not for pathological patterns.
"""

from __future__ import annotations

import logging

from ..data import ABSTAIN, Record
from . import rex
from .ast import (
    And,
    Contains,
    ContainsAny,
    DslEvaluationError,
    Expr,
    LengthAtLeast,
    Matches,
    Not,
    Or,
    RuleProgram,
    ScoreCmp,
    UppercaseRatioAtLeast,
)

logger = logging.getLogger("labelsmith.dsl")

DEFAULT_BUDGET_STEPS = 1_000_000


def evaluate(program: RuleProgram, record: Record, budget_steps: int = DEFAULT_BUDGET_STEPS) -> int:
    """Vote of ``program`` on ``record``: first rule whose guard holds wins,
    otherwise the program default. ABSTAIN when its regex leaves together
    need more than ``budget_steps`` steps."""
    if record.modality != program.modality:
        raise DslEvaluationError(
            f"program {program.id!r} expects {program.modality} records, "
            f"record {record.id!r} is {record.modality}"
        )
    budget = rex.StepBudget(budget_steps)
    try:
        for rule in program.rules:
            if _eval(rule.guard, record, program, budget):
                return rule.target
        return program.default
    except rex.RexBudgetExceeded:
        logger.warning(
            "program %s timed out on record %s (budget %d regex steps); voting ABSTAIN",
            program.id,
            record.id,
            budget_steps,
        )
        return ABSTAIN


def _eval(expr: Expr, record: Record, program: RuleProgram, budget: rex.StepBudget) -> bool:
    if isinstance(expr, And):
        return all(_eval(c, record, program, budget) for c in expr.children)
    if isinstance(expr, Or):
        return any(_eval(c, record, program, budget) for c in expr.children)
    if isinstance(expr, Not):
        return not _eval(expr.child, record, program, budget)
    if isinstance(expr, Contains):
        return _contains(record.text, expr.needle, expr.case_sensitive)
    if isinstance(expr, ContainsAny):
        return any(_contains(record.text, n, expr.case_sensitive) for n in expr.needles)
    if isinstance(expr, Matches):
        return rex.compile(expr.pattern).search(record.text, budget)
    if isinstance(expr, LengthAtLeast):
        return len(record.text) >= expr.n
    if isinstance(expr, UppercaseRatioAtLeast):
        return _uppercase_ratio(record.text) >= expr.ratio
    if isinstance(expr, ScoreCmp):
        try:
            value = record.scores[expr.concept]
        except KeyError:
            raise DslEvaluationError(
                f"program {program.id!r}: record {record.id!r} has no score "
                f"for concept {expr.concept!r}"
            ) from None
        if expr.op == ">=":
            return value >= expr.threshold
        if expr.op == ">":
            return value > expr.threshold
        if expr.op == "<=":
            return value <= expr.threshold
        return value < expr.threshold
    raise TypeError(f"not a DSL expression: {expr!r}")


def _contains(text: str, needle: str, case_sensitive: bool) -> bool:
    if case_sensitive:
        return needle in text
    return needle.casefold() in text.casefold()


def _uppercase_ratio(text: str) -> float:
    """Uppercase letters over all letters; 0.0 when there are no letters."""
    letters = upper = 0
    for ch in text:
        if ch.isalpha():
            letters += 1
            if ch.isupper():
                upper += 1
    return upper / letters if letters else 0.0
