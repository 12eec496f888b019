"""First-match evaluation of rule programs against records.

Each evaluation of a program on a record gets a fresh work budget
(``DEFAULT_BUDGET_STEPS``), which its ``matches`` leaves draw on in regex
steps (one per live NFA thread per text position). A program that runs
over it votes ABSTAIN for that record and the event is logged; one huge
record must not stall a labeling run. The count depends only on the
program and the record, never on the clock or the machine's load, so
votes are reproducible. The regex engine is linear-time, so the budget is
a backstop for sheer input size, not for pathological patterns.

A record short enough that the budget cannot run out is evaluated without
counting: its regex leaves together cost at most (len(text) + 1) times
the program's ``max_live`` steps, so where that is within the budget, no
order of short-circuiting can overdraw it, and the searches run
uncounted, skipping what cannot change their answers. The votes are the
counted path's; only longer records pay for the count.
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
    need more than ``budget_steps`` steps; they are counted only where
    they could."""
    if record.modality != program.modality:
        raise DslEvaluationError(
            f"program {program.id!r} expects {program.modality} records, "
            f"record {record.id!r} is {record.modality}"
        )
    budget = None
    if program.max_live and (len(record.text) + 1) * program.max_live > budget_steps:
        budget = rex.StepBudget(budget_steps)
    scan = _Scan(record, program, budget)
    try:
        for rule in program.rules:
            if _eval(rule.guard, scan):
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


class _Scan:
    """One evaluation's view of its record: the text, casefolded at most
    once, and the step budget its regex leaves draw on (None where they
    cannot overdraw it)."""

    __slots__ = ("record", "program", "budget", "_folded")

    def __init__(self, record: Record, program: RuleProgram, budget: rex.StepBudget | None):
        self.record = record
        self.program = program
        self.budget = budget
        self._folded = None

    def folded(self) -> str:
        if self._folded is None:
            self._folded = self.record.text.casefold()
        return self._folded


def _eval(expr: Expr, scan: _Scan) -> bool:
    text = scan.record.text
    if isinstance(expr, ContainsAny):
        needles, text = (expr.needles, text) if expr.case_sensitive else (expr.folded, scan.folded())
        return any(map(text.__contains__, needles))
    if isinstance(expr, Contains):
        return expr.needle in text if expr.case_sensitive else expr.folded in scan.folded()
    if isinstance(expr, And):
        return all(_eval(c, scan) for c in expr.children)
    if isinstance(expr, Or):
        return any(_eval(c, scan) for c in expr.children)
    if isinstance(expr, Not):
        return not _eval(expr.child, scan)
    if isinstance(expr, Matches):
        return expr.compiled.search(text, scan.budget)
    if isinstance(expr, LengthAtLeast):
        return len(text) >= expr.n
    if isinstance(expr, UppercaseRatioAtLeast):
        return _uppercase_ratio(text) >= expr.ratio
    if isinstance(expr, ScoreCmp):
        try:
            value = scan.record.scores[expr.concept]
        except KeyError:
            raise DslEvaluationError(
                f"program {scan.program.id!r}: record {scan.record.id!r} has no score "
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


# the ASCII characters that are not letters, and those not uppercase, as
# str.isalpha and str.isupper read them
_NOT_LETTERS = bytes(c for c in range(128) if not chr(c).isalpha())
_NOT_UPPER = bytes(c for c in range(128) if not chr(c).isupper())


def _uppercase_ratio(text: str) -> float:
    """Uppercase letters over all letters; 0.0 when there are no letters.
    Both counts are made at C speed: on ASCII text by deleting the other
    bytes, on any other text by filtering its letters."""
    if text.isascii():
        raw = text.encode("ascii")
        letters, upper = len(raw.translate(None, _NOT_LETTERS)), len(raw.translate(None, _NOT_UPPER))
    else:
        alpha = "".join(filter(str.isalpha, text))
        letters, upper = len(alpha), sum(map(str.isupper, alpha))
    return upper / letters if letters else 0.0
