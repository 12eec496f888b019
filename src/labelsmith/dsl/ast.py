"""AST for the labeling-rule DSL.

A program is an ordered list of guarded rules plus an optional default.
Guards are boolean expressions over a small set of predicates; rule order
matters because evaluation takes the first rule whose guard holds.

Nodes are frozen dataclasses, so structural equality is plain ==.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

from ..data import ABSTAIN, LabelsmithError
from . import rex


class DslError(LabelsmithError):
    """Base class for DSL parse/validation/evaluation errors."""


class DslParseError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DslValidationError(DslError):
    """The program parsed but cannot be used as written."""


class DslEvaluationError(DslError):
    """A guard could not be evaluated against a record."""


TEXT = "text"
SCORES = "scores"


@dataclass(frozen=True)
class Contains:
    needle: str
    case_sensitive: bool = False

    modality = TEXT

    def __post_init__(self):
        if not self.needle:
            raise DslValidationError("contains() needs a non-empty string")

    @functools.cached_property
    def folded(self) -> str:
        """The needle casefolded, as a case-insensitive search reads it."""
        return self.needle.casefold()


@dataclass(frozen=True)
class ContainsAny:
    needles: tuple[str, ...]
    case_sensitive: bool = False

    modality = TEXT

    def __post_init__(self):
        object.__setattr__(self, "needles", tuple(self.needles))
        if not self.needles or any(not n for n in self.needles):
            raise DslValidationError("contains_any() needs non-empty strings")

    @functools.cached_property
    def folded(self) -> tuple[str, ...]:
        """The needles casefolded, as a case-insensitive search reads them."""
        return tuple(n.casefold() for n in self.needles)


@dataclass(frozen=True)
class Matches:
    """``pattern``, compiled once, when the leaf is built, into the
    ``rex.Rex`` every evaluation of the leaf searches with."""

    pattern: str
    compiled: rex.Rex = field(init=False, compare=False, repr=False)

    modality = TEXT

    def __post_init__(self):
        try:
            object.__setattr__(self, "compiled", rex.Rex(self.pattern))
        except rex.RexError as exc:
            raise DslValidationError(f"bad pattern in matches(): {exc}") from None


@dataclass(frozen=True)
class LengthAtLeast:
    n: int

    modality = TEXT

    def __post_init__(self):
        if self.n < 0:
            raise DslValidationError("length_at_least() needs n >= 0")


@dataclass(frozen=True)
class UppercaseRatioAtLeast:
    ratio: float

    modality = TEXT

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0):
            raise DslValidationError("uppercase_ratio_at_least() needs a ratio in [0, 1]")


_SCORE_OPS = (">=", ">", "<=", "<")


@dataclass(frozen=True)
class ScoreCmp:
    concept: str
    op: str
    threshold: float

    modality = SCORES

    def __post_init__(self):
        if self.op not in _SCORE_OPS:
            raise DslValidationError(f"score comparison operator must be one of {_SCORE_OPS}")
        if not self.concept:
            raise DslValidationError("score() needs a concept name")


@dataclass(frozen=True)
class And:
    children: tuple["Expr", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DslValidationError("and needs at least 2 operands")


@dataclass(frozen=True)
class Or:
    children: tuple["Expr", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DslValidationError("or needs at least 2 operands")


@dataclass(frozen=True)
class Not:
    child: "Expr"


Predicate = Union[Contains, ContainsAny, Matches, LengthAtLeast, UppercaseRatioAtLeast, ScoreCmp]
Expr = Union[Predicate, And, Or, Not]


@dataclass(frozen=True)
class Rule:
    guard: Expr
    target: int  # class index, or ABSTAIN


def iter_leaves(expr: Expr):
    """Yield every predicate leaf of an expression, left to right."""
    if isinstance(expr, Not):
        yield from iter_leaves(expr.child)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from iter_leaves(child)
    else:
        yield expr


@dataclass(frozen=True)
class RuleProgram:
    """An ordered rule list with first-match semantics.

    All predicate leaves must agree on modality; the program's modality is
    theirs. ``default`` applies when no guard holds (ABSTAIN by default).
    """

    id: str
    rules: tuple[Rule, ...]
    default: int = ABSTAIN
    modality: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise DslValidationError(f"program {self.id!r} needs at least one rule")
        modalities = set()
        for rule in self.rules:
            for leaf in iter_leaves(rule.guard):
                modalities.add(leaf.modality)
        if len(modalities) != 1:
            raise DslValidationError(
                f"program {self.id!r} mixes text and score predicates"
            )
        object.__setattr__(self, "modality", modalities.pop())

    @functools.cached_property
    def max_live(self) -> int:
        """The most regex steps one text position can cost an evaluation:
        ``rex.Rex.max_live`` summed over every ``matches`` leaf occurrence
        of the rules, since each occurrence searches at most once. An
        evaluation on a text of n characters costs at most (n + 1) times
        this, in whatever order its guards short-circuit."""
        return sum(
            leaf.compiled.max_live
            for rule in self.rules
            for leaf in iter_leaves(rule.guard)
            if isinstance(leaf, Matches)
        )
