"""AST for the labeling-rule DSL, and first-match evaluation of programs.

A program is an ordered list of guarded rules plus an optional default.
Guards are boolean expressions over a small set of predicates; rule order
matters because evaluation takes the first rule whose guard holds.

Each node class is the one definition of its node: ``PREDICATES`` maps a
predicate's DSL name to its class, whose ``call`` reads the arguments the
parser collected, and every node prints its canonical source
(``source``) and gives its truth on a record (``holds``). Nodes are
frozen dataclasses, so structural equality is plain ==.

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

import functools
import json
import logging
import operator
from dataclasses import dataclass, field
from typing import Union

from ..data import ABSTAIN, LabelsmithError, Record
from . import rex

logger = logging.getLogger("labelsmith.dsl")

DEFAULT_BUDGET_STEPS = 1_000_000


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


def _quote(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _one(name: str, args: list, kind):
    """The one positional argument of ``name(...)``, which must be a ``kind``."""
    if len(args) != 1 or not isinstance(args[0], kind):
        shown = getattr(kind, "__name__", "number")
        raise DslValidationError(f"{name}() takes exactly 1 {shown} argument(s)")
    return args[0]


def _keywords(name: str, kwargs: dict, allowed: tuple[str, ...] = ()) -> dict:
    """The keyword arguments of ``name(...)``, each one of ``allowed``."""
    extra = sorted(set(kwargs).difference(allowed))
    if extra:
        raise DslValidationError(
            f"unknown keyword argument {extra[0]!r}" if allowed else f"{name}() takes no keyword arguments"
        )
    return kwargs


class Predicate:
    """What the leaf nodes share. ``max_live`` is the most regex steps one
    text position can cost the leaf (only ``matches`` takes any); ``prec``
    binds tighter than every operator, so a leaf is never parenthesized.
    A call takes one positional argument, of type ``arg``, and no keyword
    arguments, unless the node's ``call`` says otherwise."""

    modality = TEXT
    max_live = 0
    prec = 4
    arg = str

    @classmethod
    def call(cls, name: str, args: list, kwargs: dict, *comparison):
        """The node ``name(*args, **kwargs)`` parsed to; score()'s
        ``comparison`` follows its call, so the parser passes it on."""
        return cls(_one(name, args, cls.arg), *comparison, **_keywords(name, kwargs))


@dataclass(frozen=True)
class ContainsAny(Predicate):
    """``contains_any([a, b, ...])``, or ``contains_any(a, b, ...)``: the
    text contains one of the needles, casefolded unless ``case_sensitive``.
    ``contains(s)`` is the node of one needle, and prints as such."""

    needles: tuple[str, ...]
    case_sensitive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "needles", tuple(self.needles))
        if not self.needles or not all(self.needles):
            one = len(self.needles) == 1  # named as it prints
            raise DslValidationError("contains() needs a non-empty string" if one else "contains_any() needs non-empty strings")

    @classmethod
    def call(cls, name: str, args: list, kwargs: dict) -> ContainsAny:
        if name == "contains":
            _one(name, args, str)
        elif len(args) == 1 and isinstance(args[0], list):  # contains_any([a, b, ...])
            args = args[0]
        if not args or any(not isinstance(a, str) for a in args):
            raise DslValidationError(f"{name}() takes one or more strings")
        return cls(tuple(args), **_keywords(name, kwargs, ("case_sensitive",)))

    @functools.cached_property
    def folded(self) -> tuple[str, ...]:
        """The needles casefolded, as a case-insensitive search reads them."""
        return tuple(n.casefold() for n in self.needles)

    def source(self) -> str:
        flag = ", case_sensitive=true" if self.case_sensitive else ""
        if len(self.needles) == 1:
            return f"contains({_quote(self.needles[0])}{flag})"
        return f"contains_any([{', '.join(map(_quote, self.needles))}]{flag})"

    def holds(self, scan: _Scan) -> bool:
        needles, text = (self.needles, scan.text) if self.case_sensitive else (self.folded, scan.folded())
        return any(map(text.__contains__, needles))


@dataclass(frozen=True)
class Matches(Predicate):
    """``matches(p)``: the regex ``pattern``, compiled once, when the leaf is
    built, into the ``rex.Rex`` every evaluation of the leaf searches with,
    matches anywhere in the text."""

    pattern: str
    compiled: rex.Rex = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "compiled", rex.Rex(self.pattern))
        except rex.RexError as exc:
            raise DslValidationError(f"bad pattern in matches(): {exc}") from None

    @property
    def max_live(self) -> int:
        return self.compiled.max_live

    def source(self) -> str:
        return f"matches({_quote(self.pattern)})"

    def holds(self, scan: _Scan) -> bool:
        return self.compiled.search(scan.text, scan.budget)


@dataclass(frozen=True)
class LengthAtLeast(Predicate):
    """``length_at_least(n)``: the text has at least ``n`` characters."""

    n: int

    arg = int

    def __post_init__(self):
        if self.n < 0:
            raise DslValidationError("length_at_least() needs n >= 0")

    def source(self) -> str:
        return f"length_at_least({self.n})"

    def holds(self, scan: _Scan) -> bool:
        return len(scan.text) >= self.n


@dataclass(frozen=True)
class UppercaseRatioAtLeast(Predicate):
    """``uppercase_ratio_at_least(x)``: uppercase letters over letters is at
    least ``ratio``; a text with no letters has ratio 0."""

    ratio: float

    arg = (int, float)

    def __post_init__(self):
        object.__setattr__(self, "ratio", float(self.ratio))
        if not (0.0 <= self.ratio <= 1.0):
            raise DslValidationError("uppercase_ratio_at_least() needs a ratio in [0, 1]")

    def source(self) -> str:
        return f"uppercase_ratio_at_least({self.ratio!r})"

    def holds(self, scan: _Scan) -> bool:
        return _uppercase_ratio(scan.text) >= self.ratio


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class ScoreCmp(Predicate):
    """``score(c) >= t`` (or ``>``, ``<=``, ``<``): the record's score for
    ``concept`` compares true against ``threshold``. The comparison follows
    the call."""

    concept: str
    op: str
    threshold: float

    modality = SCORES

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise DslValidationError(f"score comparison operator must be one of {tuple(_COMPARE)}")
        if not self.concept:
            raise DslValidationError("score() needs a concept name")

    def source(self) -> str:
        return f"score({_quote(self.concept)}) {self.op} {self.threshold!r}"

    def holds(self, scan: _Scan) -> bool:
        try:
            value = scan.record.scores[self.concept]
        except KeyError:
            raise DslEvaluationError(
                f"program {scan.program.id!r}: record {scan.record.id!r} has no score "
                f"for concept {self.concept!r}"
            ) from None
        return _COMPARE[self.op](value, self.threshold)


# each predicate's DSL name, in the order error messages and docs list them
PREDICATES = {
    "contains": ContainsAny,
    "contains_any": ContainsAny,
    "matches": Matches,
    "length_at_least": LengthAtLeast,
    "uppercase_ratio_at_least": UppercaseRatioAtLeast,
    "score": ScoreCmp,
}


def _operand(expr: Expr, prec: int) -> str:
    """``expr``'s source as an operand of an operator of precedence ``prec``."""
    text = expr.source()
    return f"({text})" if expr.prec < prec else text


class _Chain:
    """What ``and`` and ``or`` share: two or more operands, joined by ``word``."""

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DslValidationError(f"{self.word} needs at least 2 operands")

    def source(self) -> str:
        return f" {self.word} ".join(_operand(c, self.prec) for c in self.children)


@dataclass(frozen=True)
class And(_Chain):
    children: tuple["Expr", ...]

    word, prec = "and", 2

    def holds(self, scan: _Scan) -> bool:
        return all(c.holds(scan) for c in self.children)


@dataclass(frozen=True)
class Or(_Chain):
    children: tuple["Expr", ...]

    word, prec = "or", 1

    def holds(self, scan: _Scan) -> bool:
        return any(c.holds(scan) for c in self.children)


@dataclass(frozen=True)
class Not:
    child: "Expr"

    prec = 3

    def source(self) -> str:
        return "not " + _operand(self.child, self.prec)

    def holds(self, scan: _Scan) -> bool:
        return not self.child.holds(scan)


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
        return sum(leaf.max_live for rule in self.rules for leaf in iter_leaves(rule.guard))


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
            if rule.guard.holds(scan):
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

    __slots__ = ("record", "text", "program", "budget", "_folded")

    def __init__(self, record: Record, program: RuleProgram, budget: rex.StepBudget | None):
        self.record = record
        self.text = record.text
        self.program = program
        self.budget = budget
        self._folded = None

    def folded(self) -> str:
        if self._folded is None:
            self._folded = self.text.casefold()
        return self._folded


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
