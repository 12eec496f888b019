"""Scanner, parser, and canonical printer for rule programs.

Source form, one statement per line by convention:

    rule: contains("prize") and not contains("work") -> spam;
    rule: score("water") >= 0.6 -> waterbird;
    default -> ABSTAIN;

Statements end with ";" (the last one may omit it). "#" starts a comment.
Class targets are class names (bare or quoted), 0-based indices, or
ABSTAIN. Programs coming out of a model are parsed, never executed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re as _stdre
from dataclasses import dataclass
from typing import Callable

from ..data import ABSTAIN, ClassSpace, lone_surrogate
from .ast import PREDICATES, And, DslParseError, DslValidationError, Expr, Not, Or, Rule, RuleProgram, ScoreCmp

logger = logging.getLogger("labelsmith.dsl")

KEYWORDS = frozenset({"rule", "default", "and", "or", "not", "true", "false"})
RULE_COUNT_SOFT_CAP = 64
# most 'not's and parentheses a guard may nest; every pass over a guard
# recurses once per level
MAX_NESTING = 64

_BARE_IDENT = _stdre.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    "=": "EQ",
}

# One alternative per token kind, tried in order at each position. No two
# match the same prefix: each starts with characters no other takes, but
# ARROW and NUMBER, which part at the character after '-', and BAD, which
# takes one character that every other refused and ends the scan. Only
# STRING can read far and then fail (an unterminated literal), and BAD
# follows it. So each character is read a bounded number of times, and a
# scan takes time linear in the source.
_TOKEN = _stdre.compile(
    r"""(?P<NEWLINE>\n)
      | (?P<SKIP>[ \t\r]+|\#[^\n]*)
      | (?P<ARROW>->)
      | (?P<NUMBER>-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))
      | (?P<CMP>[<>]=?)
      | (?P<PUNCT>[()\[\],;:=])
      | (?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*"|'[^'\\\n]*(?:\\.[^'\\\n]*)*')
      | (?P<IDENT>[^\W\d]\w*)
      | (?P<BAD>.)""",
    _stdre.VERBOSE,
)
_BAD = {'"': "unterminated string", "'": "unterminated string", "-": "expected '->' or a number after '-'"}
# a literal is a JSON string but for the DSL's extra escape \' and, in
# '...', a bare "
_NOT_JSON = _stdre.compile(r'\\.|"')
_AS_JSON = {"\\'": "'", '"': '\\"'}
_JSON_STRING = json.JSONDecoder(strict=False)


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT STRING NUMBER ARROW CMP LPAREN RPAREN LBRACK RBRACK COMMA SEMI COLON EQ EOF
    value: object
    line: int
    col: int


def _scan(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):  # every character starts a match, so they tile the source
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "STRING":
            tokens.append(_Token(kind, _literal(text[1:-1], line, col), line, col))
        elif kind == "NUMBER":
            try:
                value = float(text) if "." in text else int(text)
            except ValueError:  # longer than int's string conversion allows
                raise DslParseError("integer has too many digits", line, col) from None
            tokens.append(_Token(kind, value, line, col))
        elif kind == "BAD" or kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            # \w's first character may be a digit that is not a decimal one, like ²
            raise DslParseError(_BAD.get(text[0], f"unexpected character {text[0]!r}"), line, col)
        elif kind != "SKIP":
            tokens.append(_Token(_PUNCT.get(text, kind), text, line, col))
    tokens.append(_Token("EOF", None, line, len(source) - line_start + 1))
    return tokens


def _literal(body: str, line: int, col: int) -> str:
    """The value of the literal whose text between the quotes is ``body``:
    the JSON string the printer writes, with ``\\'`` also read as ``'``."""
    if "\\'" in body or '"' in body:
        body = _NOT_JSON.sub(lambda m: _AS_JSON.get(m[0], m[0]), body)
    try:
        value = _JSON_STRING.decode(f'"{body}"')
    except json.JSONDecodeError as exc:
        raise DslParseError(f"bad string: {exc.msg}", line, col) from None
    surrogate = lone_surrogate(body, value)
    if surrogate is not None:
        raise DslParseError(f"the string holds the lone surrogate {surrogate}, which UTF-8 cannot encode", line, col)
    return value


class _ProgramParser:
    def __init__(self, tokens: list[_Token], class_space: ClassSpace):
        self.tokens = tokens
        self.pos = 0
        self.cs = class_space
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.cur
        raise DslParseError(message, tok.line, tok.col)

    def take(self, kind: str, what: str) -> _Token:
        tok = self.cur
        if tok.kind != kind:
            shown = "end of input" if tok.kind == "EOF" else repr(tok.value)
            self.error(f"expected {what}, got {shown}")
        self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "IDENT" and self.cur.value == word

    def parse(self) -> tuple[tuple[Rule, ...], int]:
        rules: list[Rule] = []
        default = ABSTAIN
        saw_default = False
        while self.cur.kind != "EOF":
            if saw_default:
                self.error("default must be the last statement")
            if self.at_keyword("rule"):
                self.pos += 1
                self.take("COLON", "':' after 'rule'")
                guard = self.chain("or", Or, lambda: self.chain("and", And, self.unary))
                self.take("ARROW", "'->' after the rule condition")
                rules.append(Rule(guard=guard, target=self.target()))
            elif self.at_keyword("default"):
                self.pos += 1
                self.take("ARROW", "'->' after 'default'")
                default = self.target()
                saw_default = True
            else:
                self.error("expected 'rule' or 'default'")
            if self.cur.kind == "SEMI":
                self.pos += 1
            elif self.cur.kind != "EOF":
                self.error("expected ';' between statements")
        if not rules:
            self.error("program needs at least one rule", self.tokens[-1])
        return tuple(rules), default

    def target(self) -> int:
        tok = self.cur
        if tok.kind == "NUMBER":
            self.pos += 1
            if not isinstance(tok.value, int):
                self.error("class index must be an integer", tok)
            if tok.value == ABSTAIN:
                return ABSTAIN
            if not (0 <= tok.value < self.cs.K):
                self.error(f"class index {tok.value} out of range 0..{self.cs.K - 1}", tok)
            return tok.value
        if tok.kind in ("IDENT", "STRING"):
            self.pos += 1
            name = tok.value
            if tok.kind == "IDENT" and name.casefold() == "abstain":
                return ABSTAIN
            idx = self.cs.resolve(name)
            if idx is None:
                self.error(
                    f"unknown class {name!r}; expected one of {list(self.cs.names)} or ABSTAIN",
                    tok,
                )
            return idx
        self.error("expected a class name, class index, or ABSTAIN", tok)

    def chain(self, keyword: str, node: type[Or] | type[And], operand: Callable[[], Expr]) -> Expr:
        """Operands joined by ``keyword``; one operand stands alone."""
        children = [operand()]
        while self.at_keyword(keyword):
            self.pos += 1
            children.append(operand())
        if len(children) == 1:
            return children[0]
        flat: list[Expr] = []
        for c in children:  # associative, so a nested node of the same kind folds into one
            flat.extend(c.children if isinstance(c, node) else [c])
        return node(tuple(flat))

    def unary(self) -> Expr:
        is_not = self.at_keyword("not")
        if not (is_not or self.cur.kind == "LPAREN"):
            return self.predicate()
        if self.depth == MAX_NESTING:
            self.error(f"more than {MAX_NESTING} nested 'not's and parentheses")
        self.depth += 1
        self.pos += 1
        if is_not:
            inner = Not(self.unary())
        else:
            inner = self.chain("or", Or, lambda: self.chain("and", And, self.unary))
            self.take("RPAREN", "')'")
        self.depth -= 1
        return inner

    def predicate(self) -> Expr:
        tok = self.take("IDENT", "a predicate")
        args, kwargs = self.arglist()
        node = PREDICATES.get(tok.value)
        if node is None:
            self.error(f"unknown predicate {tok.value!r}; expected one of: {', '.join(PREDICATES)}", tok)
        comparison = ()
        if node is ScoreCmp:  # its comparison follows the call
            op = self.take("CMP", "a comparison (>=, >, <=, <) after score()").value
            comparison = (op, float(self.take("NUMBER", "a numeric threshold").value))
        try:
            return node.call(tok.value, args, kwargs, *comparison)
        except DslValidationError as exc:
            self.error(str(exc), tok)

    def arglist(self) -> tuple[list, dict]:
        self.take("LPAREN", "'('")
        args: list = []
        kwargs: dict = {}
        while self.cur.kind != "RPAREN":
            if self.cur.kind == "IDENT" and self.tokens[self.pos + 1].kind == "EQ":
                key = self.take("IDENT", "a keyword").value
                self.take("EQ", "'='")
                if self.cur.kind == "IDENT" and self.cur.value in ("true", "false"):
                    kwargs[key] = self.cur.value == "true"
                    self.pos += 1
                else:
                    self.error("expected true or false")
            elif self.cur.kind == "LBRACK":
                # a ["a", "b"] list is one argument, a list of its strings
                self.pos += 1
                items: list = []
                while self.cur.kind != "RBRACK":
                    items.append(self.take("STRING", "a string inside [...]").value)
                    if self.cur.kind == "COMMA":
                        self.pos += 1
                    elif self.cur.kind != "RBRACK":
                        self.error("expected ',' or ']'")
                self.take("RBRACK", "']'")
                args.append(items)
            elif self.cur.kind == "STRING":
                args.append(self.take("STRING", "a string").value)
            elif self.cur.kind == "NUMBER":
                args.append(self.take("NUMBER", "a number").value)
            else:
                self.error("expected a string, number, list, or keyword argument")
            if self.cur.kind == "COMMA":
                self.pos += 1
            elif self.cur.kind != "RPAREN":
                self.error("expected ',' or ')'")
        self.take("RPAREN", "')'")
        return args, kwargs


def parse_program(
    source: str,
    class_space: ClassSpace,
    program_id: str | None = None,
) -> RuleProgram:
    """Parse DSL source into a RuleProgram.

    When ``program_id`` is omitted, the id is derived from a hash of the
    canonical form, so reformatting does not change identity.
    """
    rules, default = _ProgramParser(_scan(source), class_space).parse()
    program = RuleProgram(id=program_id or "unnamed", rules=rules, default=default)
    if program_id is None:
        canonical = format_program(program, class_space)
        digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=6).hexdigest()
        program = RuleProgram(id=f"lf_{digest}", rules=rules, default=default)
    if len(rules) > RULE_COUNT_SOFT_CAP:
        logger.warning(
            "program %s has %d rules (soft cap %d); consider splitting it",
            program.id,
            len(rules),
            RULE_COUNT_SOFT_CAP,
        )
    return program


def format_expr(expr: Expr) -> str:
    return expr.source()


def _fmt_target(target: int, class_space: ClassSpace) -> str:
    if target == ABSTAIN:
        return "ABSTAIN"
    name = class_space.names[target]
    if _BARE_IDENT.match(name) and name not in KEYWORDS and name.casefold() != "abstain":
        return name
    return json.dumps(name, ensure_ascii=False)


def format_program(program: RuleProgram, class_space: ClassSpace) -> str:
    """Canonical source: one statement per line, minimal parentheses,
    default omitted when it is ABSTAIN. Parsing the output reproduces the
    program structurally."""
    lines = [
        f"rule: {format_expr(rule.guard)} -> {_fmt_target(rule.target, class_space)};"
        for rule in program.rules
    ]
    if program.default != ABSTAIN:
        lines.append(f"default -> {_fmt_target(program.default, class_space)};")
    return "\n".join(lines) + "\n"
