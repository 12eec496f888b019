import contextlib
import itertools
import logging
import math
import re as stdlib_re
import string
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    NESTED_GUARD_FORMS,
    nested_guard,
    reference_evaluate,
    reference_pike_vm,
    reference_scan,
    reference_uppercase_ratio,
)
from labelsmith.data import ABSTAIN, ClassSpace, Record
from labelsmith.dsl import (
    And,
    ContainsAny,
    DslError,
    DslEvaluationError,
    DslParseError,
    DslValidationError,
    ExtractionError,
    LengthAtLeast,
    Matches,
    Not,
    Or,
    Rule,
    RuleProgram,
    ScoreCmp,
    UppercaseRatioAtLeast,
    evaluate,
    extract_program,
    format_expr,
    format_program,
    iter_leaves,
    parse_program,
)
from labelsmith.dsl import parser as dsl_parser
from labelsmith.dsl import rex
from labelsmith.dsl.ast import PREDICATES, _uppercase_ratio
from labelsmith.records import Dataset, assemble_votes


class TestParserHappyPath:
    def test_every_predicate(self, spam_cs):
        src = """
        # keyword checks
        rule: contains("free") -> spam;
        rule: contains_any(["win", "cash"]) -> spam;
        rule: contains_any("a", "b") -> spam;
        rule: matches("https?://") -> spam;
        rule: length_at_least(40) -> ham;
        rule: uppercase_ratio_at_least(0.5) -> spam;
        default -> ABSTAIN;
        """
        program = parse_program(src, spam_cs)
        assert len(program.rules) == 6
        assert program.default == ABSTAIN
        assert program.modality == "text"

    def test_score_program(self, spam_cs):
        program = parse_program(
            'rule: score("wing shape") >= 0.7 -> spam; default -> ham;', spam_cs
        )
        assert program.modality == "scores"
        assert [leaf.concept for leaf in iter_leaves(program.rules[0].guard)] == ["wing shape"]

    def test_targets_name_index_string_abstain(self, k3_cs):
        program = parse_program(
            'rule: contains("a") -> green;\n'
            'rule: contains("b") -> 2;\n'
            'rule: contains("c") -> "red";\n'
            'rule: contains("d") -> abstain;\n',
            k3_cs,
        )
        assert [r.target for r in program.rules] == [1, 2, 0, ABSTAIN]

    def test_lenient_class_resolution(self):
        cs = ClassSpace(("colon cancer", "lung cancer"))
        program = parse_program('rule: contains("x") -> Colon_Cancer;', cs)
        assert program.rules[0].target == 0

    def test_hyphen_is_not_read_as_a_space(self):
        cs = ClassSpace(("colon cancer", "lung cancer"))
        with pytest.raises(DslParseError, match="unknown class 'colon-cancer'"):
            parse_program('rule: contains("x") -> "colon-cancer";', cs)

    def test_boolean_precedence(self, spam_cs):
        program = parse_program(
            'rule: contains("a") or contains("b") and not contains("c") -> spam;', spam_cs
        )
        guard = program.rules[0].guard
        assert isinstance(guard, Or)
        assert isinstance(guard.children[1], And)
        assert isinstance(guard.children[1].children[1], Not)

    def test_parens_override_precedence(self, spam_cs):
        program = parse_program(
            'rule: (contains("a") or contains("b")) and contains("c") -> spam;', spam_cs
        )
        assert isinstance(program.rules[0].guard, And)

    def test_case_sensitive_kwarg(self, spam_cs):
        program = parse_program(
            'rule: contains("Free", case_sensitive=true) -> spam;', spam_cs
        )
        assert program.rules[0].guard.case_sensitive

    def test_string_escapes(self, spam_cs):
        program = parse_program(r'rule: contains("a\"b\nA") -> spam;', spam_cs)
        assert program.rules[0].guard.needles == ('a"b\nA',)

    def test_single_quoted_strings(self, spam_cs):
        program = parse_program("rule: contains('free') -> spam;", spam_cs)
        assert program.rules[0].guard.needles == ("free",)

    def test_negative_number_target(self, spam_cs):
        program = parse_program('rule: contains("x") -> -1;', spam_cs)
        assert program.rules[0].target == ABSTAIN

    def test_hash_id_stable_under_reformat(self, spam_cs):
        a = parse_program('rule: contains("x")->spam;', spam_cs)
        b = parse_program('rule:   contains( "x" )  ->  spam ;', spam_cs)
        assert a.id == b.id and a.id.startswith("lf_")

    def test_trailing_semicolon_optional(self, spam_cs):
        program = parse_program('rule: contains("x") -> spam', spam_cs)
        assert len(program.rules) == 1


class TestParserErrors:
    @pytest.mark.parametrize(
        "src,fragment",
        [
            ("rule contains(\"x\") -> spam;", ":"),
            ("rule: frobnicate(\"x\") -> spam;", "frobnicate"),
            ("rule: contains() -> spam;", "contains"),
            ("rule: length_at_least(\"x\") -> spam;", "length_at_least"),
            ("rule: contains(\"x\") -> eggs;", "spam"),
            ("rule: contains(\"x\") -> 7;", "7"),
            ("default -> spam; rule: contains(\"x\") -> ham;", "default"),
            ("rule: contains(\"x\") -> spam; junk", "expected"),
            ('rule: contains("unterminated -> spam;', "string"),
            ("", "at least one rule"),
            ('rule: score("c") -> spam;', "score"),
            ('rule: contains("x") and -> spam;', "expected"),
        ],
    )
    def test_rejects_with_message(self, spam_cs, src, fragment):
        with pytest.raises(DslParseError) as err:
            parse_program(src, spam_cs)
        assert fragment.lower() in str(err.value).lower()

    @pytest.mark.parametrize(
        "call,message",
        [
            ('contains("a", "b")', "contains() takes exactly 1 str argument(s)"),
            ("contains(3)", "contains() takes exactly 1 str argument(s)"),
            ('contains("a", foo=true)', "unknown keyword argument 'foo'"),
            ("contains_any([])", "contains_any() takes one or more strings"),
            ('contains_any(["a"], 3)', "contains_any() takes one or more strings"),
            ('contains_any(["a"], foo=true)', "unknown keyword argument 'foo'"),
            ('matches("a", "b")', "matches() takes exactly 1 str argument(s)"),
            ("matches(1)", "matches() takes exactly 1 str argument(s)"),
            ('matches("a", foo=true)', "matches() takes no keyword arguments"),
            ('matches("a", case_sensitive=true)', "matches() takes no keyword arguments"),
            ("length_at_least()", "length_at_least() takes exactly 1 int argument(s)"),
            ("length_at_least(2.5)", "length_at_least() takes exactly 1 int argument(s)"),
            ("length_at_least(3, foo=false)", "length_at_least() takes no keyword arguments"),
            ("length_at_least(3, case_sensitive=true)", "length_at_least() takes no keyword arguments"),
            ("uppercase_ratio_at_least(0.1, 0.2)", "uppercase_ratio_at_least() takes exactly 1 number argument(s)"),
            ('uppercase_ratio_at_least("x")', "uppercase_ratio_at_least() takes exactly 1 number argument(s)"),
            ("uppercase_ratio_at_least(0.5, foo=true)", "uppercase_ratio_at_least() takes no keyword arguments"),
            (
                "uppercase_ratio_at_least(0.5, case_sensitive=true)",
                "uppercase_ratio_at_least() takes no keyword arguments",
            ),
            ('score("a", "b") >= 0.5', "score() takes exactly 1 str argument(s)"),
            ("score(1) >= 0.5", "score() takes exactly 1 str argument(s)"),
            ('score("a", foo=true) >= 0.5', "score() takes no keyword arguments"),
            ('score("a", case_sensitive=true) >= 0.5', "score() takes no keyword arguments"),
            # a [...] list is one argument, which contains_any alone takes, and alone
            ('matches(["a"])', "matches() takes exactly 1 str argument(s)"),
            ('contains(["a"])', "contains() takes exactly 1 str argument(s)"),
            ('contains_any("a", ["b"])', "contains_any() takes one or more strings"),
            ('contains_any(["a"], ["b"])', "contains_any() takes one or more strings"),
            ('score(["c"]) >= 0.5', "score() takes exactly 1 str argument(s)"),
            (
                'frob("x")',
                "unknown predicate 'frob'; expected one of: contains, contains_any, matches, "
                "length_at_least, uppercase_ratio_at_least, score",
            ),
        ],
    )
    def test_argument_errors(self, spam_cs, call, message):
        with pytest.raises(DslParseError) as err:
            parse_program(f"rule: length_at_least(1) and\n  {call} -> spam;", spam_cs)
        assert str(err.value) == f"line 2, col 3: {message}"

    def test_error_carries_position(self, spam_cs):
        with pytest.raises(DslParseError) as err:
            parse_program('rule: contains("x") -> spam;\nrule: bogus("y") -> ham;', spam_cs)
        assert err.value.line == 2

    def test_unknown_class_lists_names(self, spam_cs):
        with pytest.raises(DslParseError, match="spam.*ham|ham.*spam"):
            parse_program('rule: contains("x") -> banana;', spam_cs)


class TestDocs:
    def test_predicates_table_and_grammar_name_the_node_table(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "dsl.md").read_text(encoding="utf-8")
        table = stdlib_re.findall(r"^\| `(\w+)\(", doc, stdlib_re.M)
        grammar = stdlib_re.findall(r'^(?:predicate +=| +\|) "(\w+)" "\("', doc, stdlib_re.M)
        assert table == grammar == list(PREDICATES)


def _nesting_limit(form):
    return rex.MAX_GROUP_DEPTH if form == "regex-groups" else dsl_parser.MAX_NESTING


class TestNestingLimit:
    @pytest.mark.parametrize("form", NESTED_GUARD_FORMS)
    def test_limit_parses_prints_and_evaluates(self, spam_cs, form):
        program = parse_program(f"rule: {nested_guard(form, _nesting_limit(form))} -> spam;", spam_cs)
        printed = format_program(program, spam_cs)
        assert parse_program(printed, spam_cs).rules == program.rules
        assert evaluate(program, Record(id="r", text="a")) == 0

    @pytest.mark.parametrize("extra", [1, 1000])
    @pytest.mark.parametrize("form", NESTED_GUARD_FORMS)
    def test_deeper_is_a_parse_error_with_a_position(self, spam_cs, form, extra):
        limit = _nesting_limit(form)
        source = f"rule: {nested_guard(form, limit + extra)} -> spam;"
        with pytest.raises(DslParseError, match="nested") as err:
            parse_program(source, spam_cs)
        # the first level past the limit; a pattern's error points at matches()
        offset = {"nots": len("not ") * limit, "parentheses": limit, "regex-groups": 0}[form]
        assert (err.value.line, err.value.col) == (1, len("rule: ") + 1 + offset)


class TestAstInvariants:
    def test_and_or_need_two_children(self):
        with pytest.raises(DslValidationError):
            And(children=(ContainsAny(needles=("a",)),))

    def test_program_needs_rules(self):
        with pytest.raises(DslValidationError):
            RuleProgram(id="p", rules=())

    def test_mixed_modality_rejected(self):
        with pytest.raises(DslValidationError):
            RuleProgram(
                id="p",
                rules=(
                    Rule(guard=ContainsAny(needles=("a",)), target=0),
                    Rule(guard=ScoreCmp(concept="c", op=">=", threshold=0.5), target=1),
                ),
            )

    def test_iter_leaves_in_order(self):
        guard = And(
            children=(
                Or(children=(ContainsAny(needles=("a",)), LengthAtLeast(n=3))),
                Not(child=Matches(pattern="x")),
            )
        )
        kinds = [type(leaf).__name__ for leaf in iter_leaves(guard)]
        assert kinds == ["ContainsAny", "LengthAtLeast", "Matches"]


class TestPrinterRoundTrip:
    CASES = [
        'rule: contains("free") -> spam;',
        'rule: contains_any(["a", "b", "c"]) -> spam;',
        'rule: contains("a") and contains("b") or not contains("c") -> ham;',
        'rule: (contains("a") or contains("b")) and contains("c") -> spam;',
        'rule: matches("[0-9]+") and length_at_least(10) -> spam; default -> ham;',
        'rule: score("foot type") >= 0.6 -> spam; rule: score("beak") < 0.25 -> ham;',
        'rule: uppercase_ratio_at_least(0.75) -> spam; default -> ABSTAIN;',
        'rule: contains("It\'s") -> spam;',
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, spam_cs, src):
        program = parse_program(src, spam_cs)
        printed = format_program(program, spam_cs)
        again = parse_program(printed, spam_cs)
        assert (again.rules, again.default) == (program.rules, program.default)
        assert format_program(again, spam_cs) == printed

    def test_contains_any_prints_bracket_form(self, spam_cs):
        program = parse_program('rule: contains_any("a", "b") -> spam;', spam_cs)
        assert 'contains_any(["a", "b"])' in format_program(program, spam_cs)

    @pytest.mark.parametrize("flag", ["", ", case_sensitive=true"])
    def test_contains_is_a_one_needle_contains_any(self, spam_cs, flag):
        one = parse_program(f'rule: contains("x"{flag}) -> spam;', spam_cs).rules[0].guard
        listed = parse_program(f'rule: contains_any(["x"]{flag}) -> spam;', spam_cs).rules[0].guard
        assert one == listed == ContainsAny(("x",), case_sensitive=bool(flag))
        assert format_expr(one) == format_expr(listed) == f'contains("x"{flag})'

    def test_minimal_parens(self, spam_cs):
        src = 'rule: contains("a") and (contains("b") or contains("c")) -> spam;'
        printed = format_program(parse_program(src, spam_cs), spam_cs)
        assert printed == 'rule: contains("a") and (contains("b") or contains("c")) -> spam;\n'

    def test_multiword_class_quoted(self):
        cs = ClassSpace(("colon cancer", "lung cancer"))
        printed = format_program(parse_program('rule: contains("x") -> 0;', cs), cs)
        assert '-> "colon cancer";' in printed

    def test_abstain_default_omitted(self, spam_cs):
        printed = format_program(
            parse_program('rule: contains("x") -> spam; default -> ABSTAIN;', spam_cs), spam_cs
        )
        assert "default" not in printed


def _random_expr(rng, depth, concepts=None):
    if concepts:
        # programs cannot mix text and score predicates, so score mode is pure
        leaf_makers = [
            lambda: ScoreCmp(
                concept=concepts[rng.integers(len(concepts))],
                op=(">=", ">", "<=", "<")[rng.integers(4)],
                threshold=round(float(rng.uniform(0, 1)), 3),
            )
        ]
    else:
        leaf_makers = [
            lambda: ContainsAny(needles=(_rand_word(rng),), case_sensitive=bool(rng.integers(2))),
            lambda: ContainsAny(
                needles=tuple(_rand_word(rng) for _ in range(rng.integers(1, 4)))
            ),
            lambda: Matches(pattern="[a-z]+" if rng.integers(2) else "x{2,3}"),
            lambda: LengthAtLeast(n=int(rng.integers(0, 200))),
            lambda: UppercaseRatioAtLeast(ratio=round(float(rng.uniform(0, 1)), 3)),
        ]
    if depth <= 0 or rng.random() < 0.4:
        return leaf_makers[rng.integers(len(leaf_makers))]()
    kind = rng.integers(3)
    if kind == 2:
        return Not(child=_random_expr(rng, depth - 1, concepts))
    node_type = And if kind == 0 else Or
    # canonical form: an and/or chain never directly nests its own kind
    children = []
    for _ in range(rng.integers(2, 4)):
        child = _random_expr(rng, depth - 1, concepts)
        if isinstance(child, node_type):
            children.extend(child.children)
        else:
            children.append(child)
    return node_type(children=tuple(children))


def _rand_word(rng):
    alphabet = string.ascii_letters + string.digits + " '\"\\\n\t{}[]()<>-"
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(1, 8)))


class TestRandomAstRoundTrip:
    def test_thousand_random_programs(self, k3_cs):
        rng = np.random.default_rng(20240917)
        for trial in range(1000):
            scores_mode = trial % 4 == 0
            concepts = ("wing shape", "beak len") if scores_mode else None
            rules = tuple(
                Rule(
                    guard=_random_expr(rng, depth=6, concepts=concepts),
                    target=int(rng.integers(-1, 3)),
                )
                for _ in range(rng.integers(1, 5))
            )
            default = int(rng.integers(-1, 3))
            program = RuleProgram(id=f"t{trial}", rules=rules, default=default)
            printed = format_program(program, k3_cs)
            again = parse_program(printed, k3_cs, program_id=program.id)
            assert (again.rules, again.default) == (program.rules, program.default), printed
            assert format_program(again, k3_cs) == printed


class TestParserFuzz:
    def test_ten_thousand_inputs_never_crash(self, spam_cs):
        rng = np.random.default_rng(1729)
        tokens = [
            "rule", "default", ":", ";", "->", "and", "or", "not", "(", ")", "[", "]",
            ",", '"free"', "'x'", "0.5", "42", "-1", "contains", "contains_any",
            "matches", "length_at_least", "uppercase_ratio_at_least", "score", "spam",
            "ham", "ABSTAIN", '"', "\\", "#", "\n", " ", "=", ">=", "<", "true",
        ]
        for trial in range(10_000):
            if trial % 3 == 0:
                n = rng.integers(1, 60)
                source = "".join(tokens[i] for i in rng.integers(0, len(tokens), size=n))
            else:
                n = rng.integers(1, 120)
                source = bytes(rng.integers(1, 256, size=n).tolist()).decode(
                    "utf-8", errors="replace"
                )
            try:
                parse_program(source, spam_cs)
            except DslError:
                pass


# text UTF-8 can encode, with the characters JSON escapes and the DSL's
# quotes drawn often
_UTF8_TEXT = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from("\b\f\n\t\"'\\\x7f "))
_IN_LITERAL = st.sampled_from(
    ["a", "é", "\\u00e9", "\\ud83d", "\\ude00", "\\uD800", "\\b", "\\f", "\\n", "\\'", '\\"', "\\\\", "\\/", "\\x",
     "\\u12", '"', "'", "\t", "\n", "\\"]
) | st.text(max_size=2)
_LITERAL = st.tuples(st.sampled_from("\"'"), st.lists(_IN_LITERAL, max_size=6)).map(lambda q: q[0] + "".join(q[1]) + q[0])
_SOURCE_PIECES = st.sampled_from(
    ["\n", "\r", "\t", " ", "#", "# c", "-", "->", ">", ">=", "<", "<=", ".", "-.", "0", "12", "3.5", ".5", "5.",
     "-1", "x", "_a1", "ß", "²", "٣", "Ⅻ", "(", ")", "[", "]", ",", ";", ":", "=", "rule", '"', "'", "\\"]
)
# sources that reach every branch of both scanners, most of them past
# several tokens
_SOURCES = st.lists(_SOURCE_PIECES | _LITERAL | st.text(max_size=2), max_size=20).map("".join)


def _scanned(scan, source):
    """``scan(source)`` as (kind, value, line, col) tuples, or the
    DslParseError it raised."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in scan(source)]
    except DslParseError as exc:
        return exc


def _joined(value):
    """``value`` with each surrogate pair read as one character, as JSON
    reads two ``\\u`` escapes; None when it holds a lone surrogate."""
    try:
        return value.encode("utf-16-le", "surrogatepass").decode("utf-16-le")
    except UnicodeDecodeError:
        return None


def _literals(names, pattern):
    """A text program and a score program whose every string literal
    comes from ``names`` and ``pattern``, targets included."""
    escaped = "".join(c if c.isalnum() else "\\" + c for c in pattern)  # any text, as a literal pattern
    text = RuleProgram(
        id="t",
        rules=(
            Rule(ContainsAny((names[0],), case_sensitive=True), 0),
            Rule(ContainsAny(tuple(names)), 1),
            Rule(Not(Matches(escaped)), len(names) - 1),
        ),
        default=1,
    )
    scores = RuleProgram(id="s", rules=(Rule(ScoreCmp(names[-1], "<", 0.5), 0),), default=ABSTAIN)
    return text, scores


class TestScanner:
    """The scanner reads string literals as the JSON strings the printer
    writes, and otherwise as the per-character scanner it replaced did."""

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(names=st.lists(_UTF8_TEXT.filter(bool), min_size=2, max_size=3, unique=True), pattern=_UTF8_TEXT)
    def test_printed_literals_parse_back(self, names, pattern):
        cs = ClassSpace(tuple(names))
        for program in _literals(names, pattern):
            assert parse_program(format_program(program, cs), cs, program_id=program.id) == program

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(source=_SOURCES)
    def test_agrees_with_the_reference_scanner(self, source):
        old, new = _scanned(reference_scan, source), _scanned(dsl_parser._scan, source)
        if isinstance(old, DslParseError) and str(old).endswith(("unknown escape \\b", "unknown escape \\f")):
            return  # \b and \f are JSON escapes
        if isinstance(old, list):
            lone = [(line, col) for kind, value, line, col in old if kind == "STRING" and _joined(value) is None]
            if lone:  # a lone surrogate fails the scan at its literal
                assert isinstance(new, DslParseError) and "lone surrogate" in str(new)
                assert (new.line, new.col) == lone[0]
                return
            assert not isinstance(new, DslParseError), new
            joined = [(kind, _joined(value) if kind == "STRING" else value, line, col) for kind, value, line, col in old]
            assert new[:-1] == joined[:-1]
            # the new EOF column is past a final comment; the old one stopped before it
            last_line = source.rsplit("\n", 1)[-1]
            assert new[-1] == ("EOF", None, old[-1][2], len(last_line) + 1)
            assert old[-1] == new[-1] or "#" in last_line
            return
        assert isinstance(new, DslParseError), new
        if (new.line, new.col) != (old.line, old.col):
            # both fail on a string literal: the new error names the
            # literal, the old one its bad escape or its lone surrogate
            # further on
            assert source.split("\n")[new.line - 1][new.col - 1] in "\"'", (new, old)
            assert (new.line, new.col) < (old.line, old.col), (new, old)
            assert new.line == old.line or "lone surrogate" in str(new), (new, old)

    @pytest.mark.parametrize(
        "literal, value",
        [
            (r'"\b\f"', "\b\f"),
            (r'"\ud83d\ude00"', "\U0001f600"),
            (r"'it\'s \"q\" \\'", "it's \"q\" \\"),
            ("'\"'", '"'),
            (r'"\/\u00e9"', "/é"),
            ('"tab\there"', "tab\there"),
        ],
        ids=["json-escapes", "surrogate-pair", "single-quoted-escapes", "bare-double-quote", "solidus-and-u", "raw-tab"],
    )
    def test_literal_values(self, spam_cs, literal, value):
        assert parse_program(f"rule: contains({literal}) -> spam;", spam_cs).rules[0].guard.needles == (value,)

    @pytest.mark.parametrize(
        "source, message, col",
        [
            (r'rule: contains("a\ud800") -> spam;', r"lone surrogate \ud800, which UTF-8 cannot encode", 16),
            (r'rule: contains("\ude00\ud83d") -> spam;', r"lone surrogate \ude00", 16),
            (r'rule: contains("a\x") -> spam;', "bad string: Invalid \\escape", 16),
            ('rule: contains("a\\\n") -> spam;', "unterminated string", 16),
            (f"rule: length_at_least({'9' * 5000}) -> spam;", "integer has too many digits", 23),
            ("rule: contains(\"x\") -> spam; -x", "expected '->' or a number after '-'", 30),
            ("rule: contains(²) -> spam;", "unexpected character '²'", 16),
        ],
        ids=["lone-surrogate", "reversed-pair", "bad-escape", "escaped-newline", "long-integer", "dash", "superscript"],
    )
    def test_scan_errors(self, spam_cs, source, message, col):
        with pytest.raises(DslParseError) as err:
            parse_program(source, spam_cs)
        assert message in str(err.value)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize(
        "source",
        [
            'rule: contains("' + "a" * 1_000_000,
            'rule: contains("' + "\\u00e9\\n" * 100_000 + "\\'" * 100_000 + '") -> spam;',
            "rule: " + "a" * 1_000_000,
            'rule: contains("x") -> spam;' + " # x\n" * 200_000,
        ],
        ids=["unterminated-literal", "escapes", "long-identifier", "comments"],
    )
    def test_megabyte_source_scans_in_linear_time(self, spam_cs, source):
        start = time.perf_counter()
        with contextlib.suppress(DslParseError):
            parse_program(source, spam_cs)
        assert time.perf_counter() - start < 1.0


class TestEvaluator:
    def test_first_match_wins(self, spam_cs):
        program = parse_program(
            'rule: contains("a") -> spam; rule: contains("a") -> ham;', spam_cs
        )
        assert evaluate(program, Record(id="r", text="a")) == 0

    def test_default_applies(self, spam_cs):
        program = parse_program('rule: contains("zz") -> spam; default -> ham;', spam_cs)
        assert evaluate(program, Record(id="r", text="nothing")) == 1

    def test_abstain_without_default(self, spam_cs):
        program = parse_program('rule: contains("zz") -> spam;', spam_cs)
        assert evaluate(program, Record(id="r", text="nothing")) == ABSTAIN

    def test_contains_case_insensitive_by_default(self, spam_cs):
        program = parse_program('rule: contains("FREE") -> spam;', spam_cs)
        assert evaluate(program, Record(id="r", text="free stuff")) == 0

    def test_contains_case_sensitive(self, spam_cs):
        program = parse_program('rule: contains("FREE", case_sensitive=true) -> spam;', spam_cs)
        assert evaluate(program, Record(id="r", text="free stuff")) == ABSTAIN
        assert evaluate(program, Record(id="r", text="FREE stuff")) == 0

    def test_length_boundary(self, spam_cs):
        program = parse_program("rule: length_at_least(5) -> spam;", spam_cs)
        assert evaluate(program, Record(id="r", text="12345")) == 0
        assert evaluate(program, Record(id="r", text="1234")) == ABSTAIN

    def test_uppercase_ratio(self, spam_cs):
        program = parse_program("rule: uppercase_ratio_at_least(0.5) -> spam;", spam_cs)
        assert evaluate(program, Record(id="r", text="ABcd")) == 0
        assert evaluate(program, Record(id="r", text="Abcd")) == ABSTAIN
        # no letters at all: ratio defined as 0
        assert evaluate(program, Record(id="r", text="123 456")) == ABSTAIN

    def test_matches_uses_search_semantics(self, spam_cs):
        program = parse_program('rule: matches("[0-9]{3}") -> spam;', spam_cs)
        assert evaluate(program, Record(id="r", text="call 555 now")) == 0

    def test_score_comparisons(self, spam_cs):
        program = parse_program(
            'rule: score("wing") >= 0.7 -> spam; rule: score("wing") < 0.2 -> ham;', spam_cs
        )
        assert evaluate(program, Record(id="r", scores={"wing": 0.7})) == 0
        assert evaluate(program, Record(id="r", scores={"wing": 0.1})) == 1
        assert evaluate(program, Record(id="r", scores={"wing": 0.5})) == ABSTAIN

    def test_missing_concept_names_everything(self, spam_cs):
        program = parse_program('rule: score("beak") >= 0.5 -> spam;', spam_cs, program_id="pj")
        with pytest.raises(DslEvaluationError) as err:
            evaluate(program, Record(id="rec9", scores={"wing": 0.5}))
        msg = str(err.value)
        assert "pj" in msg and "rec9" in msg and "beak" in msg

    def test_modality_mismatch(self, spam_cs):
        program = parse_program('rule: contains("x") -> spam;', spam_cs)
        with pytest.raises(DslEvaluationError):
            evaluate(program, Record(id="r", scores={"c": 0.5}))

    def test_boolean_combinations(self, spam_cs):
        program = parse_program(
            'rule: contains("a") and not contains("b") or length_at_least(50) -> spam;', spam_cs
        )
        assert evaluate(program, Record(id="r", text="a only")) == 0
        assert evaluate(program, Record(id="r", text="a and b")) == ABSTAIN
        assert evaluate(program, Record(id="r", text="b" * 60)) == 0

    def test_budget_yields_abstain_and_logs(self, spam_cs, caplog):
        program = parse_program('rule: matches("(a+)+b") -> spam;', spam_cs, program_id="slow")
        record = Record(id="big", text="a" * 100_000 + "c")
        with caplog.at_level(logging.WARNING, logger="labelsmith.dsl"):
            result = evaluate(program, record, budget_steps=1_000)
        assert result == ABSTAIN
        assert any("slow" in rec.message for rec in caplog.records)

    def test_budget_is_exact(self, spam_cs):
        # the charge is the Pike VM's live threads summed over both leaves'
        # scans; the second leaf matches at the very end of the text
        program = parse_program(SPACED_PROGRAM, spam_cs)
        record = Record(id="long", text=LONG_HAM)
        charge = sum(
            reference_pike_vm(leaf.compiled, record.text)[1]
            for rule in program.rules
            for leaf in iter_leaves(rule.guard)
        )
        assert charge > 100_000
        assert evaluate(program, record, budget_steps=charge) == 1
        assert evaluate(program, record, budget_steps=charge - 1) == ABSTAIN


# pattern pieces whose matches hold literal strings: strings and their
# alternations, \b, ^, $, classes, and repeats bounded and not
_LITERAL_PIECES = ["ab", "ss", "1/10", "(ab|ba)", "(ss|ß)", r"\b", "^", "$", "[6-9]", "[ab]",
                   "a{2}", "(ab){1,3}", "b+", "a*", ".", r"\s", "\n", "x?"]
_LITERAL_PATTERN = st.lists(
    st.lists(st.sampled_from(_LITERAL_PIECES), min_size=1, max_size=4).map("".join), min_size=1, max_size=3
).map("|".join)
# texts of pieces the patterns and needles look for, at random offsets,
# ending in a newline or not
_PLANTED_TEXT = st.builds(
    lambda parts, newline: "".join(parts) + "\n" * newline,
    st.lists(
        st.sampled_from(["a", "b", " ", "ab", "ba", "ss", "SS", "ß", "ẞ", "1/10", "7/10", "x", "é", "\n",
                         "Lorem ipsum "]),
        max_size=60,
    ),
    st.booleans(),
)
_NEEDLE = st.sampled_from(["ss", "SS", "ß", "ẞ", "ab", "Ab", "1/10", "x"])
_LEAF = st.one_of(
    st.builds(ContainsAny, _NEEDLE.map(lambda n: (n,)), st.booleans()),
    st.builds(ContainsAny, st.lists(_NEEDLE, min_size=1, max_size=3).map(tuple), st.booleans()),
    st.builds(Matches, _LITERAL_PATTERN),
    st.builds(LengthAtLeast, st.integers(0, 80)),
    st.builds(UppercaseRatioAtLeast, st.sampled_from([0.0, 0.3, 0.5, 1.0])),
)
_GUARD = st.recursive(
    _LEAF,
    lambda child: st.one_of(
        st.builds(Not, child),
        st.lists(child, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
        st.lists(child, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
    ),
    max_leaves=6,
)
_TARGET = st.sampled_from([ABSTAIN, 0, 1])


@st.composite
def _programs(draw):
    """One to three rules, and half the time a fourth whose guard is the
    first's, so its leaves occur twice."""
    rules = [Rule(draw(_GUARD), draw(_TARGET)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        rules.append(Rule(rules[0].guard, draw(_TARGET)))
    return RuleProgram(id="p", rules=tuple(rules), default=draw(_TARGET))


@contextlib.contextmanager
def dsl_warnings():
    """The messages the dsl logger warns with inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    dsl_logger = logging.getLogger("labelsmith.dsl")
    level = dsl_logger.level
    dsl_logger.addHandler(handler)
    dsl_logger.setLevel(logging.WARNING)
    try:
        yield messages
    finally:
        dsl_logger.removeHandler(handler)
        dsl_logger.setLevel(level)


@contextlib.contextmanager
def search_budgets():
    """The budget each ``Rex.search`` inside the block was passed."""
    budgets = []
    search = rex.Rex.search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            rex.Rex, "search", lambda self, text, budget=None: budgets.append(budget) or search(self, text, budget)
        )
        yield budgets


class TestUncountedEvaluation:
    """Where (len(text) + 1) * max_live is within the budget, evaluate
    counts no steps; votes and budget warnings stay the counted ones."""

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(program=_programs(), text=_PLANTED_TEXT, budget=st.one_of(st.integers(0, 400), st.integers(0, 20_000)))
    def test_votes_and_warnings_match_the_counted_oracle(self, program, text, budget):
        record = Record(id="r", text=text)
        with dsl_warnings() as counted:
            expected = reference_evaluate(program, record, budget)
        with dsl_warnings() as warned:
            vote = evaluate(program, record, budget_steps=budget)
        assert (vote, warned) == (expected, counted)

    def test_each_leaf_compiles_once(self, spam_cs, monkeypatch):
        # 600 distinct patterns: more than a shared cache of 512 held, so
        # evaluation once compiled some of them again on every record
        programs = [
            parse_program("".join(f'rule: matches("w{60 * j + k}x") -> spam;' for k in range(60)), spam_cs)
            for j in range(10)
        ]
        built = []
        init = rex.Rex.__init__
        monkeypatch.setattr(rex.Rex, "__init__", lambda self, pattern: built.append(pattern) or init(self, pattern))
        records = [Record(id=f"r{i}", text=f"w{7 * i}x and more") for i in range(50)]
        matrix = assemble_votes(Dataset.from_records(records), programs, spam_cs)
        assert built == []
        for i in range(50):
            assert matrix.votes[i].tolist() == [0 if j == 7 * i // 60 else ABSTAIN for j in range(10)]

    def test_bound_at_the_budget_is_uncounted_and_one_past_it_counted(self, spam_cs):
        program = parse_program(SPACED_PROGRAM, spam_cs)
        leaves = [leaf for rule in program.rules for leaf in iter_leaves(rule.guard)]
        assert program.max_live == sum(rex.Rex(leaf.pattern).max_live for leaf in leaves)
        budget = (len(LONG_HAM) + 1) * program.max_live
        for text, steps, counted in (
            (LONG_HAM, budget, False),
            (LONG_HAM, budget - 1, True),
            ("x" + LONG_HAM, budget, True),
        ):
            record = Record(id="r", text=text)
            expected = reference_evaluate(program, record, steps)
            with search_budgets() as budgets:
                assert evaluate(program, record, budget_steps=steps) == expected == 1
            assert len(budgets) == 2
            assert all((b is not None) == counted for b in budgets), (len(text), steps)

    def test_a_repeated_leaf_counts_twice(self, spam_cs):
        program = parse_program('rule: matches("ab") -> spam; rule: matches("ab") or contains("c") -> ham;', spam_cs)
        assert program.max_live == 2 * rex.Rex("ab").max_live == 6
        record = Record(id="r", text="x" * 99)
        with search_budgets() as budgets:
            evaluate(program, record, budget_steps=600)
            evaluate(program, record, budget_steps=599)
        assert [b is None for b in budgets] == [True, True, False, False]

    @pytest.mark.parametrize("needle", ["ss", "SS", "ß", "ẞ"])
    @pytest.mark.parametrize("text", ["Straße", "STRASSE", "strasse", "STRAẞE", "strase"])
    def test_contains_folds_text_and_needles_alike(self, spam_cs, needle, text):
        for source in (f'rule: contains("{needle}") -> spam;', f'rule: contains_any(["x", "{needle}"]) -> spam;'):
            program = parse_program(source, spam_cs)
            record = Record(id="r", text=text)
            expected = ABSTAIN if text == "strase" else 0
            assert evaluate(program, record) == reference_evaluate(program, record) == expected

    def test_score_programs_never_count(self, spam_cs):
        program = parse_program('rule: score("c") >= 0.5 -> spam;', spam_cs)
        assert program.max_live == 0
        assert evaluate(program, Record(id="r", scores={"c": 0.7}), budget_steps=0) == 0

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    # ǅ is titlecase, and Ⅷ and Ⓐ are uppercase but not letters
    @given(text=st.text(st.sampled_from(list("aZ 1_\n") + list("éÉßẞǅⅧⒶλЖ")), max_size=60))
    def test_uppercase_ratio_counts_as_the_loop_did(self, text):
        assert _uppercase_ratio(text) == reference_uppercase_ratio(text)


# two spaced-letter leaves, the costliest pattern shape for the regex engine
SPACED_PROGRAM = (
    'rule: matches("(g r e a t|l o v e d|b r i l l i a n t|s u p e r b|m o v i n g)") -> spam;'
    'rule: matches("(a w f u l|b o r i n g|w a s t e|t e r r i b l e|d r e a d f u l)") -> ham;'
)
_FILLER = "The story follows a family through one long winter in a small northern town. "
LONG_HAM = (_FILLER * 160)[:12_000] + "in short: a w f u l"
LONG_SPAM = (_FILLER * 160)[:12_000] + "in short: g r e a t"


@contextlib.contextmanager
def jumping_clock():
    """time.monotonic and time.perf_counter jump 10 s on every read."""
    ticks = itertools.count(0.0, 10.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(time, "monotonic", lambda: next(ticks))
        mp.setattr(time, "perf_counter", lambda: next(ticks))
        yield


class TestWallClockIndependence:
    def test_evaluate(self, spam_cs):
        program = parse_program(SPACED_PROGRAM, spam_cs)
        record = Record(id="long", text=LONG_HAM)
        steady = evaluate(program, record)
        with jumping_clock():
            jumping = evaluate(program, record)
        assert steady == jumping == 1

    def test_assemble_votes(self, spam_cs):
        programs = [
            parse_program(SPACED_PROGRAM, spam_cs, program_id="spaced"),
            parse_program(r'rule: matches("\\b[6-9]/10\\b") -> spam;', spam_cs, program_id="rating"),
        ]
        records = [
            Record(id="ham", text=LONG_HAM),
            Record(id="spam", text=LONG_SPAM + " 8/10"),
            Record(id="neither", text=LONG_HAM[:6_000]),
            Record(id="short", text="9/10 g r e a t"),
        ]
        expected = [[1, ABSTAIN], [0, 0], [ABSTAIN, ABSTAIN], [0, 0]]
        steady = assemble_votes(Dataset.from_records(records), programs, spam_cs)
        with jumping_clock():
            jumping = assemble_votes(Dataset.from_records(records), programs, spam_cs)
        assert steady.votes.tolist() == jumping.votes.tolist() == expected


class TestValidate:
    """What parsing and applying check in a program beyond its syntax."""

    def test_target_out_of_range(self, spam_cs):
        with pytest.raises(DslParseError, match="out of range"):
            parse_program('rule: contains("x") -> 5;', spam_cs)

    def test_bad_regex_rejected(self, spam_cs):
        with pytest.raises(DslParseError, match="bad pattern"):
            parse_program('rule: matches("(a") -> spam;', spam_cs)

    def test_unknown_concept_rejected(self, spam_cs):
        program = parse_program('rule: score("tail") >= 0.5 -> spam;', spam_cs)
        with pytest.raises(DslEvaluationError, match="tail"):
            assemble_votes(Dataset.from_records([Record(id="r", scores={"wing": 0.5})]), [program], spam_cs)

    def test_rule_cap_warned(self, spam_cs, caplog):
        src = "\n".join(f'rule: contains("w{i}") -> spam;' for i in range(65))
        with caplog.at_level(logging.WARNING, logger="labelsmith.dsl"):
            parse_program(src, spam_cs)
        assert any("65" in rec.message for rec in caplog.records)


FENCED_WITH_TAG = """```python
rule: contains("free") -> spam;
```
"""

TWO_BLOCKS_FIRST_BAD = """```
this is not a program
```

```
rule: contains("x") -> spam;
```
"""


class TestExtraction:
    def test_strict_takes_first_valid_fenced_block(self, spam_cs):
        program = extract_program(TWO_BLOCKS_FIRST_BAD, spam_cs)
        assert len(program.rules) == 1

    def test_strict_drops_language_tag(self, spam_cs):
        program = extract_program(FENCED_WITH_TAG, spam_cs)
        assert program.rules[0].guard.needles == ("free",)

    def test_strict_no_fences_is_not_found(self, spam_cs):
        with pytest.raises(ExtractionError, match="no program found"):
            extract_program("just prose, no code", spam_cs)

    def test_strict_all_blocks_invalid_reports_each(self, spam_cs):
        text = "```\nbogus one\n```\n```\nbogus two\n```\n"
        with pytest.raises(ExtractionError) as err:
            extract_program(text, spam_cs)
        assert len(err.value.errors) == 2


REX_AGREEMENT_PATTERNS = [
    "abc",
    "a.c",
    "^abc$",
    "a*b+c?",
    "[abc]+",
    "[^abc]+",
    "[a-z0-9]*x",
    "(ab|cd)+",
    "a{2,4}",
    "a{3}",
    "a{2,}",
    r"\d+",
    r"\w+@\w+",
    r"\s\S",
    r"\bword\b",
    r"\Bord",
    "(?:ab)*c",
    "x|y|z",
    r"a\.b",
    "[.*+]",
    r"\Aab",
    r"ab\Z",
    "()empty",
    "a||b",
    "(a{0}){2}b",
    "a{0002}",
]

REX_FUZZ_PIECES = ["a", "b", "c", ".", "a*", "b+", "c?", "[ab]", "[^ab]", "(a|b)",
                   "a{1,2}", r"\d", r"\w", r"\s", "^", "$", r"\b", "(?:ab)"]

# word characters (ASCII and not), spaces, digits and newlines
_DFA_TEXT = st.builds(
    lambda body, newline: body + "\n" * newline,
    st.text(st.sampled_from(list("abcAB_ 19\n\t") + ["é", "ß", "λ", "Ж", "٣"]), max_size=400),
    st.booleans(),
)


def _cache_entries(compiled):
    """Entries in a pattern's DFA cache, counted as the engine counts them:
    a state costs one plus one per 64 pcs its mask spans, a cached thread
    move the same for each of its two masks, and a transition or a
    context's table of moves one."""
    count = sum(rex._entries(s.mask) + len(s.next) for s in compiled._states.values())
    for moves in compiled._threads.values():
        count += 1 + sum(rex._entries(reach) + rex._entries(out or 0) for reach, out in moves.values())
    return count


# compiled patterns that outlive one example, warm DFA caches and all
_WARM: dict[str, rex.Rex] = {}

REX_TEXTS = [
    "",
    "abc",
    "aabbcc",
    "xyz abc xyz",
    "word boundary word",
    "user@example.com",
    "aaaa",
    "a.b",
    ".*+",
    "line one\nline two",
    "abc\n",
    "ABC",
    "  spaced  ",
    "123 456",
    "ab" * 30 + "c",
]


# where ^ \A $ \Z \b \B read the position's context: the text's ends, a
# final newline, and a non-ASCII word character
EDGE_PATTERNS = ["^a", r"\Aa", "a$", r"a\Z", "^$", "$", "\n$", r"\b", r"\B", r"a\b"]
EDGE_TEXTS = ["", "a", "\n", "a\n", "a\nb", "ab\n\n", "é"]


class TestRexEngine:
    @pytest.mark.parametrize("pattern", REX_AGREEMENT_PATTERNS)
    def test_agrees_with_stdlib_on_fixed_cases(self, pattern):
        compiled = rex.Rex(pattern)
        oracle = stdlib_re.compile(pattern)
        for text in REX_TEXTS:
            assert compiled.search(text) == bool(oracle.search(text)), (pattern, text)

    def test_fuzz_agreement_with_stdlib(self):
        rng = np.random.default_rng(424242)
        pieces = REX_FUZZ_PIECES
        texts = REX_TEXTS + ["abab", "ba", "  ", "a1b2", "\n\n"]
        n_checked = 0
        for _ in range(2000):
            pattern = "".join(
                pieces[i] for i in rng.integers(0, len(pieces), size=rng.integers(1, 8))
            )
            try:
                oracle = stdlib_re.compile(pattern)
            except stdlib_re.error:
                continue
            try:
                compiled = rex.Rex(pattern)
            except rex.RexError:
                continue
            text = texts[rng.integers(len(texts))]
            assert compiled.search(text) == bool(oracle.search(text)), (pattern, text)
            n_checked += 1
        assert n_checked > 500

    @pytest.mark.parametrize(
        "pattern",
        [r"(a)\1", "(?=a)", "(?!a)", "(?<=a)", "(?<!a)", "(?P<x>a)", "(?i)a", "a**", "*a",
         "[z-a]", "(a", "a)", "a{5,2}", "\\", r"a\q"],
    )
    def test_rejects_unsupported_or_malformed(self, pattern):
        with pytest.raises(rex.RexError):
            rex.Rex(pattern)

    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    def test_edge_contexts_agree_with_stdlib_and_pike_vm(self, pattern):
        # a transition cached at position 0 or on a final newline must not
        # be replayed at a middle position, nor the other way round: each
        # text runs on a fresh pattern and on one that already searched a
        # longer text, which then searches the longer text again
        for text in EDGE_TEXTS:
            longer = text + "a\nb " + text
            fresh, warm = rex.Rex(pattern), rex.Rex(pattern)
            warm.search(longer)
            for compiled, haystack in ((fresh, text), (warm, text), (fresh, longer)):
                budget = rex.StepBudget(10**9)
                matched = compiled.search(haystack, budget)
                if (pattern, haystack) == (r"\B", ""):
                    # re matches here only from Python 3.14 on
                    assert matched
                else:
                    assert matched == bool(stdlib_re.search(pattern, haystack)), (pattern, haystack)
                assert (matched, 10**9 - budget.left) == reference_pike_vm(compiled, haystack)

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(pattern=_LITERAL_PATTERN, text=_PLANTED_TEXT)
    def test_unbudgeted_search_agrees_with_pike_vm(self, pattern, text):
        compiled = rex.Rex(pattern)
        assert compiled.search(text) == reference_pike_vm(compiled, text)[0], (pattern, text)

    @pytest.mark.parametrize(
        "pattern, exact, literals, width",
        [
            ("(g r e a t|l o v e d)", True, ("g r e a t", "l o v e d"), 9),
            ("colou?r", True, ("color", "colour"), 6),
            ("a|", True, ("", "a"), 1),
            (r"\b(10|[6-9])/10\b", False, ("10/10", "6/10", "7/10", "8/10", "9/10"), 5),
            (r"\b(highly|strongly) recommend", False, ("highly recommend", "strongly recommend"), 18),
            (r"\d+ dollars", False, (" dollars",), None),
            ("a+bcd", False, ("bcd",), None),
            ("(ab)+c{2,3}", False, ("ab",), None),
            ("[a-z]x", False, ("x",), 2),
            ("^$", False, None, 0),
            ("a*", False, None, None),
        ],
    )
    def test_prefilter(self, pattern, exact, literals, width):
        compiled = rex.Rex(pattern)
        assert (compiled.exact, compiled.literals, compiled.width) == (exact, literals, width)

    def test_prefilter_skips_to_the_first_literal(self):
        # the DFA starts width characters before the first literal found:
        # a match there is found, and \b still reads the character before it
        compiled = rex.Rex(r"\b[6-9]/10\b")
        assert compiled.search("x" * 50 + " 8/10")
        assert not compiled.search("x" * 50 + "88/10")
        assert not compiled.search("a8/10")
        assert compiled.search("8/10")

    def test_literal_leading_brace(self):
        # unlike the stdlib, a brace with no preceding atom is a literal
        assert rex.Rex("{2}").search("x{2}y")

    @pytest.mark.parametrize("cache_limit", [None, 2])
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(pieces=st.lists(st.sampled_from(REX_FUZZ_PIECES), min_size=1, max_size=8), text=_DFA_TEXT)
    def test_dfa_agrees_with_stdlib_and_pike_vm(self, cache_limit, pieces, text):
        # each pattern is compiled once and kept in _WARM, so its cache
        # stays warm across examples; a limit of 2 entries empties a fresh
        # pattern's cache mid-text
        pattern = "".join(pieces)
        try:
            oracle = stdlib_re.compile(pattern)
            if pattern not in _WARM:
                _WARM[pattern] = rex.Rex(pattern)
        except (stdlib_re.error, rex.RexError):
            assume(False)
        compiled = _WARM[pattern]
        with pytest.MonkeyPatch.context() as mp:
            if cache_limit is not None:
                mp.setattr(rex, "DFA_CACHE_LIMIT", cache_limit)
                compiled = rex.Rex(pattern)
            budget = rex.StepBudget(10**9)
            matched = compiled.search(text, budget)
            assert matched == bool(oracle.search(text)), (pattern, text)
            assert (matched, 10**9 - budget.left) == reference_pike_vm(compiled, text)
            assert _cache_entries(compiled) <= rex.DFA_CACHE_LIMIT

    def test_blow_up_pattern_is_linear_with_a_bounded_cache(self):
        # every position of a random a/b text is a new DFA state
        pattern = "(a|b)*a(a|b){20}c"
        compiled = rex.Rex(pattern)
        text = "".join(np.random.default_rng(7).choice(["a", "b"], size=100_000))
        planted = text[:-21] + "a" + text[-20:] + "c"
        # stdlib backtracking is quadratic on the first text; the leading
        # (a|b)* cannot change whether a search matches, so drop it there
        for haystack, oracle in ((text, "a(a|b){20}c"), (planted, pattern)):
            start = time.monotonic()
            assert compiled.search(haystack) == bool(stdlib_re.search(oracle, haystack))
            assert time.monotonic() - start < 2.0
            assert _cache_entries(compiled) <= rex.DFA_CACHE_LIMIT

    def test_pathological_pattern_is_linear(self):
        compiled = rex.Rex("(a+)+b")
        text = "a" * 200_000 + "c"
        budget = rex.StepBudget(10**9)

        start = time.monotonic()
        assert compiled.search(text, budget) is False
        assert time.monotonic() - start < 1.0
        # two live threads per position between the text's ends, one at each end
        assert 10**9 - budget.left == 2 * 200_000 + 2

    def test_budget_exceeded_raises(self):
        compiled = rex.Rex("(a|b)*c")
        with pytest.raises(rex.RexBudgetExceeded):
            compiled.search("ab" * 200_000, rex.StepBudget(1_000))

    def test_repeat_cap(self):
        with pytest.raises(rex.RexError):
            rex.Rex("a{500}")
        # past the digits int() reads, with no int() of them
        with pytest.raises(rex.RexError, match="repeat bound above 128"):
            rex.Rex("a{" + "9" * 5000 + "}")

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("a*{" + "9" * 5000 + "}", "multiple repeat"),
            ("^{" + "9" * 5000 + "}", "nothing to repeat"),
            ("(){2}", "nothing to repeat"),
            ("a{1000,999}", "bad repeat interval"),
            ("a{" + "9" * 5000 + "," + "9" * 4999 + "}", "bad repeat interval"),
            ("a{00129}", "repeat bound above 128"),
        ],
        ids=["multiple", "nothing", "empty-group", "interval", "long-interval", "above"],
    )
    def test_bound_errors_in_order(self, pattern, message):
        with pytest.raises(rex.RexError, match=message):
            rex.Rex(pattern)

    @pytest.mark.parametrize("pattern", ["a{²}", "a{٣}", "a{1,٣}"])
    def test_bound_in_other_digits_is_literal(self, pattern):
        # bounds are ASCII digits, as stdlib reads them; ٣ is not a{3}
        compiled = rex.Rex(pattern)
        for text in (pattern, "aaa"):
            assert compiled.search(text) == bool(stdlib_re.search(pattern, text)) == (text == pattern)

    @settings(derandomize=True, database=None, max_examples=2000, deadline=None)
    @given(pattern=st.text(st.sampled_from(list(".^$*+?{}[]()|\\,-") + list("0123456789²٣abdws")), max_size=10))
    def test_compiles_or_refuses(self, pattern):
        # a pattern outside the subset is a RexError, never another error
        try:
            rex.Rex(pattern)
        except rex.RexError:
            pass

    def test_unclosed_and_empty_repeats_compile_fast(self):
        # an unclosed brace's digits are read once; repeats of a group that
        # matches only the empty string are not walked once per copy
        start = time.monotonic()
        with pytest.raises(rex.RexError, match="pattern too large"):
            rex.Rex("a{" + "1" * 50_000)
        assert rex.Rex("(((a{0}){128}){128}){128}").search("")
        assert time.monotonic() - start < 1.0

    def test_group_depth_cap(self):
        depth = rex.MAX_GROUP_DEPTH
        assert rex.Rex("(" * depth + "a" + ")" * depth).search("a")
        with pytest.raises(rex.RexError, match="nested") as err:
            rex.Rex("(" * (depth + 1) + "a" + ")" * (depth + 1))
        assert err.value.pos == depth
