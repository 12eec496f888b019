"""A small linear-time regex engine (Thompson NFA run as a lazy DFA).

Rule programs arrive as untrusted model output, so their regexes must not
be able to blow up evaluation time. Backtracking engines (including the
stdlib ``re``) are exponential on adversarial patterns; this engine
simulates the NFA breadth-first, Pike-VM style, which is
O(len(text) * len(pattern)) regardless of input. The sets of live threads
it meets are cached as DFA states with their transitions (RE2's lazy DFA,
after Cox, "Regular Expression Matching Can Be Simple And Fast"), so a
step the cache has seen costs one dict lookup. The cache is bounded by
DFA_CACHE_LIMIT and emptied when full. Work is counted in Pike-VM steps
(live threads per position scanned), which a StepBudget can cap.

Supported syntax: literals, ``.``, character classes with ranges and
negation, escapes (\\d \\w \\s and friends), anchors ``^ $ \\A \\Z \\b \\B``,
alternation, grouping (plain and ``(?:``), and quantifiers ``* + ?``
``{m} {m,} {m,n}``. Backreferences and lookaround are rejected at compile
time. Matching is search semantics (anywhere in the text) and the empty
pattern matches everything.
"""

from __future__ import annotations

import functools
import unicodedata


class RexError(ValueError):
    """Bad pattern: syntax error or unsupported/rejected construct."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at pattern position {pos})"
        super().__init__(message)
        self.pos = pos


class RexBudgetExceeded(Exception):
    """A search needed more Pike-VM steps than its StepBudget had left."""


class StepBudget:
    """The Pike-VM steps a caller still allows: the searches it is passed
    to draw on it in turn, and the one that would overdraw it raises
    RexBudgetExceeded. The count is deterministic, never a clock."""

    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps


MAX_REPEAT = 128
MAX_PROGRAM = 20_000
# most groups a pattern may nest; parsing and compiling recurse once per
# level
MAX_GROUP_DEPTH = 64
# most entries a compiled pattern's lazy-DFA cache holds (a state, a
# transition or a cached thread move each costs one, plus one per 64 pcs
# it spans; about 1.5 MB when full); a full cache is emptied and rebuilt
# from the current state
DFA_CACHE_LIMIT = 10_000

_ESCAPE_LITERALS = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "f": "\f",
    "v": "\v",
    "a": "\a",
}
_CLASS_SHORTHANDS = frozenset("dDwWsS")


def _is_word(ch: str | None) -> bool:
    return ch is not None and (ch.isalnum() or ch == "_")


def _shorthand_matches(kind: str, ch: str) -> bool:
    if kind == "d":
        return unicodedata.category(ch) == "Nd"
    if kind == "D":
        return unicodedata.category(ch) != "Nd"
    if kind == "w":
        return ch.isalnum() or ch == "_"
    if kind == "W":
        return not (ch.isalnum() or ch == "_")
    if kind == "s":
        return ch.isspace()
    return not ch.isspace()  # S


class _CharSet:
    """Ranges plus shorthand classes, optionally negated."""

    __slots__ = ("ranges", "shorthands", "negated")

    def __init__(self, ranges, shorthands, negated):
        self.ranges = tuple(ranges)
        self.shorthands = tuple(shorthands)
        self.negated = negated

    def matches(self, ch: str) -> bool:
        code = ord(ch)
        hit = any(lo <= code <= hi for lo, hi in self.ranges) or any(
            _shorthand_matches(k, ch) for k in self.shorthands
        )
        return hit != self.negated


# AST node tags. Tuples keep the compiler compact.
#   ("lit", _CharSet) ("any",) ("assert", kind) ("cat", [nodes])
#   ("alt", [nodes]) ("star", node) ("plus", node) ("opt", node)
#   ("rep", node, m, n)  n = None means unbounded


class _Parser:
    def __init__(self, pattern: str):
        self.p = pattern
        self.i = 0
        self.depth = 0

    def error(self, message: str):
        raise RexError(message, self.i)

    def peek(self) -> str | None:
        return self.p[self.i] if self.i < len(self.p) else None

    def take(self) -> str:
        ch = self.p[self.i]
        self.i += 1
        return ch

    def parse(self):
        node = self.alt()
        if self.i < len(self.p):
            self.error(f"unbalanced {self.p[self.i]!r}")
        return node

    def alt(self):
        branches = [self.cat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.cat())
        return branches[0] if len(branches) == 1 else ("alt", branches)

    def cat(self):
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self.repeat(parts))
        if len(parts) == 1:
            return parts[0]
        return ("cat", parts)

    def repeat(self, parts):
        node = self.atom()
        seen_quant = False
        while True:
            ch = self.peek()
            if ch in ("*", "+", "?"):
                quant = self.take()
            elif ch == "{":
                bounds = self._try_bounds()
                if bounds is None:
                    break
                quant = bounds
            else:
                break
            if seen_quant:
                self.error("multiple repeat")
            if node[0] == "assert" or (node[0] == "cat" and not node[1]):
                self.error("nothing to repeat")
            if self.peek() == "?":  # lazy marker: same language, ignore
                self.take()
            if quant == "*":
                node = ("star", node)
            elif quant == "+":
                node = ("plus", node)
            elif quant == "?":
                node = ("opt", node)
            else:
                m, n = quant
                if n is not None and n < m:
                    self.error("bad repeat interval (max < min)")
                if m > MAX_REPEAT or (n or 0) > MAX_REPEAT:
                    self.error(f"repeat bound above {MAX_REPEAT}")
                node = ("rep", node, m, n)
            seen_quant = True
        return node

    def _try_bounds(self):
        # "{" only starts a quantifier when it scans as {m}, {m,} or {m,n};
        # otherwise it is a literal brace, matching stdlib behavior
        start = self.i
        self.take()
        digits_m = self._digits()
        if self.peek() == "}" and digits_m:
            self.take()
            return int(digits_m), int(digits_m)
        if self.peek() == ",":
            self.take()
            digits_n = self._digits()
            if self.peek() == "}" and (digits_m or digits_n):
                self.take()
                m = int(digits_m) if digits_m else 0
                n = int(digits_n) if digits_n else None
                return m, n
        self.i = start
        return None

    def _digits(self) -> str:
        out = []
        while (ch := self.peek()) is not None and ch.isdigit():
            out.append(self.take())
        return "".join(out)

    def atom(self):
        ch = self.take()
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise RexError(f"groups nested deeper than {MAX_GROUP_DEPTH}", self.i - 1)
            if self.peek() == "?":
                self.take()
                if self.peek() == ":":
                    self.take()
                else:
                    self.error("only (?: groups are supported; lookaround and named groups are rejected")
            self.depth += 1
            node = self.alt()
            if self.peek() != ")":
                self.error("missing )")
            self.take()
            self.depth -= 1
            return node
        if ch == "[":
            return self.charclass()
        if ch == ".":
            return ("any",)
        if ch == "^":
            return ("assert", "^")
        if ch == "$":
            return ("assert", "$")
        if ch == "\\":
            return self.escape()
        if ch in ")|":
            self.error(f"unexpected {ch!r}")
        if ch in "*+?":
            self.error("nothing to repeat")
        if ch == "{":
            # a brace that did not scan as a bound in repeat(); literal
            return self._literal(ch)
        return self._literal(ch)

    def _literal(self, ch: str):
        code = ord(ch)
        return ("lit", _CharSet([(code, code)], (), False))

    def escape(self):
        if self.peek() is None:
            self.error("dangling backslash")
        ch = self.take()
        if ch in _CLASS_SHORTHANDS:
            return ("lit", _CharSet((), (ch,), False))
        if ch == "b":
            return ("assert", "b")
        if ch == "B":
            return ("assert", "B")
        if ch == "A":
            return ("assert", "A")
        if ch == "Z":
            return ("assert", "Z")
        if ch.isdigit():
            self.error("backreferences are not supported")
        if ch in _ESCAPE_LITERALS:
            return self._literal(_ESCAPE_LITERALS[ch])
        if ch == "x":
            return self._literal(self._hex(2))
        if ch == "u":
            return self._literal(self._hex(4))
        if ch.isalpha():
            self.error(f"bad escape \\{ch}")
        return self._literal(ch)

    def _hex(self, width: int) -> str:
        digits = self.p[self.i : self.i + width]
        if len(digits) != width or any(c not in "0123456789abcdefABCDEF" for c in digits):
            self.error(f"expected {width} hex digits")
        self.i += width
        return chr(int(digits, 16))

    def charclass(self):
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        ranges: list[tuple[int, int]] = []
        shorthands: list[str] = []
        first = True
        while True:
            ch = self.peek()
            if ch is None:
                self.error("missing ]")
            if ch == "]" and not first:
                self.take()
                break
            first = False
            kind, value = self._class_item()
            if kind == "short":
                shorthands.append(value)
                continue
            lo = value
            if self.peek() == "-" and self.i + 1 < len(self.p) and self.p[self.i + 1] != "]":
                self.take()
                kind, hi = self._class_item()
                if kind == "short":
                    self.error("shorthand class cannot end a range")
                if hi < lo:
                    self.error("bad character range")
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        return ("lit", _CharSet(ranges, shorthands, negated))

    def _class_item(self):
        """One class member: ("cp", codepoint) or ("short", kind)."""
        ch = self.take()
        if ch != "\\":
            return "cp", ord(ch)
        if self.peek() is None:
            self.error("dangling backslash")
        esc = self.take()
        if esc in _CLASS_SHORTHANDS:
            return "short", esc
        if esc in _ESCAPE_LITERALS:
            return "cp", ord(_ESCAPE_LITERALS[esc])
        if esc == "x":
            return "cp", ord(self._hex(2))
        if esc == "u":
            return "cp", ord(self._hex(4))
        if esc == "b":  # inside a class \b is backspace, as in stdlib re
            return "cp", 0x08
        if esc.isdigit():
            self.error("backreferences are not supported")
        if esc.isalpha():
            self.error(f"bad escape \\{esc}")
        return "cp", ord(esc)


def _emit(node, prog: list):
    if len(prog) > MAX_PROGRAM:
        raise RexError("pattern too large")
    tag = node[0]
    if tag in ("lit", "any", "assert"):
        prog.append(node)
    elif tag == "cat":
        for child in node[1]:
            _emit(child, prog)
    elif tag == "alt":
        branches = node[1]
        jumps = []
        for idx, branch in enumerate(branches):
            if idx < len(branches) - 1:
                split_at = len(prog)
                prog.append(None)
                _emit(branch, prog)
                jumps.append(len(prog))
                prog.append(None)
                prog[split_at] = ("split", split_at + 1, len(prog))
            else:
                _emit(branch, prog)
        for j in jumps:
            prog[j] = ("jmp", len(prog))
    elif tag == "opt":
        split_at = len(prog)
        prog.append(None)
        _emit(node[1], prog)
        prog[split_at] = ("split", split_at + 1, len(prog))
    elif tag == "star":
        loop = len(prog)
        prog.append(None)
        _emit(node[1], prog)
        prog.append(("jmp", loop))
        prog[loop] = ("split", loop + 1, len(prog))
    elif tag == "plus":
        body = len(prog)
        _emit(node[1], prog)
        prog.append(("split", body, len(prog) + 1))
    elif tag == "rep":
        _, child, m, n = node
        if n is None:
            if m == 0:
                _emit(("star", child), prog)
            else:
                for _ in range(m - 1):
                    _emit(child, prog)
                _emit(("plus", child), prog)
        else:
            for _ in range(m):
                _emit(child, prog)
            for _ in range(n - m):
                _emit(("opt", child), prog)
    else:  # pragma: no cover - parser emits only the tags above
        raise RexError(f"unknown node {tag!r}")
    if len(prog) > MAX_PROGRAM:
        raise RexError("pattern too large")


def _assert_holds(kind: str, i: int, n: int, prev: str | None, nxt: str | None) -> bool:
    if kind in ("^", "A"):
        return i == 0
    if kind == "Z":
        return i == n
    if kind == "$":
        return i == n or (i == n - 1 and nxt == "\n")
    word_left, word_right = _is_word(prev), _is_word(nxt)
    return (word_left != word_right) if kind == "b" else (word_left == word_right)


class _State:
    """A lazy-DFA state: ``mask``, the threads carried into a middle
    position as a bit mask over pcs, and ``word``, whether the character
    before that position is a word character (\\b and \\B read it).
    ``next`` maps each character seen there to (live threads, next state),
    the next state being None when a live thread matched."""

    __slots__ = ("mask", "word", "next")

    def __init__(self, mask: int, word: bool):
        self.mask = mask
        self.word = word
        self.next: dict[str, tuple[int, _State | None]] = {}


def _mask(pcs) -> int:
    mask = 0
    for pc in pcs:
        mask |= 1 << pc
    return mask


def _pcs(mask: int) -> list[int]:
    return [pc for pc in range(mask.bit_length()) if mask >> pc & 1]


def _entries(mask: int) -> int:
    """Cache entries one mask costs: one, plus one per 64 pcs it spans."""
    return 1 + mask.bit_length() // 64


class Rex:
    """A compiled pattern. ``search`` answers "does it match anywhere".

    The search runs the Pike VM's thread sets as a lazy DFA (RE2's
    design): each set of threads met between the text's ends becomes a
    cached state, and each state's step on a character is computed once and
    then costs one dict lookup. The cache is bounded by DFA_CACHE_LIMIT.
    Searches fill the cache, so one Rex must not search in two threads at
    once.
    """

    __slots__ = ("pattern", "prog", "_states", "_threads", "_cached")

    def __init__(self, pattern: str, prog: tuple):
        self.pattern = pattern
        self.prog = prog
        self._states: dict[tuple[int, bool], _State] = {}
        # one thread's move at a middle position, keyed by the word-ness of
        # the character before it, then by the character read, then by the
        # thread's bit: (mask of the threads it reaches, mask of those it
        # carries on, or None when it matches)
        self._threads: tuple[dict, dict] = ({}, {})
        self._cached = 0  # entries held in _states and _threads

    def __repr__(self):
        return f"Rex({self.pattern!r})"

    def _close(self, stack, i, n, prev, nxt) -> list[int]:
        """The pcs reachable from those on ``stack`` through splits, jumps
        and the assertions that hold at position ``i``, keeping only those
        that read a character or match."""
        prog = self.prog
        seen = set()
        out = []
        while stack:
            pc = stack.pop()
            if pc in seen:
                continue
            seen.add(pc)
            op = prog[pc]
            tag = op[0]
            if tag == "split":
                stack.append(op[2])
                stack.append(op[1])
            elif tag == "jmp":
                stack.append(op[1])
            elif tag == "assert":
                if _assert_holds(op[1], i, n, prev, nxt):
                    stack.append(pc + 1)
            else:
                out.append(pc)
        return out

    def _step(self, active, nxt) -> list[int] | None:
        """The pcs the live threads ``active`` carry past the character
        ``nxt`` (None at the end of the text), or None when one matched."""
        prog = self.prog
        out = []
        for pc in active:
            op = prog[pc]
            if op[0] == "match":
                return None
            if nxt is None:
                continue
            if op[0] == "any":
                if nxt != "\n":
                    out.append(pc + 1)
            elif op[1].matches(nxt):
                out.append(pc + 1)
        return out

    def _reserve(self, entries: int) -> bool:
        """Count ``entries`` more cache entries, emptying the cache first
        when they do not fit; False when they could not fit even then."""
        if self._cached + entries > DFA_CACHE_LIMIT:
            self._reset()
        if entries > DFA_CACHE_LIMIT:
            return False
        self._cached += entries
        return True

    def _reset(self):
        # RE2's answer to a full cache: drop every state, transition and
        # thread move, and carry on from the state at hand
        for state in self._states.values():
            state.next.clear()
        self._states.clear()
        for moves in self._threads:
            moves.clear()
        self._cached = 0

    def _intern(self, mask: int, prev: str) -> _State:
        """The state for the threads ``mask`` past the character ``prev``,
        cached when it fits."""
        key = (mask, _is_word(prev))
        state = self._states.get(key)
        if state is None:
            state = _State(*key)
            if self._reserve(_entries(mask)):
                self._states[key] = state
        return state

    def _transition(self, state: _State, i: int, n: int, prev: str, ch: str):
        """``state``'s transition on ``ch`` at the middle position ``i``.

        No anchor but \\b and \\B can hold there, so where one thread goes
        depends only on its pc, on ``ch`` and on the word-ness of ``prev``.
        Each thread's move is cached under those, and the transition is the
        union of its threads' moves.
        """
        by_char = self._threads[state.word]
        moves = by_char.get(ch)
        if moves is None:
            moves = {}
            if self._reserve(1):
                by_char[ch] = moves
        active = carried = 0
        matched = False
        rest = state.mask | 1  # bit 0: the start thread every position adds
        while rest:
            bit = rest & -rest
            rest ^= bit
            move = moves.get(bit)
            if move is None:
                reach = self._close([bit.bit_length() - 1], i, n, prev, ch)
                out = self._step(reach, ch)
                move = (_mask(reach), None if out is None else _mask(out))
                if self._reserve(_entries(move[0]) + _entries(move[1] or 0)):
                    moves[bit] = move
            active |= move[0]
            if move[1] is None:
                matched = True
            else:
                carried |= move[1]
        live = active.bit_count()
        target = None if matched else self._intern(carried, ch)
        if self._states.get((state.mask, state.word)) is state:  # a reset drops ``state``
            if self._cached < DFA_CACHE_LIMIT:
                state.next[ch] = (live, target)
                self._cached += 1
            else:
                self._reset()
        return live, target

    def search(self, text: str, budget: StepBudget | None = None) -> bool:
        """True when the pattern matches anywhere in ``text``.

        The work is counted in Pike-VM steps, one per live thread per
        position scanned, so it depends only on the pattern and the text,
        never on the cache. With a ``budget`` the steps are drawn from it,
        and a search that would overdraw it raises RexBudgetExceeded
        instead of answering.
        """
        n = len(text)
        limit = budget.left if budget is not None else None
        # position 0 and the last two positions are where ^ \A $ \Z can
        # hold, so they run through _close with their real context; every
        # position between them goes through the cached DFA
        nxt = text[0] if n else None
        active = self._close([0], 0, n, None, nxt)
        steps = len(active)
        carried = self._step(active, nxt)
        if carried is not None and n > 2:
            state = self._intern(_mask(carried), text[0])
            for i, ch in enumerate(text[1 : n - 1], 1):
                try:
                    live, state = state.next[ch]
                except KeyError:
                    live, state = self._transition(state, i, n, text[i - 1], ch)
                steps += live
                if state is None:
                    carried = None
                    break
                if limit is not None and steps > limit:
                    break
            else:
                carried = _pcs(state.mask)
        if carried is not None and (limit is None or steps <= limit):
            for i in range(max(1, n - 1), n + 1):
                nxt = text[i] if i < n else None
                active = self._close([0, *carried], i, n, text[i - 1], nxt)
                steps += len(active)
                carried = self._step(active, nxt)
                if carried is None:
                    break
        if budget is not None:
            budget.left -= steps
            if budget.left < 0:
                raise RexBudgetExceeded(f"pattern {self.pattern!r}")
        return carried is None


@functools.lru_cache(maxsize=512)
def compile(pattern: str) -> Rex:
    """Compile a pattern, rejecting anything outside the linear-time subset."""
    ast = _Parser(pattern).parse()
    prog: list = []
    _emit(ast, prog)
    prog.append(("match",))
    return Rex(pattern, tuple(prog))
