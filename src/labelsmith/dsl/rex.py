"""A small linear-time regex engine (Thompson NFA run as a lazy DFA).

Rule programs arrive as untrusted model output, so their regexes must not
be able to blow up evaluation time. Backtracking engines (including the
stdlib ``re``) are exponential on adversarial patterns; this engine
simulates the NFA breadth-first, Pike-VM style, which is
O(len(text) * len(pattern)) regardless of input. The sets of live threads
it meets are cached as DFA states with their transitions (RE2's lazy DFA,
after Cox, "Regular Expression Matching Can Be Simple And Fast"), so a
step the cache has seen costs one dict lookup, at every position of the
text: a state holds the context its assertions read (the previous
character's word-ness, and whether it is position 0), and a final
newline and the end of the text are keys of their own. The cache is
bounded by DFA_CACHE_LIMIT and emptied when full. Work is counted in
Pike-VM steps (live threads per position scanned), which a StepBudget
can cap. A search without a budget counts nothing, and first reads the
literal strings the pattern requires (RE2's prefilter, derived from the
parse tree at compile time), which can answer it without the DFA or let
the DFA start late in the text; the answer is the counted scan's.

Supported syntax: literals, ``.``, character classes with ranges and
negation, escapes (\\d \\w \\s and friends), anchors ``^ $ \\A \\Z \\b \\B``,
alternation, grouping (plain and ``(?:``), and quantifiers ``* + ?``
``{m} {m,} {m,n}``. Backreferences and lookaround are rejected at compile
time. Matching is search semantics (anywhere in the text) and the empty
pattern matches everything.
"""

from __future__ import annotations

import itertools
import re
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
# most strings a literal set may hold; a search without a budget looks
# for each of them with ``str.find``
MAX_LITERALS = 16

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

    def members(self) -> frozenset[str] | None:
        """The characters the set matches, or None when they are not a
        list of at most MAX_LITERALS code points."""
        if self.negated or self.shorthands or sum(hi - lo + 1 for lo, hi in self.ranges) > MAX_LITERALS:
            return None
        return frozenset(chr(code) for lo, hi in self.ranges for code in range(lo, hi + 1))


# AST node tags. Tuples keep the compiler compact.
#   ("lit", _CharSet) ("any",) ("assert", kind) ("cat", [nodes])
#   ("alt", [nodes]) ("star", node) ("plus", node) ("opt", node)
# x{m,n} is spelled out as it parses: m copies of x, then n - m ("opt", x)

# an empty branch, as in "()" or "a|": the one empty node a quantifier
# refuses ("(a{0}){2}" repeats an empty cat of its own)
_EMPTY_BRANCH = ("cat", [])

# {m}, {m,}, {,n} or {m,n} in ASCII digits, as stdlib reads a bound; any
# other "{" is a literal. One optional group holds the comma and n, so an
# unclosed brace is one pass over its digits, not one per way to split them
_BOUNDS = re.compile(r"\{([0-9]*)(?:(,)([0-9]*))?\}")


def _size(digits: str) -> tuple[int, str]:
    """A key that orders digit strings as their numbers do, with no int()
    of a long one: the count of significant digits, then the digits."""
    digits = digits.lstrip("0")
    return len(digits), digits


def _cat(parts: list):
    """The sequence of ``parts`` less its empty cats, which emit nothing but
    would be walked once per copy in "(((a{0}){99}){99}){99}"."""
    return ("cat", [part for part in parts if part[0] != "cat" or part[1]])


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
            parts.append(self.repeat())
        if len(parts) == 1:
            return parts[0]
        return _cat(parts) if parts else _EMPTY_BRANCH

    def repeat(self):
        node = self.atom()
        seen_quant = False
        while True:
            ch = self.peek()
            bounds = _BOUNDS.match(self.p, self.i) if ch == "{" else None
            if ch in ("*", "+", "?"):
                quant = self.take()
            elif bounds and (bounds[1] or bounds[3]):
                self.i = bounds.end()
                quant = bounds
            else:
                break
            if seen_quant:
                self.error("multiple repeat")
            if node[0] == "assert" or node is _EMPTY_BRANCH:
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
                low, comma, high = quant.groups()
                m, n = low or "0", high if comma else low  # n "": unbounded
                if n and _size(n) < _size(m):
                    self.error("bad repeat interval (max < min)")
                if _size(n or m) > _size(str(MAX_REPEAT)):
                    self.error(f"repeat bound above {MAX_REPEAT}")
                m = int(m)
                if n:
                    node = _cat([node] * m + [("opt", node)] * (int(n) - m))
                else:
                    node = _cat([node] * (m - 1) + [("plus", node)]) if m else ("star", node)
            seen_quant = True
        return node

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
        return self._literal(ch)  # a "{" that did not scan as a bound is one too

    def _literal(self, ch: str):
        code = ord(ch)
        return ("lit", _CharSet([(code, code)], (), False))

    def escape(self):
        ch = self._escaped()
        if ch in _CLASS_SHORTHANDS:
            return ("lit", _CharSet((), (ch,), False))
        if ch in "bBAZ":
            return ("assert", ch)
        return self._literal(self._decode(ch))

    def _escaped(self) -> str:
        """The character after a backslash."""
        if self.peek() is None:
            self.error("dangling backslash")
        return self.take()

    def _decode(self, ch: str) -> str:
        """The character the escape ``\\ch`` stands for, read alike in and
        out of a class; shorthands and \\b are the callers' own."""
        if ch.isdigit():
            self.error("backreferences are not supported")
        if ch in _ESCAPE_LITERALS:
            return _ESCAPE_LITERALS[ch]
        if ch == "x":
            return self._hex(2)
        if ch == "u":
            return self._hex(4)
        if ch.isalpha():
            self.error(f"bad escape \\{ch}")
        return ch

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
        esc = self._escaped()
        if esc in _CLASS_SHORTHANDS:
            return "short", esc
        if esc == "b":  # inside a class \b is backspace, as in stdlib re
            return "cp", 0x08
        return "cp", ord(self._decode(esc))


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
    else:  # pragma: no cover - parser emits only the tags above
        raise RexError(f"unknown node {tag!r}")
    if len(prog) > MAX_PROGRAM:
        raise RexError("pattern too large")


_EMPTY = frozenset([""])


def _joined(parts: list) -> frozenset[str]:
    """Every way to pick one string from each set of ``parts`` in turn,
    joined: each string is built once, so a long literal costs its length."""
    return frozenset(map("".join, itertools.product(*parts)))


def _required(strings: frozenset[str] | None) -> frozenset[str] | None:
    """``strings`` as a requirement on a text: None when it holds the
    empty string, which every text contains."""
    return None if strings is None or "" in strings else strings


def _best(*sets: frozenset[str] | None) -> frozenset[str] | None:
    """The requirement least often met by chance: the one whose shortest
    string is longest, then the one with the fewest strings."""
    usable = [s for s in sets if s is not None]
    return max(usable, key=lambda s: (min(map(len, s), default=0), -len(s)), default=None)


def _union(sets: list) -> frozenset[str] | None:
    """The union of ``sets``; None when one is None or it would hold more
    than MAX_LITERALS strings."""
    if None in sets:
        return None
    union = frozenset().union(*sets)
    return union if len(union) <= MAX_LITERALS else None


def _literals(node) -> tuple[frozenset[str] | None, frozenset[str] | None]:
    """``(exact, required)`` for an AST node, as RE2's prefilter derives
    them (Cox, "Regular Expression Matching with a Trigram Index").

    ``exact`` is the set of strings the node matches, or None when that
    is not a set of at most MAX_LITERALS strings or an assertion takes
    part. ``required`` is a set of nonempty strings at least one of which
    every match of the node contains, or None when there is none.
    """
    tag = node[0]
    if tag == "lit":
        exact = node[1].members()
        return exact, _required(exact)
    if tag in ("any", "assert", "star"):
        return None, None
    if tag == "opt":
        exact, _ = _literals(node[1])
        return _union([exact, _EMPTY]), None
    if tag == "plus":
        return None, _literals(node[1])[1]
    if tag == "alt":
        branches = [_literals(branch) for branch in node[1]]
        exact = _union([e for e, _ in branches])
        if exact is not None:
            return exact, _required(exact)
        return None, _union([r for _, r in branches])
    # cat: a run of children with exact sets matches one of the strings
    # joined from them; an assertion matches the empty string there, but
    # those strings are then no longer the cat's exact set
    whole = True
    required = None
    run: list = []  # the exact sets of the current run of children
    size = 1  # the strings they join to
    for child in node[1]:
        if child[0] == "assert":
            whole = False
            continue
        exact, child_required = _literals(child)
        if exact is not None and size * len(exact) <= MAX_LITERALS:
            run.append(exact)
            size *= len(exact)
            continue
        whole = False
        required = _best(required, _required(_joined(run)), child_required)
        run, size = ([], 1) if exact is None else ([exact], len(exact))
    if whole:
        exact = _joined(run)
        return exact, _required(exact)
    return None, _best(required, _required(_joined(run)))


def _width(node) -> int | None:
    """The most characters a match of ``node`` spans; None when unbounded."""
    tag = node[0]
    if tag in ("lit", "any"):
        return 1
    if tag == "assert":
        return 0
    if tag in ("star", "plus"):
        return None
    if tag == "opt":
        return _width(node[1])
    widths = [_width(child) for child in node[1]]
    if None in widths:
        return None
    return sum(widths) if tag == "cat" else max(widths)


# the key for a last character "\n", read as "\n" but with $ holding before
# it; any other position's key is its character, and the end's is None
FINAL_NEWLINE = "\n$"


def _assert_holds(kind: str, context) -> bool:
    """Whether ``kind`` holds in ``context``: (whether the previous
    character is a word character, whether this is position 0, the key
    read here)."""
    word, at_start, key = context
    if kind in ("^", "A"):
        return at_start
    if kind == "Z":
        return key is None
    if kind == "$":
        return key is None or key == FINAL_NEWLINE
    return (word != _is_word(key)) == (kind == "b")


class _State:
    """A lazy-DFA state: ``mask``, the threads carried into a position as
    a bit mask over pcs, ``word``, whether the character before it is a
    word character (\\b and \\B read it), and ``at_start``, whether it is
    position 0 (^ and \\A read it). ``next`` maps each key read there to
    (live threads, next state), the next state being None when a live
    thread matched."""

    __slots__ = ("mask", "word", "at_start", "next")

    def __init__(self, mask: int, word: bool, at_start: bool):
        self.mask = mask
        self.word = word
        self.at_start = at_start
        self.next: dict[str | None, tuple[int, _State | None]] = {}


def _mask(pcs) -> int:
    mask = 0
    for pc in pcs:
        mask |= 1 << pc
    return mask


def _entries(mask: int) -> int:
    """Cache entries one mask costs: one, plus one per 64 pcs it spans."""
    return 1 + mask.bit_length() // 64


class Rex:
    """A compiled pattern. ``search`` answers "does it match anywhere".

    The search runs the Pike VM's thread sets as a lazy DFA (RE2's
    design): each set of threads met at a position becomes a cached state,
    together with the context its assertions read, and each state's step
    on a key is computed once and then costs one dict lookup. The cache is
    bounded by DFA_CACHE_LIMIT. Searches fill the cache, so one Rex must
    not search in two threads at once.

    ``max_live`` is the number of pcs that read a character or match: no
    position scanned has more live threads, so a search of a text of n
    characters costs at most (n + 1) * max_live steps. ``literals``,
    ``exact`` and ``width`` are what a search without a budget reads
    before it scans (see ``search``).
    """

    __slots__ = (
        "pattern", "prog", "max_live", "literals", "exact", "width", "_states", "_threads", "_cached"
    )

    def __init__(self, pattern: str):
        ast = _Parser(pattern).parse()
        prog: list = []
        _emit(ast, prog)
        prog.append(("match",))
        self.pattern = pattern
        self.prog = tuple(prog)
        self.max_live = sum(op[0] in ("lit", "any", "match") for op in self.prog)
        exact, required = _literals(ast)
        # exact: the pattern is an alternation of these strings; otherwise
        # every match contains one of them (None: no such set is known)
        self.exact = exact is not None
        literals = exact if self.exact else required
        self.literals = None if literals is None else tuple(sorted(literals))
        self.width = _width(ast)
        self._states: dict[tuple[int, bool, bool], _State] = {}
        # one thread's move, keyed by its context (word-ness of the
        # previous character, position 0 or not, key read), then by the
        # thread's bit: (mask of the threads it reaches, mask of those it
        # carries on, or None when it matches)
        self._threads: dict[tuple[bool, bool, str | None], dict] = {}
        self._cached = 0  # entries held in _states and _threads

    def __repr__(self):
        return f"Rex({self.pattern!r})"

    def _close(self, stack, context) -> list[int]:
        """The pcs reachable from those on ``stack`` through splits, jumps
        and the assertions that hold in ``context``, keeping only those
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
                if _assert_holds(op[1], context):
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
        self._threads.clear()
        self._cached = 0

    def _intern(self, mask: int, word: bool, at_start: bool) -> _State:
        """The state for the threads ``mask`` in the given context, cached
        when it fits."""
        key = (mask, word, at_start)
        state = self._states.get(key)
        if state is None:
            state = _State(*key)
            if self._reserve(_entries(mask)):
                self._states[key] = state
        return state

    def _transition(self, state: _State, key: str | None):
        """``state``'s transition on ``key``.

        Where one thread goes depends only on its pc and on its context:
        the state's word-ness and position-0 flag and the key. Each
        thread's move is cached under those, and the transition is the
        union of its threads' moves.
        """
        context = (state.word, state.at_start, key)
        moves = self._threads.get(context)
        if moves is None:
            moves = {}
            if self._reserve(1):
                self._threads[context] = moves
        ch = "\n" if key == FINAL_NEWLINE else key
        active = carried = 0
        matched = False
        rest = state.mask | 1  # bit 0: the start thread every position adds
        while rest:
            bit = rest & -rest
            rest ^= bit
            move = moves.get(bit)
            if move is None:
                reach = self._close([bit.bit_length() - 1], context)
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
        target = None if matched else self._intern(carried, _is_word(ch), False)
        # a reset drops ``state``
        if self._states.get((state.mask, state.word, state.at_start)) is state:
            if self._cached < DFA_CACHE_LIMIT:
                state.next[key] = (live, target)
                self._cached += 1
            else:
                self._reset()
        return live, target

    def search(self, text: str, budget: StepBudget | None = None) -> bool:
        """True when the pattern matches anywhere in ``text``.

        With a ``budget`` the DFA scans the whole text, and its work is
        counted in Pike-VM steps, one per live thread per position
        scanned, so it depends only on the pattern and the text, never on
        the cache. The steps are drawn from the budget, and a search that
        would overdraw it raises RexBudgetExceeded instead of answering.

        Without one nothing is counted, and the search skips what cannot
        change its answer, after RE2's required-literal prefilter: a
        pattern that is an alternation of literal strings answers by
        looking for them; otherwise, when every match contains one of
        ``literals``, a text holding none of them answers False, and
        when no match spans more than ``width`` characters, none can
        start more than ``width`` before the first one found, so the DFA
        starts there, in the context of the character before.
        """
        start = 0
        if budget is None and self.literals is not None:
            found = [i for i in map(text.find, self.literals) if i >= 0]
            if not found or self.exact:
                return bool(found)
            if self.width is not None:
                start = max(0, min(found) - self.width)
        limit = budget.left if budget is not None else None
        last = text[-1:]
        keys = itertools.chain(text[start:-1], (FINAL_NEWLINE,) if last == "\n" else last, (None,))
        state = self._intern(0, _is_word(text[start - 1]), False) if start else self._intern(0, False, True)
        steps = 0
        for key in keys:
            try:
                live, state = state.next[key]
            except KeyError:
                live, state = self._transition(state, key)
            steps += live
            if state is None or (limit is not None and steps > limit):
                break
        if budget is not None:
            budget.left -= steps
            if budget.left < 0:
                raise RexBudgetExceeded(f"pattern {self.pattern!r}")
        return state is None
