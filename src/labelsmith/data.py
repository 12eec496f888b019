"""Core data model: class spaces, records, vote matrices, and pseudolabels,
plus the one reader every input file goes through and the one checker of
each column rule that every container and reader calls.

Everything downstream (the rule DSL, the label models, diagnostics, the
distiller) speaks in terms of these types. The abstain sentinel is -1
everywhere; class indices run 0..K-1. A ``VoteMatrix`` is a whole
``votes.json``, checked once when it is built, so the label models and
diagnostics take the matrix alone. Record files load as a
``records.Dataset``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

ABSTAIN = -1
# the most dollars per 1k tokens a price may be, in prompting.Pricing and
# generate's --price-in/--price-out: the cost of fewer than 2**53 tokens
# at such rates stays a finite float
MAX_RATE_PER_1K = 1_000_000


class LabelsmithError(Exception):
    """Base class for every error this package raises on purpose."""


class DatasetError(LabelsmithError):
    """An input file is malformed."""


class RowError(DatasetError, ValueError):
    """Entry ``row`` of a column breaks the column's rule; the message
    names the column and the entry. It is a ValueError too, as every
    other bad value a constructor refuses is."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row

    def at_line(self, path, lines: Sequence[int]) -> DatasetError:
        """This error naming ``<path>:<line>``, row i being on ``lines[i]``."""
        return DatasetError(f"{path}:{lines[self.row]}: {self}")


# The reader. Every file the package parses goes through ``read_text``,
# ``read_json`` or ``read_jsonl``; an artifact's checked constructor is
# passed in as ``build``, and whatever it rejects comes back as one error
# naming ``<path>`` or ``<path>:<line>``.

_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number",
               bool: "true or false", type(None): "null"}
# what a checked constructor raises on bad input
_CHECK_FAILURES = (LabelsmithError, KeyError, ValueError, TypeError)


def json_type(value) -> str:
    """The JSON name of ``value``'s type: ``true`` is "true or false"."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(doc, key: str, *types: type, default=_REQUIRED):
    """``doc[key]``, checked to be exactly one of ``types``. Parsed JSON
    has exact Python types, so ``true`` never passes for an integer."""
    if type(doc) is not dict:
        raise DatasetError(f"expected an object, got {json_type(doc)}")
    if key not in doc:
        if default is _REQUIRED:
            raise DatasetError(f"missing field {key!r}")
        return default
    value = doc[key]
    if type(value) not in types:
        wanted = " or ".join(_JSON_TYPES[t] for t in types)
        raise DatasetError(f"{key!r} must be {wanted}, got {json_type(value)}")
    return value


def _checked(build, doc, where: str, error: type[LabelsmithError]):
    try:
        return build(doc)
    except _CHECK_FAILURES as exc:
        what = f"missing field {exc}" if type(exc) is KeyError else str(exc)
        raise error(f"{where}: {what}") from exc


def read_text(path, *, error: type[LabelsmithError] = DatasetError) -> str:
    """A file's UTF-8 text; undecodable bytes raise ``error`` naming the
    file and line."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a key that
    repeats raises DatasetError, where ``json.loads`` keeps the last."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise DatasetError(f"duplicate key {key!r}")
    return doc


# a JSON escape of a UTF-16 surrogate: only text holding one can parse to
# a string that UTF-8 cannot encode, as strict UTF-8 decoding refuses a
# raw surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def lone_surrogate(text: str, doc) -> str | None:
    """A lone surrogate in a string or key of ``doc``, the value
    ``text`` parses to, escaped as ``\\udxxx``; None when there is none.
    Text that holds no surrogate escape costs one scan at C speed, and
    only text that does has ``doc`` walked."""
    stack = [doc] if _SURROGATE_ESCAPE.search(text) else []
    while stack:  # a stack, not recursion: values nest as deep as the parser allows
        node = stack.pop()
        if type(node) is dict:
            stack.extend(itertools.chain(node.values(), node))
        elif type(node) is list:
            stack.extend(node)
        elif type(node) is str and (found := _SURROGATE.search(node)):
            return f"\\u{ord(found.group()):04x}"
    return None


def parse_json(text: str, where, *, error: type[LabelsmithError] = DatasetError, lineno: int | None = None):
    """``json.loads`` of a whole JSON document held as text, or of line
    ``lineno`` of a JSONL file. Text it cannot read, a string UTF-8 cannot
    encode and a repeated key in a whole document raise ``error`` naming
    ``where`` (a path, say) and the line; malformed JSON raises it from
    the ``json.JSONDecodeError``. A JSONL row keeps ``json.loads``'s last
    value of a repeated key: an ``object_pairs_hook`` doubles the time a
    row takes."""
    try:
        doc = json.loads(text) if lineno else json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{where}:{lineno or exc.lineno}: malformed JSON ({exc.msg})") from exc
    except RecursionError:
        problem = "JSON nested too deeply"
    except ValueError:  # an integer longer than int's string conversion allows
        problem = "JSON integer has too many digits to read"
    except DatasetError as exc:  # a repeated key
        problem = str(exc)
    else:
        surrogate = lone_surrogate(text, doc)
        if surrogate is None:
            return doc
        problem = f"a string holds the lone surrogate {surrogate}, which UTF-8 cannot encode"
    where = where if lineno is None else f"{where}:{lineno}"
    raise error(f"{where}: {problem}")


def read_json(path, build: Callable, *, error: type[LabelsmithError] = DatasetError):
    """Parse a JSON file and check it into an artifact with ``build``. Bad
    bytes, bad JSON and anything ``build`` rejects raise ``error``."""
    doc = parse_json(read_text(path, error=error), path, error=error)
    return _checked(build, doc, str(path), error)


def read_jsonl(path, build: Callable, *, error: type[LabelsmithError] = DatasetError) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, artifact)`` for every non-blank line of a
    JSONL file, each object checked into an artifact by ``build``.
    Failures raise ``error`` naming ``<path>:<line>``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            if not line.strip():
                continue
            yield lineno, _checked(build, parse_json(line, path, error=error, lineno=lineno), f"{path}:{lineno}", error)


def write_json(path, doc) -> Path:
    """Write ``doc`` as indented JSON with sorted keys, in UTF-8 with
    non-ASCII characters unescaped: the format of params, analysis, cost,
    fit-report, eval, manifest, concept and raw-response files and of the
    embeddings sidecar."""
    path = Path(path)
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True), encoding="utf-8")
    return path


def write_array(path, arrays: Sequence[np.ndarray]) -> Path:
    """Write ``arrays`` in the one binary layout: little-endian float64,
    each array row-major, back to back with no header. The JSON file
    beside it holds the shapes."""
    path = Path(path)
    with path.open("wb") as fh:
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)
    return path


def read_array(path, shapes: Sequence[tuple[int, ...]], source) -> list[np.ndarray]:
    """The read-only arrays of the given shapes that ``write_array`` wrote
    to ``path``. A file of another size, or holding NaN or an infinity,
    raises DatasetError naming ``path``; a size mismatch also names
    ``source``, the file the shapes come from."""
    counts = [math.prod(shape) for shape in shapes]
    data = Path(path).read_bytes()
    if len(data) != 8 * sum(counts):
        shapes_in = f"the shapes {list(shapes)} in {source}"
        raise DatasetError(f"{path}: {len(data)} bytes, but {shapes_in} take {sum(counts)} little-endian doubles")
    flat = np.frombuffer(data, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise DatasetError(f"{path}: value {bad[0]} is {flat[bad[0]]}, expected a finite number")
    ends = np.cumsum([0, *counts]).tolist()
    return [flat[start:end].reshape(shape) for start, end, shape in zip(ends, ends[1:], shapes)]


# The column rules, one checker each: a whole column is scanned at C speed,
# and walked in Python only to name the first entry that breaks the rule in
# a RowError. Given ``n``, a column of another length raises ValueError.


def _entries(values, name: str, n: int | None, types: set, expected: str, fits: Callable | None = None) -> tuple:
    """``values`` as a tuple of entries of ``types`` that ``fits`` (if any) holds for."""
    values = tuple(values)
    if n is not None and len(values) != n:
        raise ValueError(f"{name} must hold {n} entries, got {len(values)}")
    if set(map(type, values)) - types or fits and not all(map(fits, set(values))):
        i = _first(values, lambda v: type(v) not in types or fits and not fits(v))
        raise RowError(i, f"{name} entry {i} is {values[i]!r}, expected {expected}")
    return values


def _first(values, bad: Callable) -> int:
    return next(i for i, value in enumerate(values) if bad(value))


def unique_strings(values, name: str) -> tuple[str, ...]:
    """``values`` as a tuple, checked to be strings, no two the same."""
    values = _entries(values, name, None, {str}, "a string")
    if len(set(values)) != len(values):
        seen: set[str] = set()
        i = _first(values, lambda v: v in seen or seen.add(v))
        raise RowError(i, f"{name} must be unique strings, but entry {i} repeats {values[i]!r}")
    return values


def class_indices(values, K: int | None, name: str, n: int | None = None) -> tuple[int | None, ...]:
    """``values`` as a tuple, checked to be None or class indices in
    0..K-1 (any index when K is None); ``true`` is not 1."""
    top, span = (math.inf, "") if K is None else (K, f" in 0..{K - 1}")
    return _entries(values, name, n, {int, type(None)}, f"a class index{span}", lambda v: v is None or 0 <= v < top)


def group_names(values, name: str, n: int | None = None) -> tuple[str | None, ...]:
    """``values`` as a tuple, checked to be None or strings, holding one
    string object per distinct name: a parsed file has a separate copy of
    every occurrence."""
    values = _entries(values, name, n, {str, type(None)}, "null or a string")
    return tuple(map(dict(zip(values, values)).__getitem__, values))


def posterior_rows(rows, K: int | None, name: str, hard: Sequence[int] | None = None) -> np.ndarray:
    """``rows``, an array or lists of numbers as JSON parses them, as an
    (n, K) float64 array, checked to hold K numbers in [0, 1] a row, K
    being the first row's width when None. Given ``hard``, each stored
    hard label is checked to be its row's argmax (the first on ties)."""
    if not isinstance(rows, np.ndarray) and set(map(type, rows)) - {list}:
        rows = np.asarray(rows, dtype=float)  # not as JSON parses them: a list of arrays, say
    if isinstance(rows, np.ndarray):
        posterior = rows.astype(float, copy=False)
        K = posterior.shape[-1] if K is None and posterior.ndim == 2 else K
        if posterior.ndim != 2 or posterior.shape[1] != K:
            raise ValueError(f"{name} must have shape (n, {K or 'K'}), got {posterior.shape}")
    else:
        posterior = None
        K = len(rows[0]) if K is None and len(rows) else K
        # exact types: numpy would read true as 1.0 and "1" as 1.0
        if not (set(map(len, rows)) - {K} or set(map(type, itertools.chain.from_iterable(rows))) - {int, float}):
            with contextlib.suppress(OverflowError):  # an integer beyond float64
                posterior = np.array(rows, dtype=float).reshape(len(rows), K or 0)
    # phrased so that NaN fails
    if posterior is None or not ((posterior >= 0) & (posterior <= 1)).all():
        rows = posterior.tolist() if isinstance(rows, np.ndarray) else rows
        i = _first(rows, lambda row: len(row) != K or not all(type(p) in (int, float) and 0 <= p <= 1 for p in row))
        raise RowError(i, f"{name} entry {i} is {rows[i]!r}, expected {K} numbers in [0, 1]")
    if hard is not None and posterior.size:
        top = posterior.argmax(axis=1)
        wrong = np.flatnonzero(np.asarray(hard) != top)
        if wrong.size:
            i = int(wrong[0])
            raise RowError(i, f"hard entry {i} is {hard[i]}, but the argmax of {name} entry {i} is {top[i]}")
    return posterior


@dataclass(frozen=True)
class ClassSpace:
    """Ordered class names, unique non-empty strings; the index of a name
    in ``names`` is its class index. The abstain sentinel -1 never is."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = unique_strings(self.names, "classes")
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("a class space needs at least 2 classes")
        if not all(names):
            raise ValueError("class names must be non-empty strings")

    @property
    def K(self) -> int:
        return len(self.names)

    def resolve(self, token: str) -> int | None:
        """Match a class-name token leniently: exact, then case-insensitive,
        then with underscores read as spaces (so COLON_CANCER can name
        "colon cancer"). Returns None when nothing matches."""
        if token in self.names:
            return self.names.index(token)
        folded = token.casefold()
        for key in (folded, folded.replace("_", " ")):
            for i, n in enumerate(self.names):
                if n.casefold() == key:
                    return i
        return None


@dataclass(frozen=True)
class Record:
    """One data point, the row type ``dsl.evaluate`` takes. Exactly one
    payload is present: ``text`` for text tasks, or ``scores`` (concept
    name -> similarity score, kept as a float) for score tasks. ``gold``
    and ``group`` are optional and only used for evaluation. Files of
    records load as one ``records.Dataset``."""

    id: str
    text: str | None = None
    scores: Mapping[str, float] | None = None
    gold: int | None = None
    group: str | None = None

    def __post_init__(self):
        if (self.text is None) == (self.scores is None):
            raise ValueError(f"record {self.id!r} must have exactly one of text/scores")
        if self.scores is not None:
            object.__setattr__(self, "scores", {name: float(v) for name, v in self.scores.items()})

    @property
    def modality(self) -> str:
        return "text" if self.text is not None else "scores"

    def to_dict(self) -> dict:
        """The record's row in a dataset file: the id and payload, then
        gold and group when they are set."""
        doc = {"id": self.id, self.modality: getattr(self, self.modality), "gold": self.gold, "group": self.group}
        return {key: value for key, value in doc.items() if value is not None}


def vote_dtype(K: int) -> np.dtype:
    """The type a ``VoteMatrix`` keeps its votes in: the smallest signed
    integer that holds ABSTAIN and every class index of K classes."""
    return np.min_scalar_type(-K)


@dataclass(frozen=True)
class VoteMatrix:
    """The content of a ``votes.json``: an n x m matrix of program outputs
    and the facts about its records. Row i follows ``record_ids``, column
    j follows ``program_ids``. Entries are class indices of ``classes`` or
    ABSTAIN (-1). ``gold`` and ``groups`` are None, or hold one entry per
    record: a class index or None, a string or None. The constructor
    checks every field, the ids, gold and groups by the column rules, and
    stores ``votes`` read-only in ``vote_dtype(K)``, the caller's own
    array when it already has that type: a read-only view would go stale
    against the cached ``bins`` and vote counts if the caller wrote to it."""

    votes: np.ndarray
    program_ids: tuple[str, ...]
    record_ids: tuple[str, ...]
    classes: ClassSpace
    gold: tuple[int | None, ...] | None = None
    groups: tuple[str | None, ...] | None = None
    task: str | None = None

    def __post_init__(self):
        votes = np.asarray(self.votes)
        K = self.K
        if votes.size and votes.dtype.kind not in "iu":
            raise ValueError(f"votes must be integers, got {votes.dtype} entries")
        # checked before the cast, which would wrap 2**64 - 1 to ABSTAIN
        if votes.size and votes.min() < ABSTAIN:
            raise ValueError("votes must be class indices or ABSTAIN (-1)")
        if votes.size and votes.max() >= K:
            raise ValueError(f"votes outside 0..{K - 1}")
        votes = votes.astype(vote_dtype(K), copy=False)
        if votes.ndim != 2:
            raise ValueError("votes must be a 2-D array")
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "program_ids", unique_strings(self.program_ids, "program_ids"))
        object.__setattr__(self, "record_ids", unique_strings(self.record_ids, "record_ids"))
        if votes.shape[1] != len(self.program_ids):
            raise ValueError("votes columns must match program_ids")
        n = votes.shape[0]
        if n != len(self.record_ids):
            raise ValueError("votes rows must match record_ids")
        if self.gold is not None:
            object.__setattr__(self, "gold", class_indices(self.gold, K, "gold", n))
        if self.groups is not None:
            object.__setattr__(self, "groups", group_names(self.groups, "group", n))
        votes.flags.writeable = False

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    @property
    def K(self) -> int:
        return self.classes.K

    @cached_property
    def bins(self) -> np.ndarray:
        """The (m, n) vote columns every per-program loop reads, built on
        first use: contiguous, in the smallest unsigned dtype that holds K,
        shifted by one so that ABSTAIN is bin 0 and class c is bin c + 1."""
        bins = np.empty(self.votes.shape[::-1], dtype=np.min_scalar_type(self.K))
        # added block by block in a type that holds both -1 and K: int8
        # votes of K = 128 classes would overflow on their own
        wide = np.promote_types(self.votes.dtype, bins.dtype)
        np.add(self.votes.T, 1, out=bins, dtype=wide, casting="unsafe")
        bins.flags.writeable = False
        return bins

    @cached_property
    def record_votes(self) -> np.ndarray:
        """(n,) how many programs voted on each record; 0 where all abstained."""
        counts = np.count_nonzero(self.bins, axis=0)
        counts.flags.writeable = False
        return counts

    @cached_property
    def program_votes(self) -> np.ndarray:
        """(m,) how many records each program voted on; 0 for a silent program."""
        counts = np.count_nonzero(self.bins, axis=1)
        counts.flags.writeable = False
        return counts

    def agreement(self, labels: Sequence[int | None] | None) -> np.ndarray:
        """(m,) for each program, the share of its votes on labelled rows
        that equal the row's label; NaN where it votes on no labelled row,
        and everywhere when ``labels`` is None. ``labels`` holds one entry
        per row, a class index or None for a row without a label."""
        out = np.full(self.m, np.nan)
        if labels is None:
            return out
        # in the bins' coding: class c is c + 1, no label is 0
        coded = np.array([0 if c is None else c + 1 for c in labels], dtype=self.bins.dtype)
        labelled = coded != 0
        for j, col in enumerate(self.bins):
            scored = labelled & (col != 0)
            total = np.count_nonzero(scored)
            if total:
                out[j] = np.count_nonzero(scored & (col == coded)) / total
        return out

    def vote_mass(self, weights: np.ndarray | None = None) -> np.ndarray:
        """(n, K) summed weight of the programs voting each class on each
        row, one per vote without ``weights``, added in program order. The
        buffer has a spare column 0 that ABSTAIN's bin indexes, so every
        vote lands somewhere and abstains are sliced off at the end."""
        bins, K = self.bins, self.K
        m, n = bins.shape
        mass = np.zeros((n, K + 1))
        flat = mass.reshape(-1)
        rows = np.arange(0, n * (K + 1), K + 1)
        w = np.ones(m) if weights is None else weights
        for j in range(m):
            # one vote per row, so no index repeats within a column
            flat[rows + bins[j]] += w[j]
        return mass[:, 1:]


@dataclass(frozen=True)
class Pseudolabels:
    """Aggregated labels for n records: row i of the (n, K) ``posterior``
    belongs to ``record_ids[i]``, and ``covered[i]`` is False iff every
    program abstained on it. The hard labels are derived, never stored.
    The constructor checks the ids and the posterior with the column
    rules; both arrays turn read-only, as ``VoteMatrix``'s votes do."""

    record_ids: tuple[str, ...]
    posterior: np.ndarray
    covered: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "record_ids", unique_strings(self.record_ids, "record_ids"))
        posterior, covered = posterior_rows(self.posterior, None, "posterior"), np.asarray(self.covered)
        object.__setattr__(self, "posterior", posterior)
        object.__setattr__(self, "covered", covered)
        n = len(self.record_ids)
        if posterior.shape[0] != n:
            raise ValueError(f"posterior must have shape ({n}, K), got {posterior.shape}")
        if covered.dtype != bool or covered.shape != (n,):
            raise ValueError(f"covered must be {n} booleans")
        posterior.flags.writeable = False
        covered.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.record_ids)

    @property
    def hard(self) -> np.ndarray:
        """Each row's argmax; ties go to the smallest class index."""
        return self.posterior.argmax(axis=1)


def serialize_records(records: Iterable[Record], path: str | Path) -> Path:
    """Write records out in the format ``records.load_dataset`` reads
    (JSONL); loading the file gives ``Dataset.from_records(records)``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")
    return path


def save_votes(path: str | Path, matrix: VoteMatrix) -> Path:
    """Write a vote matrix as ``votes.json``, one key per field (``groups``
    under ``group``)."""
    doc = {"task": matrix.task, "classes": matrix.classes.names, "program_ids": matrix.program_ids}
    doc.update(record_ids=matrix.record_ids, votes=matrix.votes.tolist(), gold=matrix.gold, group=matrix.groups)
    path = Path(path)
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=None, sort_keys=True), encoding="utf-8")
    return path


def load_votes(path: str | Path) -> VoteMatrix:
    """Read a ``votes.json``; anything the file or ``VoteMatrix`` rejects
    raises DatasetError naming the path. When ``classes`` and
    ``program_ids`` come before ``votes``, as ``save_votes`` writes them,
    the rows are parsed a slice at a time, so the nested lists of all rows
    never exist at once. Any text that scan does not accept is read whole,
    which loads it or names its fault exactly as ``read_json`` does."""
    text = read_text(path)
    try:
        doc, votes = _scan_votes(text)
    except (_Unsliced, DatasetError, ValueError, RecursionError, StopIteration):
        return _checked(_votes_from_doc, parse_json(text, path), str(path), DatasetError)
    del text  # off the peak of building the matrix
    return _checked(lambda doc: _votes_from_doc(doc, votes), doc, str(path), DatasetError)


class _Unsliced(Exception):
    """Text the sliced votes reader leaves to the whole-document one."""


# characters of whole rows each slice of ``votes`` holds, at the least
_VOTES_SLICE = 1 << 17
_WHITESPACE = json.decoder.WHITESPACE
# the end of one row and the comma after it; and the end of the last row
# and of ``votes``, the first such pair when every row is a flat list
_ROW_END = re.compile(r"\][ \t\n\r]*,")
_VOTES_END = re.compile(r"\][ \t\n\r]*\]")
_scan_value = json.JSONDecoder(object_pairs_hook=_unique_keys).scan_once


def _scan_votes(text: str) -> tuple[dict, np.ndarray]:
    """votes.json's top-level object without ``votes``, and ``votes`` as an
    array, its rows scanned a slice at a time. Raises ``_Unsliced`` (or
    what the C scanner or ``_vote_rows`` raises) for any text this does
    not read as ``parse_json`` would: another key order, a repeated key, a
    surrogate escape, malformed JSON or a row ``_vote_rows`` refuses.
    Every slice, wrapped in brackets, must scan to its end into rows
    ``_vote_rows`` takes, so a slice cut inside a row never loads."""
    if _SURROGATE_ESCAPE.search(text):
        raise _Unsliced
    doc: dict = {}
    votes = None
    at = _WHITESPACE.match(text).end()
    if not text.startswith("{", at):
        raise _Unsliced
    sep = "{"
    while sep != "}":
        at = _WHITESPACE.match(text, at + 1).end()
        if not text.startswith('"', at):
            raise _Unsliced
        key, at = json.decoder.scanstring(text, at + 1)
        at = _WHITESPACE.match(text, at).end()
        if key in doc or key == "votes" and votes is not None or not text.startswith(":", at):
            raise _Unsliced
        at = _WHITESPACE.match(text, at + 1).end()
        if key == "votes":
            classes, program_ids = doc.get("classes"), doc.get("program_ids")
            if type(classes) is not list or type(program_ids) is not list or not text.startswith("[", at):
                raise _Unsliced
            votes, at = _scan_vote_rows(text, at, len(program_ids), len(classes))
        else:
            doc[key], at = _scan_value(text, at)
        at = _WHITESPACE.match(text, at).end()
        sep = text[at : at + 1]
        if sep not in (",", "}"):
            raise _Unsliced
    if votes is None or _WHITESPACE.match(text, at + 1).end() != len(text):
        raise _Unsliced
    return doc, votes


def _scan_vote_rows(text: str, start: int, m: int, K: int) -> tuple[np.ndarray, int]:
    """The ``votes`` list that opens at ``text[start]`` as an (n, m) array,
    and the index just past it."""
    end = _VOTES_END.search(text, start)
    if end is None:
        raise _Unsliced
    stop = end.start() + 1
    parts = []
    at = start + 1
    while at < stop:
        cut = _ROW_END.search(text, at + _VOTES_SLICE, stop)
        rows = f"[{text[at : cut.start() + 1 if cut else stop]}]"
        parsed, scanned = _scan_value(rows, 0)
        if scanned != len(rows):
            raise _Unsliced
        parts.append(_vote_rows(parsed, m, K))
        at = cut.end() if cut else stop
    return np.concatenate(parts), end.end()


def _vote_rows(rows: list, m: int, K: int) -> np.ndarray:
    """votes.json's nested lists as an (n, m) matrix in ``vote_dtype(K)``:
    every row a list of m integers that fit that type (``VoteMatrix``
    checks the rest of their range). Every scan runs in C: types and
    lengths through ``map``, the values through ``np.fromiter``, which
    raises OverflowError for an integer the type cannot hold."""
    if not rows:
        raise DatasetError("votes must hold at least one row")
    if set(map(type, rows)) - {list}:
        i = _first(rows, lambda row: type(row) is not list)
        raise DatasetError(f"votes row {i} is {json_type(rows[i])}, expected a list")
    if set(map(len, rows)) - {m}:
        i = _first(rows, lambda row: len(row) != m)
        raise DatasetError(f"votes row {i} has {len(rows[i])} entries, expected {m}")
    # exact types: numpy would read true as 1, 1.5 as 1 and "1" as 1
    if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
        wrong = next(v for v in itertools.chain.from_iterable(rows) if type(v) is not int)
        raise DatasetError(f"votes must be integers, got {json_type(wrong)}")
    try:
        votes = np.fromiter(itertools.chain.from_iterable(rows), dtype=vote_dtype(K), count=len(rows) * m)
    except OverflowError:
        raise DatasetError(f"votes must be class indices in 0..{K - 1} or ABSTAIN (-1)") from None
    return votes.reshape(len(rows), m)


def _votes_from_doc(doc, votes: np.ndarray | None = None) -> VoteMatrix:
    """A votes document as a ``VoteMatrix``; ``votes``, when given, is
    its ``votes`` list already read into an array by ``_vote_rows``."""
    classes = ClassSpace(tuple(json_field(doc, "classes", list)))
    program_ids = json_field(doc, "program_ids", list)
    if votes is None:
        votes = _vote_rows(json_field(doc, "votes", list), len(program_ids), classes.K)
    return VoteMatrix(
        votes=votes,
        program_ids=program_ids,
        record_ids=json_field(doc, "record_ids", list),
        classes=classes,
        gold=json_field(doc, "gold", list, type(None), default=None),
        groups=json_field(doc, "group", list, type(None), default=None),
        task=json_field(doc, "task", str, type(None), default=None),
    )


# rows save_pseudolabels formats per write, bounding the objects alive at once
_PSEUDOLABEL_CHUNK = 4096


def save_pseudolabels(path: str | Path, labels: Pseudolabels) -> Path:
    """One JSON object per row, byte for byte what ``json.dumps`` writes for
    ``{"record_id", "posterior", "hard", "covered"}``: ids ASCII-escaped,
    floats in ``float.__repr__``'s shortest round-trip form, the default
    separators. Each chunk of rows is one ``%`` of a repeated row
    template."""
    path = Path(path)
    n, K = labels.posterior.shape
    template = '{"record_id": %s, "posterior": [' + ", ".join(["%r"] * K) + '], "hard": %d, "covered": %s}\n'
    hard = labels.hard
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, n, _PSEUDOLABEL_CHUNK):
            stop = min(start + _PSEUDOLABEL_CHUNK, n)
            fields = np.empty((stop - start, K + 3), dtype=object)
            fields[:, 0] = list(map(encode_basestring_ascii, labels.record_ids[start:stop]))
            # object casts give Python floats and ints, which ``%r`` and ``%d`` format
            fields[:, 1 : K + 1] = labels.posterior[start:stop]
            fields[:, K + 1] = hard[start:stop]
            fields[:, K + 2] = np.where(labels.covered[start:stop], "true", "false")
            fh.write((template * (stop - start)) % tuple(fields.ravel().tolist()))
    return path


def load_pseudolabels(path: str | Path, K: int | None = None) -> Pseudolabels:
    """Read a pseudolabels file. Every posterior has ``K`` entries, or as
    many as the first row's when K is not given; ``hard`` must be its
    posterior's argmax, and no record id may repeat."""

    columns: tuple[list, ...] = ([], [], [], [])

    def row(doc):
        for column, key, kind in zip(columns, ("record_id", "posterior", "hard", "covered"), (str, list, int, bool)):
            column.append(json_field(doc, key, kind))

    lines = [lineno for lineno, _ in read_jsonl(path, row)]
    record_ids, posteriors, hard, covered = columns
    try:
        return Pseudolabels(record_ids, posterior_rows(posteriors, K, "posterior", hard), np.array(covered, dtype=bool))
    except RowError as exc:
        raise exc.at_line(path, lines) from None
