"""Core data model: class spaces, records, vote matrices, and pseudolabels,
plus the one reader every input file goes through.

Everything downstream (the rule DSL, the label models, diagnostics, the
distiller) speaks in terms of these types. The abstain sentinel is -1
everywhere; class indices run 0..K-1. A ``VoteMatrix`` is a whole
``votes.json``: the votes with their class space, gold labels, groups and
task, checked once when it is built, so the label models and diagnostics
take the matrix alone. Record files load as a ``records.Dataset``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

ABSTAIN = -1


class LabelsmithError(Exception):
    """Base class for every error this package raises on purpose."""


class DatasetError(LabelsmithError):
    """An input file is malformed."""


# The reader. Every file the package parses goes through ``read_text``,
# ``read_json`` or ``read_jsonl``; an artifact's checked constructor is
# passed in as ``build``, and whatever it rejects comes back as one error
# naming ``<path>`` or ``<path>:<line>``.

_REQUIRED = object()
_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    type(None): "null",
}
# what a checked constructor raises on bad input
_CHECK_FAILURES = (LabelsmithError, KeyError, ValueError, TypeError)


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(doc, key: str, *types: type, default=_REQUIRED):
    """``doc[key]``, checked to be exactly one of ``types``. Parsed JSON
    has exact Python types, so ``true`` never passes for an integer."""
    if type(doc) is not dict:
        raise DatasetError(f"expected an object, got {_json_type(doc)}")
    if key not in doc:
        if default is _REQUIRED:
            raise DatasetError(f"missing field {key!r}")
        return default
    value = doc[key]
    if type(value) not in types:
        wanted = " or ".join(_JSON_TYPES[t] for t in types)
        raise DatasetError(f"{key!r} must be {wanted}, got {_json_type(value)}")
    return value


def json_numbers(doc, key: str, *types: type, default=_REQUIRED):
    """``json_field(doc, key, list, *types)``, with every entry of the
    list, and of the lists nested in it, checked to be a number: ``true``
    is not 1.0 and ``"1"`` names the field, not a failed conversion."""
    value = json_field(doc, key, list, *types, default=default)
    # a stack, not recursion: lists nest as deep as the JSON parser allows
    stack = [value] if type(value) is list else []
    while stack:
        for entry in stack.pop():
            if type(entry) is list:
                stack.append(entry)
            elif type(entry) not in (int, float):
                raise DatasetError(f"{key!r} must hold numbers, got {_json_type(entry)}")
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


def read_json(path, build: Callable, *, error: type[LabelsmithError] = DatasetError):
    """Parse a JSON file and check it into an artifact with ``build``. Bad
    bytes, bad JSON and anything ``build`` rejects raise ``error``."""
    try:
        doc = json.loads(read_text(path, error=error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: malformed JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply") from None
    return _checked(build, doc, str(path), error)


def read_jsonl(
    path, build: Callable, *, error: type[LabelsmithError] = DatasetError
) -> Iterator[tuple[int, object]]:
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
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
            except RecursionError:
                raise error(f"{path}:{lineno}: JSON nested too deeply") from None
            yield lineno, _checked(build, doc, f"{path}:{lineno}", error)


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


def check_posterior(values: list, K: int | None) -> list:
    """``values`` checked to be a posterior over ``K`` classes: K numbers
    in [0, 1] (any count when K is None)."""
    if K is not None and len(values) != K:
        raise DatasetError(f"posterior has {len(values)} entries, expected {K}")
    # phrased so that NaN fails
    if not all(type(p) in (int, float) and 0 <= p <= 1 for p in values):
        raise DatasetError("posterior entries must be numbers in [0, 1]")
    return values


@dataclass(frozen=True)
class ClassSpace:
    """Ordered class names; the index of a name in ``names`` is its class index.

    The abstain sentinel -1 is reserved and never a class index.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("a class space needs at least 2 classes")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("class names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")

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
        for i, n in enumerate(self.names):
            if n.casefold() == folded:
                return i
        spaced = folded.replace("_", " ")
        for i, n in enumerate(self.names):
            if n.casefold() == spaced:
                return i
        return None


@dataclass(frozen=True)
class Record:
    """One data point, the row type ``dsl.evaluate`` takes.

    Exactly one payload is present: ``text`` for text tasks, or ``scores``
    (concept name -> similarity score, kept as a float) for score tasks.
    ``gold`` and ``group`` are optional and only used for evaluation.
    Files of records load as one ``records.Dataset``.
    """

    id: str
    text: str | None = None
    scores: Mapping[str, float] | None = None
    gold: int | None = None
    group: str | None = None

    def __post_init__(self):
        if (self.text is None) == (self.scores is None):
            raise ValueError(
                f"record {self.id!r} must have exactly one of text/scores"
            )
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
    and the facts about its records.

    Row i follows ``record_ids``, column j follows ``program_ids``. Entries
    are class indices of ``classes`` or ABSTAIN (-1). ``gold`` and
    ``groups`` are None, or hold one entry per record: a class index or
    None, a string or None. The constructor checks every field and stores
    ``votes`` read-only in ``vote_dtype(K)``, the caller's own array when
    it already has that type: a read-only view would go stale against the
    cached ``bins`` and vote counts if the caller wrote to it.
    """

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
        object.__setattr__(self, "program_ids", tuple(self.program_ids))
        object.__setattr__(self, "record_ids", tuple(self.record_ids))
        if not all(map(isinstance, self.program_ids + self.record_ids, itertools.repeat(str))):
            raise ValueError("program_ids and record_ids must be strings")
        if votes.shape[1] != len(self.program_ids):
            raise ValueError("votes columns must match program_ids")
        n = votes.shape[0]
        if n != len(self.record_ids):
            raise ValueError("votes rows must match record_ids")
        if len(set(self.program_ids)) != len(self.program_ids):
            raise ValueError("program_ids must be unique")
        if len(set(self.record_ids)) != n:
            raise ValueError("record_ids must be unique")
        if self.gold is not None:
            gold = tuple(self.gold)
            object.__setattr__(self, "gold", gold)
            if (
                len(gold) != n
                or set(map(type, gold)) - {int, type(None)}
                or not all(0 <= g < K for g in set(gold) - {None})
            ):
                raise ValueError(f"gold must hold {n} entries, each null or a class index in 0..{K - 1}")
        if self.groups is not None:
            groups = tuple(self.groups)
            object.__setattr__(self, "groups", groups)
            if len(groups) != n or set(map(type, groups)) - {str, type(None)}:
                raise ValueError(f"group must hold {n} entries, each null or a string")
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
    Both arrays turn read-only, as ``VoteMatrix``'s votes do."""

    record_ids: tuple[str, ...]
    posterior: np.ndarray
    covered: np.ndarray

    def __post_init__(self):
        posterior = np.asarray(self.posterior, dtype=float)
        covered = np.asarray(self.covered)
        object.__setattr__(self, "record_ids", tuple(self.record_ids))
        object.__setattr__(self, "posterior", posterior)
        object.__setattr__(self, "covered", covered)
        n = len(self.record_ids)
        if not all(map(isinstance, self.record_ids, itertools.repeat(str))):
            raise ValueError("record_ids must be strings")
        if len(set(self.record_ids)) != n:
            raise ValueError("record_ids must be unique")
        if posterior.ndim != 2 or posterior.shape[0] != n:
            raise ValueError(f"posterior must have shape ({n}, K), got {posterior.shape}")
        # phrased so that NaN fails
        if not ((posterior >= 0) & (posterior <= 1)).all():
            raise ValueError("posterior entries must be numbers in [0, 1]")
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
    doc = {
        "task": matrix.task,
        "classes": matrix.classes.names,
        "program_ids": matrix.program_ids,
        "record_ids": matrix.record_ids,
        "votes": matrix.votes.tolist(),
        "gold": matrix.gold,
        "group": matrix.groups,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=None, sort_keys=True), encoding="utf-8")
    return path


def load_votes(path: str | Path) -> VoteMatrix:
    """Read a ``votes.json``; anything the file or ``VoteMatrix`` rejects
    raises DatasetError naming the path."""
    return read_json(path, _votes_from_doc)


def _vote_rows(rows: list, m: int, K: int) -> np.ndarray:
    """votes.json's nested lists as an (n, m) matrix in ``vote_dtype(K)``:
    every row a list of m integers that fit that type (``VoteMatrix``
    checks the rest of their range). Every scan runs in C: types and
    lengths through ``map``, the values through ``np.fromiter``, which
    raises OverflowError for an integer the type cannot hold."""
    if not rows:
        raise DatasetError("votes must hold at least one row")
    if set(map(type, rows)) - {list}:
        i = next(i for i, row in enumerate(rows) if type(row) is not list)
        raise DatasetError(f"votes row {i} is {_json_type(rows[i])}, expected a list")
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ragged = np.flatnonzero(lengths != m)
    if ragged.size:
        i = int(ragged[0])
        raise DatasetError(f"votes row {i} has {lengths[i]} entries, expected {m}")
    # exact types: numpy would read true as 1, 1.5 as 1 and "1" as 1
    if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
        wrong = next(v for v in itertools.chain.from_iterable(rows) if type(v) is not int)
        raise DatasetError(f"votes must be integers, got {_json_type(wrong)}")
    try:
        votes = np.fromiter(itertools.chain.from_iterable(rows), dtype=vote_dtype(K), count=len(rows) * m)
    except OverflowError:
        raise DatasetError(f"votes must be class indices in 0..{K - 1} or ABSTAIN (-1)") from None
    return votes.reshape(len(rows), m)


def _votes_from_doc(doc) -> VoteMatrix:
    classes = ClassSpace(tuple(json_field(doc, "classes", list)))
    program_ids = json_field(doc, "program_ids", list)
    return VoteMatrix(
        votes=_vote_rows(json_field(doc, "votes", list), len(program_ids), classes.K),
        program_ids=program_ids,
        record_ids=json_field(doc, "record_ids", list),
        classes=classes,
        gold=json_field(doc, "gold", list, type(None), default=None),
        groups=json_field(doc, "group", list, type(None), default=None),
        task=json_field(doc, "task", str, type(None), default=None),
    )


# rows formatted per write by save_pseudolabels: bounds the Python
# objects alive at once
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

    def row(doc):
        nonlocal K
        record_id = json_field(doc, "record_id", str)
        posterior = check_posterior(json_field(doc, "posterior", list), K)
        K = len(posterior)
        hard = json_field(doc, "hard", int)
        if not 0 <= hard < K:
            raise DatasetError(f"hard label {hard} not in 0..{K - 1}")
        if hard != posterior.index(max(posterior)):
            raise DatasetError(f"hard label {hard} is not the argmax of the posterior")
        return record_id, posterior, json_field(doc, "covered", bool)

    rows: dict[str, tuple[list, bool]] = {}
    for lineno, (record_id, posterior, covered) in read_jsonl(path, row):
        if record_id in rows:
            raise DatasetError(f"{path}:{lineno}: duplicate record id {record_id!r}")
        rows[record_id] = posterior, covered
    return Pseudolabels(
        record_ids=tuple(rows),
        posterior=np.array([p for p, _ in rows.values()], dtype=float).reshape(len(rows), K or 0),
        covered=np.array([c for _, c in rows.values()], dtype=bool),
    )
