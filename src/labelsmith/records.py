"""Record files as columns: the ``Dataset``, the one row reader of
datasets and training sets, and vote assembly over a dataset.

A ``Dataset`` is a whole record file, checked once when it is built, so
``apply``, ``export``, ``train`` and ``eval`` take its columns, not one
``Record`` per row. It lives apart from ``data``, which every command
imports, because only these four commands read records.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import ABSTAIN, ClassSpace, DatasetError, Record, RowError, VoteMatrix, class_indices, group_names
from .data import json_field, posterior_rows, read_jsonl, unique_strings, vote_dtype


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dataset or training-set file held as columns; row i is the record
    ``ids[i]``. Exactly one payload is present: ``texts``, or ``scores``,
    an (n, C) float64 array whose column c holds the concept
    ``concepts[c]``. ``gold`` and ``groups`` are None or hold one entry
    per row: a class index in 0..K-1 (any index when ``K`` is None) or
    None, a string or None. The constructor checks every field, the ids,
    concepts, gold and groups by the column rules, raising ``RowError``
    for a rule one row breaks, and makes ``scores`` read-only, the
    caller's own array when no cast copies it, as ``VoteMatrix`` does
    with its votes."""

    ids: tuple[str, ...]
    texts: tuple[str, ...] | None = None
    scores: np.ndarray | None = None
    concepts: tuple[str, ...] | None = None
    gold: tuple[int | None, ...] | None = None
    groups: tuple[str | None, ...] | None = None
    K: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", unique_strings(self.ids, "ids"))
        n = len(self.ids)
        if self.texts is not None:
            texts = tuple(self.texts)
            object.__setattr__(self, "texts", texts)
            if len(texts) != n or set(map(type, texts)) - {str}:
                raise ValueError(f"texts must hold {n} entries, each a string")
        if self.gold is not None:
            object.__setattr__(self, "gold", class_indices(self.gold, self.K, "gold", n))
        if self.groups is not None:
            object.__setattr__(self, "groups", group_names(self.groups, "groups", n))
        if (self.texts is None) == (self.scores is None) or (self.scores is None) != (self.concepts is None):
            raise ValueError("a dataset holds texts, or scores with their concepts")
        if self.scores is not None:
            concepts = unique_strings(self.concepts, "concepts")
            scores = np.asarray(self.scores, dtype=float)
            object.__setattr__(self, "concepts", concepts)
            object.__setattr__(self, "scores", scores)
            if scores.shape != (n, len(concepts)):
                raise ValueError(f"scores must have shape ({n}, {len(concepts)}), got {scores.shape}")
            bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
            if bad.size:
                raise RowError(int(bad[0]), "scores must be finite numbers")
            scores.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_records(cls, records: Iterable[Record], K: int | None = None) -> "Dataset":
        """The records as columns, each checked as a row of a file is."""
        rows = _RowReader(K)
        for record in records:
            rows.add(record.to_dict())
        return rows.dataset()

    def take(self, rows) -> "Dataset":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        picks = rows.tolist()

        def pick(column):
            return None if column is None else tuple(map(column.__getitem__, picks))

        scores = None if self.scores is None else self.scores[rows]
        texts, gold, groups = pick(self.texts), pick(self.gold), pick(self.groups)
        return Dataset(pick(self.ids), texts, scores, self.concepts, gold, groups, self.K)

    def rows(self) -> Iterator[Record]:
        """Each row as a ``Record``, for code that takes one at a time."""
        if self.texts is not None:
            payloads = ({"text": text} for text in self.texts)
        else:
            payloads = ({"scores": dict(zip(self.concepts, row.tolist()))} for row in self.scores)
        none = itertools.repeat(None)
        for rid, payload, gold, group in zip(self.ids, payloads, self.gold or none, self.groups or none):
            yield Record(id=rid, gold=gold, group=group, **payload)


class _RowReader:
    """Record rows checked one at a time into ``Dataset`` columns: each
    field's JSON type, one payload a row, the first row's modality, and
    the first score row's concept set (``concepts`` when given). With
    ``targets``, each row's training target, a ``label`` or a
    ``posterior`` as the first row's is, goes into ``targets``."""

    def __init__(self, K: int | None, concepts: Sequence[str] | None = None, targets: bool = False):
        self.K, self.concepts = K, concepts
        # keys: the first score row's in its order; wanted: every score row's, in error order
        self.modality = self.keys = self.wanted = self.soft = None
        self.ids, self.texts, self.gold, self.groups = [], [], [], []
        self.targets: list | None = [] if targets else None
        self.values = array("d")

    def add(self, doc) -> None:
        rid = json_field(doc, "id", str, int)
        text = json_field(doc, "text", str, default=None)
        scores = json_field(doc, "scores", dict, default=None)
        gold = json_field(doc, "gold", int, type(None), default=None)
        group = json_field(doc, "group", str, int, type(None), default=None)
        if (text is None) == (scores is None):
            raise DatasetError(f"record {rid!r} must have exactly one of text/scores")
        modality = "text" if scores is None else "scores"
        self.modality = self.modality or modality
        if modality != self.modality:
            raise DatasetError(f"a {modality} record among {self.modality} records")
        if scores is None:
            if self.concepts is not None:
                raise DatasetError("expected a scores record, got text")
            self.texts.append(text)
        else:
            if self.keys is None:
                self.keys = tuple(scores)
                self.wanted = dict.fromkeys(self.keys if self.concepts is None else self.concepts)
            if scores.keys() != self.wanted.keys():
                missing = [c for c in self.wanted if c not in scores]
                if missing:
                    raise DatasetError(f"missing score column {missing[0]!r}")
                extra = next(c for c in scores if c not in self.wanted)
                raise DatasetError(f"unexpected score column {extra!r}")
            values = list(scores.values()) if tuple(scores) == self.keys else [scores[c] for c in self.keys]
            if set(map(type, values)) - {int, float}:
                raise DatasetError("scores must be finite numbers")
            try:
                self.values.extend(values)
            except OverflowError:  # an integer beyond float64
                raise DatasetError("scores must be finite numbers") from None
        self.ids.append(str(rid))
        self.gold.append(gold)
        self.groups.append(None if group is None else str(group))
        if self.targets is not None:
            if ("label" in doc) == ("posterior" in doc):
                raise DatasetError("row needs exactly one of label and posterior")
            soft = "posterior" in doc
            self.soft = soft if self.soft is None else self.soft
            if soft != self.soft:
                raise DatasetError("mixed hard and soft labels")
            self.targets.append(json_field(doc, "posterior", list) if soft else json_field(doc, "label", int))

    def dataset(self) -> Dataset:
        n, C = len(self.ids), len(self.keys or ())
        return Dataset(
            ids=self.ids,
            texts=self.texts if self.modality == "text" else None,
            scores=None if self.keys is None else np.frombuffer(self.values, dtype=float).reshape(n, C),
            concepts=self.keys,
            gold=None if self.gold.count(None) == n else self.gold,
            groups=None if self.groups.count(None) == n else self.groups,
            K=self.K,
        )

    def checked_targets(self) -> np.ndarray | None:
        """The targets column by its rule: an (n,) int64 array of labels,
        or an (n, K) float64 array of posteriors."""
        if self.targets is None:
            return None
        if self.soft:
            return posterior_rows(self.targets, self.K, "posterior")
        return np.array(class_indices(self.targets, self.K, "label"), dtype=np.int64)


def read_records(
    path: str | Path, K: int, concepts: Sequence[str] | None = None, targets: bool = False
) -> tuple[Dataset, np.ndarray | None]:
    """The one reader of record files, datasets and training sets alike:
    the rows of a JSONL file as a ``Dataset`` whose gold labels index K
    classes, with the training targets when ``targets`` asks for them
    (None otherwise). ``concepts``, when given, asks for score rows with
    exactly those keys. Every error names ``<path>:<line>``."""
    rows = _RowReader(K, concepts, targets)
    lines = array("q", (lineno for lineno, _ in read_jsonl(path, rows.add)))
    if not lines:
        raise DatasetError(f"{path}: the file holds no records")
    try:
        return rows.dataset(), rows.checked_targets()
    except RowError as exc:
        raise exc.at_line(path, lines) from None


def load_dataset(path: str | Path, classes: ClassSpace, concepts: Sequence[str] | None = None) -> Dataset:
    """A dataset file: {"id", "text", "gold"?, "group"?} rows for text
    tasks, a "scores" object in place of "text" for score tasks, read by
    ``read_records`` for the K of ``classes``."""
    return read_records(path, classes.K, concepts)[0]


def assemble_votes(
    dataset: Dataset, programs: Sequence, classes: ClassSpace, task: str | None = None
) -> VoteMatrix:
    """Apply every program to every row; votes[i][j] is program j's vote
    on row i. The dataset's gold labels and groups ride along.
    Evaluation is sequential and order-stable, so two runs on identical
    inputs produce identical matrices. A program meeting records of the
    other modality raises DslEvaluationError naming both."""
    from .dsl import evaluate  # at call time: only apply runs programs, and a patch reaches it

    votes = np.full((len(dataset), len(programs)), ABSTAIN, dtype=vote_dtype(classes.K))
    for i, record in enumerate(dataset.rows()):
        for j, prog in enumerate(programs):
            votes[i, j] = evaluate(prog, record)
    return VoteMatrix(
        votes=votes,
        program_ids=tuple(p.id for p in programs),
        record_ids=dataset.ids,
        classes=classes,
        gold=dataset.gold,
        groups=dataset.groups,
        task=task,
    )
