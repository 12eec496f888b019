"""Concept elicitation, cosine concept scores, and embedding calibration.

For tasks where records are embeddings from an external feature extractor
(images through a vision-language encoder, say), labeling rules cannot read
raw payloads. Instead: ask a model for the visual concepts that separate
the classes, embed those concept descriptions with the same extractor, and
score each record by cosine similarity to each concept. The scores land in
[0, 1] ((cosine + 1) / 2), and score-threshold rule programs take it from
there. The concept request goes through ``prompting.request_completion``,
as program generation does, so its raw reply is always recorded before it
is parsed.

Calibration: when some concepts are known to be spurious (background
correlates rather than the thing itself), their directions are removed
from record embeddings by orthogonal projection before scoring.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import (
    LabelsmithError,
    json_field,
    json_type,
    parse_json,
    read_array,
    read_json,
    unique_strings,
    write_array,
    write_json,
)
from .dsl.extract import fenced_blocks
from .prompting import GenerationJob, Transport, request_completion, response_text
from .records import Dataset

logger = logging.getLogger("labelsmith.concepts")


class ConceptError(LabelsmithError):
    """Concept sets or embedding tables that cannot be used as given."""


@dataclass(frozen=True)
class ConceptSet:
    """Ordered concept descriptions for one task, unique strings;
    ``spurious`` marks the subset to project away during calibration."""

    task: str
    concepts: tuple[str, ...]
    spurious: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "concepts", unique_strings(self.concepts, "concepts"))
        object.__setattr__(self, "spurious", tuple(self.spurious))
        if not self.concepts:
            raise ConceptError("a concept set needs at least one concept")
        # a spurious entry that is not a string is in no list of strings
        unknown = [s for s in self.spurious if s not in self.concepts]
        if unknown:
            raise ConceptError(f"spurious concept {unknown[0]!r} is not in the concept list")


def save_concepts(path: str | Path, concept_set: ConceptSet) -> Path:
    return write_json(
        path,
        {
            "task": concept_set.task,
            "concepts": list(concept_set.concepts),
            "spurious": list(concept_set.spurious),
        },
    )


def load_concepts(path: str | Path) -> ConceptSet:
    return read_json(path, _concept_set_from_doc, error=ConceptError)


def _concept_set_from_doc(doc) -> ConceptSet:
    return ConceptSet(
        task=json_field(doc, "task", str),
        concepts=tuple(json_field(doc, "concepts", list)),
        spurious=tuple(json_field(doc, "spurious", list, default=[])),
    )


def parse_concept_response(task: str, text: str) -> ConceptSet:
    """Concepts from a model reply: either a JSON object mapping concept
    categories to description lists (flattened in order) or a flat JSON
    list. Each candidate is read as a file is; a malformed one gives way
    to the next. The candidates are the whole reply, then each fenced
    block as ``dsl.extract`` reads it. Duplicates are dropped with a
    warning."""
    doc = None
    for candidate in (text, *fenced_blocks(text)):
        try:
            doc = parse_json(candidate, "concept response", error=ConceptError)
            break
        except ConceptError as exc:
            if not isinstance(exc.__cause__, json.JSONDecodeError):
                raise
    if isinstance(doc, dict):
        flat = [d for category, ds in doc.items() for d in _descriptions(ds, f"concept category {category!r}")]
    elif isinstance(doc, list):
        flat = _descriptions(doc, "concept response")
    else:
        raise ConceptError("concept response is not a JSON object or list")
    if not flat:
        raise ConceptError("concept response contains no concepts")
    seen: dict[str, None] = {}
    for concept in flat:
        if concept in seen:
            logger.warning("duplicate concept %r dropped", concept)
        seen.setdefault(concept)
    return ConceptSet(task=task, concepts=tuple(seen))


def _descriptions(values, where: str) -> list[str]:
    """``values``, checked to be a list of strings."""
    if type(values) is not list:
        raise ConceptError(f"{where} is {json_type(values)}, expected a list of strings")
    for i, value in enumerate(values):
        if type(value) is not str:
            raise ConceptError(f"{where} entry {i} is {json_type(value)}, expected a string")
    return values


def elicit_concepts(
    task: str,
    prompt: str,
    model: str,
    transport: Transport,
    out_dir: str | Path,
    *,
    temperature: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> ConceptSet:
    """One completion request for the task's concept list.

    The raw response (or terminal error) is always recorded under
    ``<out_dir>/raw/concepts.json`` before parsing, so malformed replies
    remain auditable."""
    body = GenerationJob(prompt, model, n_programs=1, temperature=temperature).request_body()
    response, _ = request_completion(transport, body, Path(out_dir) / "raw" / "concepts.json", sleep)
    return parse_concept_response(task, response_text(response))


@dataclass(frozen=True)
class EmbeddingTable:
    """Record and concept embeddings in one space.

    ``records`` is n x d, ``concepts`` is C x d, both float64. Concept rows
    must be nonzero (they are directions); record rows may be zero and are
    handled downstream. The names and ids are unique strings by the column
    rule. Both arrays turn read-only, as ``VoteMatrix``'s votes do."""

    records: np.ndarray
    concepts: np.ndarray
    concept_names: tuple[str, ...]
    record_ids: tuple[str, ...]

    def __post_init__(self):
        records = np.asarray(self.records, dtype=float)
        concepts = np.asarray(self.concepts, dtype=float)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "concept_names", unique_strings(self.concept_names, "concept_names"))
        object.__setattr__(self, "record_ids", unique_strings(self.record_ids, "record_ids"))
        if records.ndim != 2 or concepts.ndim != 2:
            raise ConceptError("embeddings must be 2-D matrices")
        if records.shape[1] != concepts.shape[1]:
            raise ConceptError(
                f"dimension mismatch: records are {records.shape[1]}-d, "
                f"concepts are {concepts.shape[1]}-d"
            )
        if len(self.concept_names) != concepts.shape[0]:
            raise ConceptError("concept_names must match concept rows")
        if len(self.record_ids) != records.shape[0]:
            raise ConceptError("record_ids must match record rows")
        if not (np.isfinite(records).all() and np.isfinite(concepts).all()):
            raise ConceptError("embeddings must be finite")
        norms = np.linalg.norm(concepts, axis=1)
        if (norms == 0).any():
            bad = int(np.argmax(norms == 0))
            raise ConceptError(f"concept {self.concept_names[bad]!r} has a zero embedding")
        records.flags.writeable = False
        concepts.flags.writeable = False

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def C(self) -> int:
        return self.concepts.shape[0]

    @property
    def d(self) -> int:
        return self.records.shape[1]


def scores_from_embeddings(table: EmbeddingTable) -> np.ndarray:
    """(n, C) concept scores: cosine similarity mapped to [0, 1] via
    (s + 1) / 2. Zero-norm records score 0.5 everywhere (logged)."""
    rec_norms = np.linalg.norm(table.records, axis=1)
    con_norms = np.linalg.norm(table.concepts, axis=1)
    zero = rec_norms == 0
    if zero.any():
        logger.warning(
            "%d record embedding(s) have zero norm; their scores default to 0.5",
            int(zero.sum()),
        )
    safe = np.where(zero, 1.0, rec_norms)
    cos = (table.records @ table.concepts.T) / (safe[:, None] * con_norms[None, :])
    cos[zero] = 0.0
    return (cos + 1.0) / 2.0


def _orthogonalized(directions: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt; drops directions that are linearly dependent
    on earlier ones. Makes the subtraction order-invariant."""
    basis: list[np.ndarray] = []
    for row in directions:
        v = row.astype(float).copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0:
            raise ConceptError("spurious direction has zero norm")
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-12 * norm0:
            basis.append(v / norm)
    return np.asarray(basis)


def reject_spurious(table: EmbeddingTable, spurious: Sequence[str]) -> EmbeddingTable:
    """Remove the span of the named spurious concept directions from every
    record embedding (concept embeddings stay as they are).

    The directions are orthogonalized first, then each record loses its
    projection onto each: norms never increase, the result is unchanged by
    a second application, and residual dot products with the processed
    directions sit at numerical zero."""
    if len(spurious) == 0:
        return table
    unknown = [s for s in spurious if s not in table.concept_names]
    if unknown:
        raise ConceptError(f"spurious concept {unknown[0]!r} is not in the table")
    basis = _orthogonalized(table.concepts[[table.concept_names.index(s) for s in spurious]])
    if basis.size == 0:
        return table
    records = table.records.copy()
    for b in basis:
        records -= np.outer(records @ b, b)
    return EmbeddingTable(
        records=records,
        concepts=table.concepts,
        concept_names=table.concept_names,
        record_ids=table.record_ids,
    )


def records_from_scores(table: EmbeddingTable, scores: np.ndarray) -> Dataset:
    """Score matrix -> a scores dataset, one row per record of the table
    and one column per concept, ready for rule programs. The dataset
    holds ``scores`` itself, made read-only, when it is float64."""
    if scores.shape != (table.n, table.C):
        raise ConceptError(f"expected a {table.n}x{table.C} score matrix, got {scores.shape}")
    return Dataset(ids=table.record_ids, scores=scores, concepts=table.concept_names)


def save_embeddings(stem: str | Path, table: EmbeddingTable) -> tuple[Path, Path]:
    """Write ``<stem>.bin`` (the record rows, then the concept rows, in
    ``data.write_array``'s layout) and the ``<stem>.json`` sidecar with the
    shapes and names."""
    stem = Path(stem)
    shapes = {"n": table.n, "C": table.C, "d": table.d}
    names = {"concepts": list(table.concept_names), "record_ids": list(table.record_ids)}
    json_path = write_json(stem.with_suffix(".json"), {**shapes, **names})
    return write_array(stem.with_suffix(".bin"), [table.records, table.concepts]), json_path


def load_embeddings(stem: str | Path) -> EmbeddingTable:
    """The pair ``save_embeddings`` wrote; any fault raises ConceptError."""
    stem = Path(stem)
    sidecar = stem.with_suffix(".json")
    try:
        n, C, d, names, record_ids = read_json(sidecar, _embedding_fields, error=ConceptError)
        records, concepts = read_array(stem.with_suffix(".bin"), [(n, d), (C, d)], sidecar)
        return EmbeddingTable(records, concepts, tuple(names), tuple(record_ids))
    except (OSError, LabelsmithError) as exc:
        raise ConceptError(f"cannot read embeddings {stem}: {exc}") from exc


def _embedding_fields(meta) -> tuple:
    n, C, d = (json_field(meta, key, int) for key in ("n", "C", "d"))
    if min(n, C, d) < 0:
        raise ConceptError("n, C and d must be non-negative")
    concepts, record_ids = (unique_strings(json_field(meta, key, list), key) for key in ("concepts", "record_ids"))
    return n, C, d, concepts, record_ids
