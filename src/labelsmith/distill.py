"""Export pseudolabeled training sets and train a small distilled MLP.

The distilled model is intentionally tiny: two hidden layers of 32 ReLU
units and a softmax head, trained with Adam on (possibly soft) cross
entropy. Text records are featurized by signed feature hashing of word
unigrams; score records use their concept scores directly. Features are
stored row-compressed (``Features``): a text row keeps only its non-zero
buckets, so memory grows with the token count, not with n × dims.

Training and prediction run the first layer on one batch or chunk of
rows at a time, and only on the columns those rows store: the rows
become a small (rows, len(cols)) block, multiplied by the first layer's
rows ``cols``. Every other input of those rows is zero, so the block's
gradient is exactly the non-zero rows of the dense gradient. Adam is
lazy on the first layer (the row-sparse semantics of PyTorch's
``SparseAdam``): a first-layer row whose input no row of the batch
stores keeps its weights and moments. The other layers and every bias
take the usual dense Adam step. When every batch touches every column,
as score records and ``Features.from_dense`` inputs always do, this is
plain Adam bit for bit. Everything is plain numpy and deterministic
given a seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    ClassSpace,
    DatasetError,
    LabelsmithError,
    Pseudolabels,
    Record,
    check_posterior,
    json_field,
    read_json,
    read_jsonl,
)

logger = logging.getLogger("labelsmith.distill")

HIDDEN = (32, 32)
# rows × dims of a chunk that a pass over a whole feature set takes at
# once (1 MiB of float64, 32 rows at 4096 dims), which bounds the entries
# of its block; the last chunk of a pass holds up to twice as many rows.
# Larger dense chunks bought no speed on sms-walkthrough's train and
# raised its peak RSS (4 MiB chunks: 56 MiB against 47).
CHUNK_ENTRIES = 1 << 17


class DistillError(LabelsmithError):
    """Bad inputs to export or training."""


# the one hashing recipe: lowercased word unigrams, blake2b keyed with
# eight zero bytes, top bit of the digest as the sign
TOKEN_RE = re.compile(r"[a-z0-9']+")
HASH_KEY = bytes(8)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _hash_token(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=HASH_KEY).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True, eq=False)
class Features:
    """Feature rows stored row-compressed: row i's stored columns are
    ``indices[indptr[i]:indptr[i + 1]]``, holding the ``values`` at the
    same positions; every other column of the row is zero. A row stores
    each column at most once. ``block`` gives rows back on the columns
    they store, as the MLP takes them; ``dense`` gives them back on every
    column."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dims: int

    @classmethod
    def from_dense(cls, X) -> "Features":
        """Every entry of a 2-D array, zeros included, so ``dense`` gives
        back the same bits."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DistillError(f"features must be a 2-D array, got {X.ndim} dimensions")
        n, dims = X.shape
        return cls(
            indptr=np.arange(n + 1, dtype=np.int64) * dims,
            indices=np.tile(np.arange(dims, dtype=np.int64), n),
            values=X.ravel().copy(),
            dims=dims,
        )

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def take(self, rows) -> "Features":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        picks = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Features(indptr, self.indices[picks], self.values[picks], self.dims)

    def block(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The given rows on the columns they store: a (len(rows),
        len(cols)) float64 array and ``cols``, the sorted indices of those
        columns. The rows are zero on every other column."""
        part = self.take(rows)
        stored = np.zeros(self.dims, dtype=bool)
        stored[part.indices] = True
        cols = np.flatnonzero(stored)
        position = np.empty(self.dims, dtype=np.int64)
        position[cols] = np.arange(len(cols))
        out = np.zeros((len(part), len(cols)))
        out[np.repeat(np.arange(len(part)), np.diff(part.indptr)), position[part.indices]] = part.values
        return out, cols

    def dense(self, rows=None) -> np.ndarray:
        """(len(rows), dims) float64 array of the given rows; all rows
        when ``rows`` is None."""
        part = self if rows is None else self.take(rows)
        out = np.zeros((len(part), self.dims))
        out[np.repeat(np.arange(len(part)), np.diff(part.indptr)), part.indices] = part.values
        return out


def _as_features(X) -> Features:
    """``X`` itself when it is already ``Features``, else the 2-D array's
    every entry."""
    return X if isinstance(X, Features) else Features.from_dense(X)


def featurize(
    records: Sequence[Record], dims: int, concepts: Sequence[str] | None = None
) -> Features:
    """Row-compressed (n, dims) features for the given records.

    Without ``concepts``, text is signed-hashed into ``dims`` buckets and
    each row L2-normalized; a row stores only its non-zero buckets, so
    memory grows with the token count, not with n × dims. With them,
    each row is the record's concept scores in that order, and ``dims``
    must equal their count."""
    if concepts is not None:
        if len(concepts) != dims:
            raise DistillError(f"{len(concepts)} concepts but {dims} feature dims")
        rows = []
        for rec in records:
            if rec.scores is None:
                raise DistillError(f"record {rec.id!r} has no scores")
            try:
                rows.append([rec.scores[c] for c in concepts])
            except KeyError as exc:
                raise DistillError(f"record {rec.id!r} is missing concept {exc.args[0]!r}") from exc
        return Features.from_dense(np.array(rows, dtype=float).reshape(len(records), dims))
    # token -> (bucket, sign); most tokens repeat across records
    hashed: dict[str, tuple[int, float]] = {}
    # typed buffers: 8 bytes an entry, where a list of Python numbers
    # takes over 30
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    for rec in records:
        if rec.text is None:
            raise DistillError(f"record {rec.id!r} has no text; hashed features need text")
        row: dict[int, float] = {}
        for token in TOKEN_RE.findall(rec.text.lower()):
            if token not in hashed:
                h = _hash_token(token)
                hashed[token] = (h % dims, 1.0 if (h >> 63) & 1 == 0 else -1.0)
            bucket, sign = hashed[token]
            row[bucket] = row.get(bucket, 0.0) + sign
        # bucket sums are integers, so the norm is exact in any order
        kept = {bucket: count for bucket, count in row.items() if count != 0.0}
        norm = math.sqrt(sum(count * count for count in kept.values()))
        indices.extend(kept)
        values.extend(count / norm for count in kept.values())
        indptr.append(len(indices))
    return Features(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        values=np.frombuffer(values, dtype=float),
        dims=dims,
    )


@dataclass(frozen=True)
class ExportReport:
    path: Path
    n_written: int
    n_dropped_uncovered: int


def export_training_set(
    records: Sequence[Record],
    pseudolabels: Pseudolabels,
    path: str | Path,
    *,
    use_probabilistic: bool = False,
    drop_uncovered: bool = True,
) -> ExportReport:
    """Write a JSONL training set joining records with their pseudolabels.

    Rows carry the record payload plus either the hard label or the full
    posterior. Uncovered records are dropped by default; the count of
    dropped rows comes back in the report."""
    row_of = {rid: i for i, rid in enumerate(pseudolabels.record_ids)}
    missing = [r.id for r in records if r.id not in row_of]
    if missing:
        raise DistillError(f"no pseudolabel for record {missing[0]!r}")
    extra = set(row_of) - {r.id for r in records}
    if extra:
        raise DistillError(f"pseudolabel for unknown record {sorted(extra)[0]!r}")
    targets = (pseudolabels.posterior if use_probabilistic else pseudolabels.hard).tolist()
    covered = pseudolabels.covered.tolist()
    path = Path(path)
    written = dropped = 0
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            i = row_of[rec.id]
            if drop_uncovered and not covered[i]:
                dropped += 1
                continue
            row: dict = {"id": rec.id}
            if rec.text is not None:
                row["text"] = rec.text
            else:
                row["scores"] = rec.scores
            row["posterior" if use_probabilistic else "label"] = targets[i]
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
            written += 1
    return ExportReport(path=path, n_written=written, n_dropped_uncovered=dropped)


def load_training_set(path: str | Path, K: int) -> tuple[list[Record], np.ndarray]:
    """Read an exported training set for ``K`` classes. Returns records
    plus targets: an (n,) int array of hard labels in 0..K-1 or an (n, K)
    float array of posteriors."""
    path = Path(path)

    def row(doc):
        record = Record.from_dict(doc)
        if ("label" in doc) == ("posterior" in doc):
            raise DatasetError("row needs exactly one of label and posterior")
        if "posterior" in doc:
            posterior = check_posterior(json_field(doc, "posterior", list), K)
            return record, [float(x) for x in posterior]
        label = json_field(doc, "label", int)
        if not 0 <= label < K:
            raise DatasetError(f"label {label} is not a class index in 0..{K - 1}")
        return record, label

    records: list[Record] = []
    targets: list = []
    for lineno, (record, target) in read_jsonl(path, row):
        if targets and isinstance(target, list) != isinstance(targets[0], list):
            raise DatasetError(f"{path}:{lineno}: mixed hard and soft labels")
        records.append(record)
        targets.append(target)
    if not records:
        raise DatasetError(f"{path}: training set is empty")
    soft = isinstance(targets[0], list)
    return records, np.asarray(targets, dtype=float if soft else np.int64)


@dataclass
class MLPModel:
    """Fixed-architecture classifier: dims -> 32 -> 32 -> K, ReLU inside,
    softmax out. Weights are float64; ``sizes`` pins the shape."""

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def forward(self, X: np.ndarray, cols=slice(None)) -> tuple[np.ndarray, list[np.ndarray]]:
        """Softmax probabilities plus per-layer activations (for backprop).
        X holds the inputs to the first layer's rows ``cols``, all of them
        by default; every other input is zero."""
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for layer, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ (W[cols] if layer == 0 else W) + b
            h = z if layer == last else np.maximum(z, 0.0)
            acts.append(h)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        return probs, acts

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def predict(self, X: Features | np.ndarray) -> np.ndarray:
        """Class indices, a block of a chunk of rows at a time."""
        X = _as_features(X)
        preds = np.empty(len(X), dtype=np.int64)
        for rows in _chunks(X):
            preds[rows] = np.argmax(self.forward(*X.block(rows))[0], axis=1)
        return preds

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MLPModel":
        """The model part of a model file; every weight and bias must have
        the shape ``sizes`` gives it and hold finite numbers."""
        sizes = tuple(json_field(doc, "sizes", list))
        if len(sizes) < 2 or not all(_is_int(d) and d >= 1 for d in sizes):
            raise DistillError("sizes must list at least 2 positive integers")
        shapes = {
            "weights": list(zip(sizes, sizes[1:])),
            "biases": [(d,) for d in sizes[1:]],
        }
        arrays = {}
        for name, expected in shapes.items():
            arrays[name] = [np.asarray(a) for a in json_field(doc, name, list)]
            got = [a.shape for a in arrays[name]]
            if got != expected:
                raise DistillError(f"{name} have shapes {got}, expected {expected} from sizes")
            if not all(a.dtype.kind in "iuf" and np.isfinite(a).all() for a in arrays[name]):
                raise DistillError(f"{name} must be finite numbers")
        return cls(
            sizes=sizes,
            weights=[w.astype(float, copy=False) for w in arrays["weights"]],
            biases=[b.astype(float, copy=False) for b in arrays["biases"]],
        )


def init_mlp(dims: int, K: int, seed: int) -> MLPModel:
    """He-initialized hidden layers; the output layer starts at zero so the
    initial softmax is uniform and the starting loss is exactly ln K. Same
    seed, same bits."""
    rng = np.random.default_rng(seed)
    sizes = (dims, *HIDDEN, K)
    weights, biases = [], []
    last = len(sizes) - 2
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        if layer == last:
            weights.append(np.zeros((fan_in, fan_out)))
        else:
            weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(sizes=sizes, weights=weights, biases=biases)


def _as_soft(targets: np.ndarray, K: int) -> np.ndarray:
    """Hard labels become one-hot rows; soft targets pass through. One code
    path downstream, so hard and one-hot training are identical."""
    targets = np.asarray(targets)
    if targets.ndim == 1:
        out = np.zeros((len(targets), K))
        out[np.arange(len(targets)), targets.astype(int)] = 1.0
        return out
    if targets.shape[1] != K:
        raise DistillError(f"soft targets have {targets.shape[1]} columns, expected {K}")
    return targets.astype(float)


def _chunks(X: Features):
    """Consecutive row ranges covering X: ``CHUNK_ENTRIES // dims`` rows
    each, the last one taking the remainder too. BLAS may sum a product
    of a few rows in another order than a product of many, so a short
    tail chunk could round differently from the same rows inside one
    product over all of X; a chunk is short only when X is."""
    n, size = len(X), max(1, CHUNK_ENTRIES // X.dims)
    starts = list(range(0, n - size + 1, size)) or [0]
    for start, end in zip(starts, starts[1:] + [n]):
        yield np.arange(start, end)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    logz = logits.max(axis=1, keepdims=True)
    return logits - (logz + np.log(np.exp(logits - logz).sum(axis=1, keepdims=True)))


def cross_entropy(model: MLPModel, X: np.ndarray, T: np.ndarray) -> float:
    """Mean soft cross-entropy, computed from logits for stability.
    Hard label vectors are accepted and treated as one-hot."""
    T = _as_soft(T, model.sizes[-1])
    _, acts = model.forward(X)
    return float(-np.sum(T * _log_softmax(acts[-1])) / len(X))


def _loss_and_predictions(model: MLPModel, X: Features, T: np.ndarray) -> tuple[float, np.ndarray]:
    """``cross_entropy`` and ``predict`` over a whole feature set from one
    forward pass per chunk. The per-row loss terms are summed once, as
    ``cross_entropy`` sums them."""
    terms = np.empty_like(T)
    preds = np.empty(len(X), dtype=np.int64)
    for rows in _chunks(X):
        probs, acts = model.forward(*X.block(rows))
        terms[rows] = T[rows] * _log_softmax(acts[-1])
        preds[rows] = np.argmax(probs, axis=1)
    return float(-np.sum(terms) / len(X)), preds


def gradients(
    model: MLPModel, X: np.ndarray, T: np.ndarray, cols=slice(None)
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of the mean cross-entropy for one batch. X
    holds the inputs to the first layer's rows ``cols`` (all of them by
    default), and the first layer's gradient covers those rows only: the
    gradient of any other row is zero."""
    T = _as_soft(T, model.sizes[-1])
    probs, acts = model.forward(X, cols)
    B = len(X)
    delta = (probs - T) / B
    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0)
    return grads_w, grads_b


@dataclass(frozen=True)
class Hyper:
    epochs: int = 100
    lr: float = 1e-3
    batch: int = 32
    seed: int = 0


@dataclass
class TrainMetrics:
    initial_loss: float
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def save_csv(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "train_accuracy", "val_accuracy"])
            writer.writerow([0, f"{self.initial_loss:.10f}", "", ""])
            for epoch, loss in enumerate(self.train_loss, start=1):
                val = (
                    f"{self.val_accuracy[epoch - 1]:.10f}"
                    if epoch - 1 < len(self.val_accuracy)
                    else ""
                )
                writer.writerow(
                    [epoch, f"{loss:.10f}", f"{self.train_accuracy[epoch - 1]:.10f}", val]
                )
        return path


def train_mlp(
    X: Features | np.ndarray,
    targets: np.ndarray,
    K: int,
    hyper: Hyper = Hyper(),
    X_val: Features | np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[MLPModel, TrainMetrics]:
    """Adam on (soft) cross-entropy, lazy on the first layer.
    Deterministic: the seed fixes the initialization and every shuffle,
    so two runs agree bitwise.

    Each batch becomes a block of the columns its rows store; the first
    layer's forward pass, gradient and Adam step touch only those rows
    of it, and its other rows keep their weights and moments. Passes
    over all rows take a block of a chunk of rows at a time, so X is
    never dense as a whole."""
    X = _as_features(X)
    if len(X) == 0:
        raise DistillError("training set is empty")
    T = _as_soft(targets, K)
    hard = np.argmax(T, axis=1)
    if len(np.unique(hard)) < 2:
        logger.warning(
            "training data has a single class (%d); the model will be a constant predictor",
            int(hard[0]),
        )
    model = init_mlp(X.dims, K, hyper.seed)
    metrics = TrainMetrics(initial_loss=_loss_and_predictions(model, X, T)[0])
    rng = np.random.default_rng(hyper.seed + 1)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), hyper.batch):
            batch = order[start : start + hyper.batch]
            block, cols = X.block(batch)
            grads_w, grads_b = gradients(model, block, T[batch], cols)
            step += 1
            correction = np.sqrt(1 - beta2**step) / (1 - beta1**step)
            for i, rows in enumerate([cols] + [slice(None)] * (len(model.weights) - 1)):
                m = beta1 * m_w[i][rows] + (1 - beta1) * grads_w[i]
                v = beta2 * v_w[i][rows] + (1 - beta2) * grads_w[i] ** 2
                m_w[i][rows], v_w[i][rows] = m, v
                model.weights[i][rows] -= hyper.lr * correction * m / (np.sqrt(v) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                model.biases[i] -= hyper.lr * correction * m_b[i] / (np.sqrt(v_b[i]) + eps)
        loss, preds = _loss_and_predictions(model, X, T)
        metrics.train_loss.append(loss)
        metrics.train_accuracy.append(float((preds == hard).mean()))
        if X_val is not None and y_val is not None:
            metrics.val_accuracy.append(float((model.predict(X_val) == np.asarray(y_val)).mean()))
    return model, metrics


def save_model(
    path: str | Path,
    model: MLPModel,
    class_names: Sequence[str],
    concepts: Sequence[str] | None = None,
) -> Path:
    """Write a model file. ``concepts`` names the score inputs in order;
    without them the model takes hashed text of width ``sizes[0]``."""
    doc = {"model": model.to_dict(), "classes": list(class_names)}
    if concepts is not None:
        doc["concepts"] = list(concepts)
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path


def load_model(path: str | Path) -> tuple[MLPModel, dict]:
    return read_json(path, _model_from_doc)


def _model_from_doc(doc) -> tuple[MLPModel, dict]:
    model = MLPModel.from_dict(json_field(doc, "model", dict))
    unknown = sorted(set(doc) - {"model", "classes", "concepts"})
    if unknown:
        raise DistillError(f"unknown field {unknown[0]!r}")
    classes = json_field(doc, "classes", list)
    concepts = json_field(doc, "concepts", list, type(None), default=None)
    ClassSpace(tuple(classes))
    if len(classes) != model.sizes[-1]:
        raise DistillError(f"{len(classes)} classes listed but the model has {model.sizes[-1]} outputs")
    if concepts is not None:
        if not all(isinstance(c, str) for c in concepts):
            raise DistillError("concepts must be strings")
        if len(concepts) != model.sizes[0]:
            raise DistillError(f"{len(concepts)} concepts listed but the model takes {model.sizes[0]} inputs")
    return model, {"classes": classes, "concepts": concepts}
