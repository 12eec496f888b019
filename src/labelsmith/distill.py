"""Export pseudolabeled training sets and train a small distilled MLP.

The distilled model is intentionally tiny: two hidden layers of 32 ReLU
units and a softmax head, trained with Adam on (possibly soft) cross
entropy. Text records are featurized by signed feature hashing of word
unigrams; score records use their concept scores directly. Features are
stored row-compressed (``Features``): a text row keeps only its non-zero
buckets, so memory grows with the token count, not with n × dims.
An ``MLPModel`` is a whole model file (weights, classes and feature
recipe) and refuses ``Features`` built with another recipe.

Training and prediction run the first layer on one batch or chunk of
rows at a time, and only on the columns those rows store: the rows
become a small (rows, len(cols)) block, multiplied by the first layer's
rows ``cols``. Every other input of those rows is zero, so the block's
gradient is exactly the non-zero rows of the dense gradient. Adam is
lazy on the first layer (the row-sparse semantics of PyTorch's
``SparseAdam``): a first-layer row whose input no row of the batch
stores keeps its weights and moments. So the first layer's moments are
kept only for the buckets the training set stores, not for all dims
rows. The other layers and every bias take the usual dense Adam step,
as views into one flat buffer stepped by one set of in-place ufunc
calls (the idea of PyTorch's multi-tensor Adam); elementwise float64
operations round alike at any shape, so this changes no bit. When every
batch touches every column, as score records and
``Features.from_dense`` inputs always do, this is plain Adam bit for
bit. Everything is plain numpy and deterministic given a seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    ClassSpace,
    LabelsmithError,
    Pseudolabels,
    json_field,
    read_array,
    read_json,
    unique_strings,
    write_array,
)
from .records import Dataset, read_records

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
# eight zero bytes, top bit of the digest as the sign. A token is a run of
# letters, digits and apostrophes in any script ("élève" is one word); on
# ASCII text that is [a-z0-9']+
TOKEN_RE = re.compile(r"(?:[^\W_]|')+")
HASH_KEY = bytes(8)


def _hash_token(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=HASH_KEY).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True, eq=False)
class Features:
    """Feature rows stored row-compressed: row i's stored columns are
    ``indices[indptr[i]:indptr[i + 1]]``, holding the ``values`` at the
    same positions; every other column of the row is zero. A row stores
    each column at most once. ``block`` gives rows back on the columns
    they store, as the MLP takes them. ``dims`` and ``concepts`` (the
    score columns in order; None for hashed text and array rows) are the
    recipe the rows were built with."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dims: int
    concepts: tuple[str, ...] | None

    @classmethod
    def from_dense(cls, X) -> "Features":
        """Every entry of a 2-D array, zeros included."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DistillError(f"features must be a 2-D array, got {X.ndim} dimensions")
        n, dims = X.shape
        return cls(
            indptr=np.arange(n + 1, dtype=np.int64) * dims,
            indices=np.tile(np.arange(dims, dtype=np.int64), n),
            values=X.ravel().copy(),
            dims=dims,
            concepts=None,
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
        return Features(indptr, self.indices[picks], self.values[picks], self.dims, self.concepts)

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


def _as_features(X) -> Features:
    """``X`` itself when it is already ``Features``, else the 2-D array's
    every entry."""
    return X if isinstance(X, Features) else Features.from_dense(X)


def featurize(dataset: Dataset, dims: int, concepts: Sequence[str] | None = None) -> Features:
    """Row-compressed (n, dims) features of the dataset's rows.

    Without ``concepts``, text is signed-hashed into ``dims`` buckets and
    each row L2-normalized; a row stores only its non-zero buckets, so
    memory grows with the token count, not with n × dims. With them,
    each row is the dataset's score columns of those concepts, picked by
    name in that order, and ``dims`` must equal their count."""
    if concepts is not None:
        if len(concepts) != dims:
            raise DistillError(f"{len(concepts)} concepts but {dims} feature dims")
        if dataset.scores is None:
            raise DistillError("the records have no scores; score features need them")
        missing = [c for c in concepts if c not in dataset.concepts]
        if missing:
            raise DistillError(f"the records have no concept {missing[0]!r}")
        X = Features.from_dense(dataset.scores[:, [dataset.concepts.index(c) for c in concepts]])
        return replace(X, concepts=tuple(concepts))
    if dataset.texts is None:
        raise DistillError("the records have no text; hashed features need text")
    # token -> (bucket, sign); most tokens repeat across records
    hashed: dict[str, tuple[int, float]] = {}
    # typed buffers: 8 bytes an entry, where a list of Python numbers
    # takes over 30
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    for text in dataset.texts:
        row: dict[int, float] = {}
        for token in TOKEN_RE.findall(text.lower()):
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
        concepts=None,
    )


@dataclass(frozen=True)
class ExportReport:
    path: Path
    n_written: int
    n_dropped_uncovered: int


def join_pseudolabels(dataset: Dataset, pseudolabels: Pseudolabels) -> Pseudolabels:
    """``pseudolabels`` in the dataset's record order; themselves when they
    are in it already. Each record must have a pseudolabel, and each
    pseudolabel must name a record of the dataset; DistillError names the
    first that does not."""
    if pseudolabels.record_ids == dataset.ids:
        return pseudolabels
    row_of = {rid: i for i, rid in enumerate(pseudolabels.record_ids)}
    missing = next((rid for rid in dataset.ids if rid not in row_of), None)
    if missing is not None:
        raise DistillError(f"no pseudolabel for record {missing!r}")
    extra = set(row_of).difference(dataset.ids)
    if extra:
        raise DistillError(f"pseudolabel for unknown record {sorted(extra)[0]!r}")
    rows = [row_of[rid] for rid in dataset.ids]
    return Pseudolabels(dataset.ids, pseudolabels.posterior[rows], pseudolabels.covered[rows])


def export_training_set(
    dataset: Dataset,
    pseudolabels: Pseudolabels,
    path: str | Path,
    *,
    use_probabilistic: bool = False,
) -> ExportReport:
    """Write a JSONL training set joining the dataset's covered rows with
    their pseudolabels.

    Rows carry the id and payload (score columns in the dataset's concept
    order) plus either the hard label or the full posterior. Uncovered
    records, on which no program voted, are dropped; their count comes
    back in the report. The rows join as ``join_pseudolabels`` joins them."""
    pseudolabels = join_pseudolabels(dataset, pseudolabels)
    targets = (pseudolabels.posterior if use_probabilistic else pseudolabels.hard).tolist()
    covered = pseudolabels.covered.tolist()
    target = "posterior" if use_probabilistic else "label"
    if dataset.texts is not None:
        payload, values = "text", dataset.texts
    else:
        payload, values = "scores", (dict(zip(dataset.concepts, row.tolist())) for row in dataset.scores)
    path = Path(path)
    written = dropped = 0
    with path.open("w", encoding="utf-8") as fh:
        for rid, value, label, labeled in zip(dataset.ids, values, targets, covered):
            if not labeled:
                dropped += 1
                continue
            fh.write(json.dumps({"id": rid, payload: value, target: label}, ensure_ascii=False) + "\n")
            written += 1
    return ExportReport(path=path, n_written=written, n_dropped_uncovered=dropped)


def load_training_set(path: str | Path, K: int) -> tuple[Dataset, np.ndarray]:
    """Read an exported training set for ``K`` classes with
    ``records.read_records``. Returns its rows plus their targets: an (n,)
    int array of hard labels in 0..K-1 or an (n, K) float array of
    posteriors."""
    return read_records(path, K, targets=True)


def _recipe(dims: int, concepts: tuple[str, ...] | None) -> str:
    return f"{dims} inputs" if concepts is None else f"the concepts {list(concepts)}"


def _layer_shapes(sizes: tuple) -> list[tuple[int, ...]]:
    """The shapes ``sizes`` pins: each weight matrix, then each bias."""
    if len(sizes) < 2 or not all(type(d) is int and d >= 1 for d in sizes):
        raise DistillError("sizes must list at least 2 positive integers")
    return [*zip(sizes, sizes[1:]), *((d,) for d in sizes[1:])]


@dataclass(frozen=True, eq=False)
class MLPModel:
    """A model pair (``model.json`` and ``model.bin``): a dims -> 32 -> 32
    -> K classifier, ReLU inside, softmax out. ``sizes`` pins the shapes of
    the float64 weights and biases, ``classes`` names the K outputs, and
    ``concepts`` the score inputs in order (None for hashed text of width
    ``sizes[0]``). The constructor checks every field, the concepts by the
    column rule of unique strings."""

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    classes: ClassSpace
    concepts: tuple[str, ...] | None

    def __post_init__(self):
        sizes = tuple(self.sizes)
        shapes = _layer_shapes(sizes)
        object.__setattr__(self, "sizes", sizes)
        n = len(sizes) - 1
        for name, expected in (("weights", shapes[:n]), ("biases", shapes[n:])):
            arrays = [np.asarray(a) for a in getattr(self, name)]
            got = [a.shape for a in arrays]
            if got != expected:
                raise DistillError(f"{name} have shapes {got}, expected {expected} from sizes")
            if not all(a.dtype.kind in "iuf" and np.isfinite(a).all() for a in arrays):
                raise DistillError(f"{name} must be finite numbers")
            object.__setattr__(self, name, [a.astype(float, copy=False) for a in arrays])
        if self.classes.K != sizes[-1]:
            raise DistillError(f"{self.classes.K} classes listed but the model has {sizes[-1]} outputs")
        if self.concepts is not None:
            concepts = unique_strings(self.concepts, "concepts")
            object.__setattr__(self, "concepts", concepts)
            if len(concepts) != sizes[0]:
                raise DistillError(f"{len(concepts)} concepts listed but the model takes {sizes[0]} inputs")

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

    def predict(self, X: Features | np.ndarray) -> np.ndarray:
        """Class indices, a block of a chunk of rows at a time. Features of
        another width or concept list than the model's are refused."""
        X = _as_features(X)
        if (X.dims, X.concepts) != (self.sizes[0], self.concepts):
            raise DistillError(
                f"the model takes {_recipe(self.sizes[0], self.concepts)}, "
                f"but the features have {_recipe(X.dims, X.concepts)}"
            )
        preds = np.empty(len(X), dtype=np.int64)
        for rows in _chunks(X):
            preds[rows] = np.argmax(self.forward(*X.block(rows))[0], axis=1)
        return preds


def init_mlp(dims: int, classes: ClassSpace, seed: int) -> MLPModel:
    """He-initialized hidden layers of a model of hashed text; the output
    layer starts at zero so the initial softmax is uniform and the
    starting loss is exactly ln K. Same seed, same bits."""
    rng = np.random.default_rng(seed)
    sizes = (dims, *HIDDEN, classes.K)
    weights, biases = [], []
    last = len(sizes) - 2
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        if layer == last:
            weights.append(np.zeros((fan_in, fan_out)))
        else:
            weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(sizes=sizes, weights=weights, biases=biases, classes=classes, concepts=None)


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


def _loss_and_predictions(model: MLPModel, X: Features, T: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean soft cross-entropy, from logits for stability, and
    ``predict`` over a whole feature set from one forward pass per chunk.
    The per-row loss terms are summed once."""
    terms = np.empty_like(T)
    preds = np.empty(len(X), dtype=np.int64)
    for rows in _chunks(X):
        probs, acts = model.forward(*X.block(rows))
        terms[rows] = T[rows] * _log_softmax(acts[-1])
        preds[rows] = np.argmax(probs, axis=1)
    return float(-np.sum(terms) / len(X)), preds


def gradients(
    model: MLPModel, X: np.ndarray, T: np.ndarray, cols=slice(None), out=None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of the mean cross-entropy for one batch. X
    holds the inputs to the first layer's rows ``cols`` (all of them by
    default), and the first layer's gradient covers those rows only: the
    gradient of any other row is zero. ``out``, a (weights, biases) pair
    of lists, names arrays to write the gradients into; a None entry, or
    no ``out``, gets a new array."""
    T = _as_soft(T, model.sizes[-1])
    probs, acts = model.forward(X, cols)
    B = len(X)
    delta = (probs - T) / B
    n = len(model.weights)
    grads_w, grads_b = ([None] * n, [None] * n) if out is None else (list(out[0]), list(out[1]))
    for layer in range(n - 1, -1, -1):
        grads_w[layer] = np.matmul(acts[layer].T, delta, out=grads_w[layer])
        grads_b[layer] = np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0)
    return grads_w, grads_b


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _adam_step(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, step_size) -> None:
    """Adam's update of ``p`` in place from its gradient ``g`` and moments
    ``m`` and ``v``, all of one shape: m = β1·m + (1 − β1)·g, v = β2·v +
    (1 − β2)·g², p −= step_size·m / (√v + ε), each operation rounded as
    the formula's own, so any shape, one flat buffer of many parameters
    included, gives the same bits per element. ``g`` is overwritten."""
    tmp = np.empty_like(g)
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1 - BETA1, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(v, BETA2, out=v)
    np.square(g, out=tmp)
    np.multiply(tmp, 1 - BETA2, out=tmp)
    np.add(v, tmp, out=v)
    np.sqrt(v, out=tmp)
    np.add(tmp, EPS, out=tmp)
    np.multiply(m, step_size, out=g)
    np.divide(g, tmp, out=g)
    np.subtract(p, g, out=p)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views into the 1-D ``flat`` of the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


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


# a diverging fit overflows on its way to a non-finite loss, which fails
# it below in plainer words than numpy's warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_mlp(
    X: Features | np.ndarray,
    targets: np.ndarray,
    classes: ClassSpace,
    hyper: Hyper = Hyper(),
    X_val: Features | np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[MLPModel, TrainMetrics]:
    """Adam on (soft) cross-entropy, lazy on the first layer, for a model
    of X's recipe. Deterministic: the seed fixes the initialization and
    every shuffle, so two runs agree bitwise.

    Each batch becomes a block of the columns its rows store; the first
    layer's forward pass, gradient and Adam step touch only those rows
    of it, and its other rows keep their weights and moments. So the
    first layer's moments exist only for the buckets X stores, one row
    each, while its weights stay full width: a row X never stores keeps
    its initial bits. Every other weight and bias is a view into one flat
    buffer, with its gradient and moments in three more, and one set of
    in-place operations steps them all. Passes over all rows take a
    block of a chunk of rows at a time, so X is never dense as a whole."""
    X = _as_features(X)
    if len(X) == 0:
        raise DistillError("training set is empty")
    T = _as_soft(targets, classes.K)
    hard = np.argmax(T, axis=1)
    # not np.unique, whose import of numpy.ma would cost every train run
    if (hard == hard[0]).all():
        logger.warning(
            "training data has a single class (%d); the model will be a constant predictor",
            int(hard[0]),
        )
    model = replace(init_mlp(X.dims, classes, hyper.seed), concepts=X.concepts)
    metrics = TrainMetrics(initial_loss=_loss_and_predictions(model, X, T)[0])
    rng = np.random.default_rng(hyper.seed + 1)
    # every other weight and bias, their gradients and moments: views
    # into flat buffers, so one Adam step covers them all
    n = len(model.weights)
    rest = model.weights[1:] + model.biases
    shapes = [a.shape for a in rest]
    params = np.concatenate([a.ravel() for a in rest])
    grads, m, v = np.zeros((3, len(params)))
    views = _views(params, shapes)
    model.weights[1:], model.biases[:] = views[: n - 1], views[n - 1 :]
    grad_views = _views(grads, shapes)
    out = ([None, *grad_views[: n - 1]], grad_views[n - 1 :])
    # lazy Adam writes only the first-layer rows of buckets X stores:
    # their moments, in the order of the sorted buckets ``stored``
    seen = np.zeros(X.dims, dtype=bool)
    seen[X.indices] = True
    stored = np.flatnonzero(seen)
    m_first, v_first = np.zeros((2, len(stored), model.sizes[1]))
    first = model.weights[0]
    step = 0
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(len(X))
        for start in range(0, len(X), hyper.batch):
            batch = order[start : start + hyper.batch]
            block, cols = X.block(batch)
            grad_first = gradients(model, block, T[batch], cols, out)[0][0]
            step += 1
            correction = np.sqrt(1 - BETA2**step) / (1 - BETA1**step)
            step_size = hyper.lr * correction
            _adam_step(params, m, v, grads, step_size)
            slots = np.searchsorted(stored, cols)
            rows, m_rows, v_rows = first[cols], m_first[slots], v_first[slots]
            _adam_step(rows, m_rows, v_rows, grad_first, step_size)
            first[cols], m_first[slots], v_first[slots] = rows, m_rows, v_rows
        loss, preds = _loss_and_predictions(model, X, T)
        if not math.isfinite(loss):
            raise DistillError(f"training diverged: the loss after epoch {epoch} is {loss}; lower --lr")
        metrics.train_loss.append(loss)
        metrics.train_accuracy.append(float((preds == hard).mean()))
        if X_val is not None and y_val is not None:
            metrics.val_accuracy.append(float((model.predict(X_val) == np.asarray(y_val)).mean()))
    return model, metrics


def weights_path(path: str | Path) -> Path:
    """The ``.bin`` beside the model file ``path`` that holds its arrays. A
    model file that itself ends in ``.bin`` is refused: its arrays would
    overwrite it."""
    path = Path(path)
    if path.suffix == ".bin":
        raise DistillError(f"{path}: a model file cannot end in .bin, the suffix of its weights file")
    return path.with_suffix(".bin")


def save_model(path: str | Path, model: MLPModel) -> Path:
    """Write ``model`` as a model pair: ``sizes``, ``classes`` and (for a
    score model) ``concepts`` to ``path``, and each weight matrix, then
    each bias, to ``weights_path(path)`` in ``data.write_array``'s layout."""
    doc = {"sizes": list(model.sizes), "classes": list(model.classes.names)}
    if model.concepts is not None:
        doc["concepts"] = list(model.concepts)
    path, bin_path = Path(path), weights_path(path)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    write_array(bin_path, model.weights + model.biases)
    return path


def load_model(path: str | Path) -> MLPModel:
    """The model pair ``save_model`` wrote, its arrays read-only. A fault of
    the JSON file names ``path``, and a fault of the arrays the ``.bin``."""
    path, bin_path = Path(path), weights_path(path)
    sizes, classes, concepts = read_json(path, _model_fields)
    n = len(sizes) - 1
    arrays = read_array(bin_path, _layer_shapes(sizes), path)
    try:
        return MLPModel(sizes, arrays[:n], arrays[n:], classes, concepts)
    except DistillError as exc:  # read_array checked the arrays, so the JSON is at fault
        raise DistillError(f"{path}: {exc}") from None


def _model_fields(doc) -> tuple:
    classes = ClassSpace(tuple(json_field(doc, "classes", list)))
    unknown = sorted(set(doc) - {"sizes", "classes", "concepts"})
    if unknown:
        raise DistillError(f"unknown field {unknown[0]!r}")
    sizes = tuple(json_field(doc, "sizes", list))
    _layer_shapes(sizes)
    concepts = json_field(doc, "concepts", list, type(None), default=None)
    return sizes, classes, None if concepts is None else unique_strings(concepts, "concepts")
