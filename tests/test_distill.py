import json
import logging
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    class_space,
    cross_entropy,
    dense,
    gradient_check,
    reference_block_train_mlp,
    reference_featurize,
    reference_train_mlp,
)
from labelsmith.data import ClassSpace, DatasetError, Pseudolabels, Record, RowError
from labelsmith.synth import make_spam_corpus
from labelsmith.distill import (
    CHUNK_ENTRIES,
    TOKEN_RE,
    DistillError,
    Features,
    Hyper,
    _hash_token,
    export_training_set,
    featurize,
    gradients,
    init_mlp,
    load_model,
    load_training_set,
    save_model,
    train_mlp,
    weights_path,
)
from labelsmith.records import Dataset


def blob_data(n=500, seed=0):
    """Two well-separated gaussian blobs; linearly separable in practice."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(half, 2)),
            rng.normal(loc=(2.0, 2.0), scale=0.5, size=(n - half, 2)),
        ]
    )
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return X[order], y[order]


def xor_data(seed=0):
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    X = np.repeat(corners, 100, axis=0) + rng.normal(scale=0.05, size=(400, 2))
    y = np.repeat(labels, 100)
    return X, y


class TestFeaturize:
    def test_hashed_features_unit_norm_and_deterministic(self):
        records = [Record(id="a", text="Win cash now win"), Record(id="b", text="see you")]
        X1 = dense(featurize(Dataset.from_records(records), 64))
        X2 = dense(featurize(Dataset.from_records(records), 64))
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_allclose(np.linalg.norm(X1, axis=1), [1.0, 1.0])

    def test_hash_layout_is_pinned(self):
        # saved text models depend on this exact layout: blake2b keyed
        # with eight zero bytes over lowercased word tokens; bucket
        # 14 holds "win" twice plus one colliding token
        record = Record(id="a", text="Win a FREE prize now, don't wait! Win twice.")
        X = dense(featurize(Dataset.from_records([record]), 16))
        u = 0.2581988897471611
        expected = [0, u, 0, 0, -u, u, 0, 0, -u, u, 0, 0, 0, 0, 0.7745966692414834, -u]
        np.testing.assert_array_equal(X, [expected])

    @given(st.text(st.characters(max_codepoint=127)))
    @example("don't_stop A-1 it''s x_y_z")
    def test_ascii_tokens_are_the_ascii_pattern(self, text):
        text = text.lower()
        assert TOKEN_RE.findall(text) == re.findall(r"[a-z0-9']+", text)

    def test_non_ascii_words_hash_whole(self):
        X = featurize(Dataset.from_records([Record(id="a", text="Élève naïve, снег 雪")]), 4096)
        hashes = [_hash_token(w) for w in ("élève", "naïve", "снег", "雪")]
        assert sorted(X.indices.tolist()) == sorted(h % 4096 for h in hashes)
        signs = {h % 4096: -1.0 if h >> 63 else 1.0 for h in hashes}
        assert X.values.tolist() == [signs[b] / 2 for b in X.indices.tolist()]

    def test_lowercase_folding(self):
        upper = dense(featurize(Dataset.from_records([Record(id="a", text="WIN CASH")]), 64))
        lower = dense(featurize(Dataset.from_records([Record(id="a", text="win cash")]), 64))
        np.testing.assert_array_equal(upper, lower)

    def test_scores_mode_uses_concept_order(self):
        records = [Record(id="a", scores={"b": 0.2, "a": 0.9})]
        dataset = Dataset.from_records(records)
        X = featurize(dataset, 2, concepts=["a", "b"])
        np.testing.assert_array_equal(dense(X), [[0.9, 0.2]])
        X_reversed = featurize(dataset, 2, concepts=["b", "a"])
        np.testing.assert_array_equal(dense(X_reversed), [[0.2, 0.9]])

    def test_scores_mode_missing_concept(self):
        records = [Record(id="a", scores={"a": 0.9})]
        with pytest.raises(DistillError, match="'b'"):
            featurize(Dataset.from_records(records), 2, concepts=["a", "b"])

    def test_scores_width_must_match_concepts(self):
        with pytest.raises(DistillError, match="2 concepts but 3"):
            featurize(Dataset.from_records([Record(id="a", scores={"a": 0.9, "b": 0.1})]), 3, concepts=["a", "b"])

    def test_modality_mismatch(self):
        with pytest.raises(DistillError, match="text"):
            featurize(Dataset.from_records([Record(id="a", scores={"c": 1.0})]), 64)
        with pytest.raises(DistillError, match="no scores"):
            featurize(Dataset.from_records([Record(id="a", text="hi")]), 1, concepts=["c"])


# a few words, so texts repeat tokens and small dims collide them, plus
# non-ASCII words, and punctuation the token pattern drops
_WORDS = ["win", "cash", "now", "free", "see", "you", "don't", "café", "naïve", "日本", "über", "x1"]
_TEXTS = st.lists(
    st.lists(st.sampled_from(_WORDS + ["", " ", "!", "\n", "ÉCLAIR", "Σσς"]), max_size=12).map(" ".join),
    min_size=1,
    max_size=6,
)


# rows in one chunk of a whole-set pass at 4096 dims
_ROWS_4096 = CHUNK_ENTRIES // 4096


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


class TestRowCompressed:
    """The row-compressed features densify to the dense reference matrix
    bit for bit, and training on them matches dense training bitwise."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(texts=_TEXTS, dims=st.one_of(st.integers(1, 64), st.sampled_from([1024, 4096, 65536])))
    @example(texts=["", "!!", "日本"], dims=16)
    @example(texts=["win win win cash", "now now"], dims=2)
    def test_hashed_rows_densify_to_reference(self, texts, dims):
        records = [Record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        X = featurize(Dataset.from_records(records), dims)
        expected = reference_featurize(records, dims)
        assert X.dims == dims and len(X) == len(records)
        assert _bits(dense(X)) == _bits(expected)
        picks = np.arange(len(records))[::-1]
        assert _bits(dense(X.take(picks))) == _bits(expected[picks])
        assert _bits(dense(X, picks[:1])) == _bits(expected[picks[:1]])

    def test_cancelling_signs_store_nothing(self):
        # two tokens that share a bucket with opposite signs cancel to 0,
        # which the row does not store
        bucket_sign = {w: (_hash_token(w) % 2, _hash_token(w) >> 63) for w in ["a", "b", "c", "d", "e", "f"]}
        pair = next(
            (a, b)
            for a in bucket_sign
            for b in bucket_sign
            if bucket_sign[a][0] == bucket_sign[b][0] and bucket_sign[a][1] != bucket_sign[b][1]
        )
        records = [Record(id="r", text=" ".join(pair)), Record(id="s", text=pair[0])]
        X = featurize(Dataset.from_records(records), 2)
        assert X.indptr.tolist() == [0, 0, 1]
        assert _bits(dense(X)) == _bits(reference_featurize(records, 2))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        scores=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @example(scores=[[0.0, -0.0, 1.0]])
    def test_score_rows_densify_to_reference(self, scores):
        records = [Record(id=f"r{i}", scores=dict(zip("abc", row))) for i, row in enumerate(scores)]
        X = featurize(Dataset.from_records(records), 3, concepts=["c", "a", "b"])
        assert _bits(dense(X)) == _bits(reference_featurize(records, 3, concepts=["c", "a", "b"]))

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        texts=_TEXTS,
        dims=st.one_of(st.integers(1, 64), st.sampled_from([4096, 65536])),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    )
    @example(texts=["", "!!"], dims=16, picks=[0, 1])  # no stored column: a (2, 0) block
    def test_block_holds_the_stored_columns(self, texts, dims, picks):
        records = [Record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        X = featurize(Dataset.from_records(records), dims)
        picks = np.array(picks) % len(records)
        block, cols = X.block(picks)
        rows = dense(X, picks)
        assert cols.tolist() == sorted(set(X.take(picks).indices.tolist()))
        assert block.shape == (len(picks), len(cols))
        assert _bits(block) == _bits(rows[:, cols])
        rest = np.ones(dims, dtype=bool)
        rest[cols] = False
        assert not rows[:, rest].any()

    @settings(derandomize=True, database=None, max_examples=16, deadline=None)
    @given(
        kind=st.sampled_from(["scores", "dense", "text1", "text2"]),
        n=st.integers(1, 3 * _ROWS_4096),
        val=st.booleans(),
        seed=st.integers(0, 3),
    )
    @example(kind="text1", n=2 * _ROWS_4096 + 1, val=True, seed=0)  # a 1-row last batch
    @example(kind="text2", n=2 * _ROWS_4096, val=False, seed=1)
    @example(kind="scores", n=_ROWS_4096 // 2, val=True, seed=2)
    @example(kind="dense", n=1, val=False, seed=3)
    def test_full_coverage_training_matches_dense_reference_bitwise(self, kind, n, val, seed):
        # every row stores every column, so every batch and chunk does:
        # the block is the dense batch, and lazy Adam is plain Adam
        rng = np.random.default_rng(seed)
        if kind == "scores":
            records = [Record(id=f"r{i}", scores=dict(zip("abc", rng.normal(size=3)))) for i in range(n + 40)]
            X = featurize(Dataset.from_records(records), 3, concepts=["c", "a", "b"])
            X_dense = reference_featurize(records, 3, concepts=["c", "a", "b"])
            y = rng.integers(0, 2, size=n + 40)
        elif kind == "dense":
            X_dense = rng.normal(size=(n + 40, 5))
            X, y = X_dense, rng.integers(0, 2, size=n + 40)
        else:
            dims = int(kind[-1])
            records, _ = make_spam_corpus(2 * (n + 40), seed=seed)
            stores_all = np.diff(featurize(Dataset.from_records(records), dims).indptr) == dims
            records = [r for r, full in zip(records, stores_all) if full][: n + 40]
            assert len(records) == n + 40
            X, X_dense = featurize(Dataset.from_records(records), dims), reference_featurize(records, dims)
            y = np.array([r.gold for r in records])
        train, held = np.arange(n), np.arange(n, n + 40)
        part = (lambda rows: X.take(rows)) if isinstance(X, Features) else (lambda rows: X[rows])
        hyper, cs = Hyper(epochs=2, batch=32, seed=seed), class_space(2)
        got = train_mlp(part(train), y[train], cs, hyper, *((part(held), y[held]) if val else ()))
        want = reference_train_mlp(X_dense[train], y[train], cs, hyper, *((X_dense[held], y[held]) if val else ()))
        for a, b in zip(got[0].weights + got[0].biases, want[0].weights + want[0].biases):
            assert _bits(a) == _bits(b)
        assert got[1] == want[1]
        assert len(got[1].val_accuracy) == (2 if val else 0)

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 3 * _ROWS_4096),
        dims=st.sampled_from([64, 4096, 8192]),
        val=st.booleans(),
        seed=st.integers(0, 3),
    )
    @example(n=2 * _ROWS_4096 + 44, dims=4096, val=True, seed=0)  # not a multiple of the chunk
    @example(n=2 * _ROWS_4096, dims=4096, val=False, seed=1)  # a multiple of it
    @example(n=_ROWS_4096 // 2, dims=4096, val=True, seed=2)  # shorter than one chunk
    @example(n=1, dims=4096, val=False, seed=3)
    def test_hashed_training_matches_lazy_adam_reference(self, n, dims, val, seed):
        records, _ = make_spam_corpus(n + 40, seed=seed)
        y = np.array([r.gold for r in records])
        X, dense = featurize(Dataset.from_records(records), dims), reference_featurize(records, dims)
        held = np.arange(n, n + 40) if val else None
        self._assert_matches_lazy_reference(X, dense, y, np.arange(n), held, seed)

    @pytest.mark.parametrize(
        "texts, dims, batch",
        [
            (["", "!!", "...", " "] * 10, 64, 8),  # every row featureless: (8, 0) blocks
            (["win cash now", "see you at home", "free prize", "call me"] * 10, 64, 1),  # 1-row batches
            (["win cash now", "see you at home", "free prize", "call me"] * 10, 1, 8),
        ],
        ids=["featureless", "one-row-batches", "dims-1"],
    )
    def test_edge_batches_match_lazy_adam_reference(self, texts, dims, batch):
        records = [Record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        y = np.arange(len(texts)) % 2
        X, dense = featurize(Dataset.from_records(records), dims), reference_featurize(records, dims)
        got = self._assert_matches_lazy_reference(X, dense, y, np.arange(30), np.arange(30, 40), 5, batch)
        if not dense.any():
            assert X.block(np.arange(3))[0].shape == (3, 0)
            assert _bits(got.weights[0]) == _bits(init_mlp(dims, class_space(2), 5).weights[0])

    # weights and losses of block training agree with the dense lazy-Adam
    # reference to this relative tolerance: the block product sums over
    # the touched columns only, and BLAS rounds a shorter inner dimension
    # differently (the dropped terms are exact zeros)
    LAZY_RTOL = 1e-9

    def _assert_matches_lazy_reference(self, X, dense, y, train, held, seed, batch=32):
        hyper = Hyper(epochs=2, batch=batch, seed=seed)
        val = (X.take(held), y[held]) if held is not None else ()
        got = train_mlp(X.take(train), y[train], class_space(2), hyper, *val)
        val = (dense[held], y[held]) if held is not None else ()
        want = reference_train_mlp(dense[train], y[train], class_space(2), hyper, *val, lazy=True)
        for a, b in zip(got[0].weights + got[0].biases, want[0].weights + want[0].biases):
            np.testing.assert_allclose(a, b, rtol=self.LAZY_RTOL, atol=1e-300)
        np.testing.assert_allclose(got[1].train_loss, want[1].train_loss, rtol=self.LAZY_RTOL)
        assert got[1].initial_loss == pytest.approx(want[1].initial_loss, rel=self.LAZY_RTOL)
        assert got[1].train_accuracy == want[1].train_accuracy
        assert got[1].val_accuracy == want[1].val_accuracy
        np.testing.assert_array_equal(got[0].predict(X), np.argmax(got[0].forward(dense)[0], axis=1))
        np.testing.assert_array_equal(got[0].predict(X), np.argmax(want[0].forward(dense)[0], axis=1))
        return got[0]

    def test_from_dense_round_trips_bits(self):
        X = np.array([[0.0, -0.0, 2.5], [1e-300, -7.0, 0.0]])
        F = Features.from_dense(X)
        assert F.nbytes == F.indptr.nbytes + F.indices.nbytes + F.values.nbytes
        assert _bits(dense(F)) == _bits(X)
        with pytest.raises(DistillError, match="2-D"):
            Features.from_dense(np.zeros(3))

    def test_memory_stays_below_one_dense_matrix(self):
        # 400 records at 65536 dims: a dense float64 matrix alone is
        # 200 MiB; featurize, one epoch and predict stay under 1.5 times
        # the (65536, 32) first layer, which is 16 MiB. Its gradient and
        # Adam moments cover the buckets the records store, not every row
        n, dims = 400, 65536
        records, _ = make_spam_corpus(n, seed=4)
        y = np.array([r.gold for r in records])
        first_layer = dims * 32 * 8
        budget = first_layer * 3 // 2
        assert n * dims * 8 > 8 * budget
        tracemalloc.start()
        try:
            X = featurize(Dataset.from_records(records), dims)
            model, _ = train_mlp(X, y, class_space(2), Hyper(epochs=1, seed=0))
            model.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.weights[0].nbytes == first_layer
        assert peak < budget


class TestFlatAdam:
    """``train_mlp`` keeps first-layer Adam moments for the buckets the
    training rows store and steps every other weight and bias in flat
    buffers; it gives the bits of the block loop that keeps full-width
    moments per array, weights, biases and metrics alike."""

    @staticmethod
    def _assert_same_bits(got, want):
        for a, b in zip(got[0].weights + got[0].biases, want[0].weights + want[0].biases):
            assert a.shape == b.shape and _bits(a) == _bits(b)
        for name in ("initial_loss", "train_loss", "train_accuracy", "val_accuracy"):
            assert _bits(getattr(got[1], name)) == _bits(getattr(want[1], name)), name

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["text", "scores", "featureless"]),
        n=st.integers(1, 90),
        dims=st.sampled_from([1, 2, 64, 4096, 65536]),
        batch=st.sampled_from([1, 5, 32]),
        K=st.integers(2, 3),
        soft=st.booleans(),
        val=st.booleans(),
        seed=st.integers(0, 3),
    )
    @example(kind="text", n=60, dims=4096, batch=32, K=2, soft=False, val=True, seed=0)
    @example(kind="text", n=70, dims=65536, batch=5, K=3, soft=True, val=True, seed=1)
    @example(kind="featureless", n=12, dims=64, batch=8, K=2, soft=False, val=True, seed=1)
    @example(kind="text", n=40, dims=64, batch=1, K=2, soft=True, val=False, seed=2)  # one-row batches
    @example(kind="text", n=33, dims=1, batch=8, K=2, soft=False, val=True, seed=3)
    @example(kind="scores", n=50, dims=3, batch=32, K=3, soft=True, val=True, seed=0)
    def test_matches_the_block_reference_bitwise(self, kind, n, dims, batch, K, soft, val, seed):
        rng = np.random.default_rng(seed)
        if kind == "scores":
            records = [Record(id=f"r{i}", scores=dict(zip("abc", rng.normal(size=3)))) for i in range(n + 20)]
            X = featurize(Dataset.from_records(records), 3, concepts=["c", "a", "b"])
        else:
            records, _ = make_spam_corpus(n + 20, seed=seed)
            if kind == "featureless":
                records = [replace(r, text="!! ...") for r in records]
            X = featurize(Dataset.from_records(records), dims)
        targets = rng.dirichlet(np.ones(K), size=n + 20) if soft else rng.integers(0, K, size=n + 20)
        train, held = np.arange(n), np.arange(n, n + 20)
        X_train = X.take(train)
        args = (X_train, targets[train], class_space(K), Hyper(epochs=2, batch=batch, seed=seed))
        if val:
            args += (X.take(held), np.argmax(targets[held], axis=1) if soft else targets[held])
        got = train_mlp(*args)
        self._assert_same_bits(got, reference_block_train_mlp(*args))
        unstored = np.setdiff1d(np.arange(X.dims), X_train.indices)
        if kind == "text" and dims >= 4096:
            assert 0 < len(unstored) < dims
        init = init_mlp(X.dims, class_space(K), seed).weights[0]
        assert _bits(got[0].weights[0][unstored]) == _bits(init[unstored])

    def test_validation_only_buckets_keep_their_init_bits(self):
        train_texts = ["win cash now", "see you at home", "free prize", "call me later"] * 5
        val_texts = ["zebra quartz", "xylophone marmalade"]
        records = [Record(id=f"r{i}", text=t) for i, t in enumerate(train_texts + val_texts)]
        X = featurize(Dataset.from_records(records), 4096)
        y = np.arange(len(records)) % 2
        train, held = np.arange(20), np.arange(20, 22)
        args = (X.take(train), y[train], class_space(2), Hyper(epochs=3, batch=4, seed=7), X.take(held), y[held])
        got = train_mlp(*args)
        self._assert_same_bits(got, reference_block_train_mlp(*args))
        val_only = np.setdiff1d(X.take(held).indices, X.take(train).indices)
        assert len(val_only) == 4
        init = init_mlp(4096, class_space(2), 7).weights[0]
        assert _bits(got[0].weights[0][val_only]) == _bits(init[val_only])
        touched = np.unique(X.take(train).indices)
        assert (got[0].weights[0][touched] != init[touched]).any(axis=1).all()


class TestExport:
    def _labels(self, rows, K=2):
        """Pseudolabels from (record id, hard label, covered) rows: one-hot
        posteriors, uniform where uncovered."""
        posterior = np.full((len(rows), K), 1.0 / K)
        for i, (_, hard, covered) in enumerate(rows):
            if covered:
                posterior[i] = np.eye(K)[hard]
        covered = np.array([r[2] for r in rows], dtype=bool)
        return Pseudolabels(tuple(r[0] for r in rows), posterior, covered)

    def test_drops_uncovered_and_reports(self, tmp_path):
        records = [Record(id=f"r{i}", text=f"t{i}") for i in range(10)]
        labels = self._labels([(f"r{i}", i % 2, i not in (3, 7)) for i in range(10)])
        report = export_training_set(Dataset.from_records(records), labels, tmp_path / "train.jsonl")
        assert report.n_written == 8
        assert report.n_dropped_uncovered == 2
        loaded, targets = load_training_set(tmp_path / "train.jsonl", 2)
        assert len(loaded) == 8
        assert targets.dtype == np.int64
        assert loaded.ids == tuple(f"r{i}" for i in range(10) if i not in (3, 7))

    def test_probabilistic_round_trip(self, tmp_path):
        records = [Record(id="a", text="x"), Record(id="b", text="y")]
        labels = Pseudolabels(("a", "b"), [[0.75, 0.25], [0.1, 0.9]], [True, True])
        export_training_set(Dataset.from_records(records), labels, tmp_path / "t.jsonl", use_probabilistic=True)
        loaded, targets = load_training_set(tmp_path / "t.jsonl", 2)
        assert targets.shape == (2, 2)
        np.testing.assert_allclose(targets.sum(axis=1), [1.0, 1.0])
        np.testing.assert_allclose(targets[0], [0.75, 0.25])

    def test_hard_label_round_trip_identity(self, tmp_path):
        records = [Record(id="a", text="x")]
        labels = self._labels([("a", 1, True)])
        export_training_set(Dataset.from_records(records), labels, tmp_path / "t.jsonl")
        _, targets = load_training_set(tmp_path / "t.jsonl", 2)
        assert targets.tolist() == [1]

    def test_id_mismatches(self, tmp_path):
        records = [Record(id="a", text="x")]
        with pytest.raises(DistillError, match="'a'"):
            export_training_set(Dataset.from_records(records), self._labels([]), tmp_path / "t.jsonl")
        labels = self._labels([("a", 0, True), ("ghost", 0, True)])
        with pytest.raises(DistillError, match="'ghost'"):
            export_training_set(Dataset.from_records(records), labels, tmp_path / "t.jsonl")

    def test_mixed_label_kinds_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "text": "x", "label": 0}\n{"id": "b", "text": "y", "posterior": [0.5, 0.5]}\n')
        with pytest.raises(Exception, match="[Mm]ix"):
            load_training_set(path, 2)


class TestInitialization:
    def test_initial_loss_is_ln_k(self):
        rng = np.random.default_rng(0)
        for K in (2, 3, 5):
            model = init_mlp(16, class_space(K), seed=0)
            X = rng.normal(size=(40, 16))
            y = rng.integers(0, K, size=40)
            assert cross_entropy(model, X, y) == pytest.approx(math.log(K), abs=1e-12)

    def test_architecture_is_two_by_32(self):
        model = init_mlp(100, class_space(3), seed=0)
        assert tuple(model.sizes) == (100, 32, 32, 3)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(100, 32), (32, 32), (32, 3)]

    def test_hidden_layers_nonzero(self):
        model = init_mlp(10, class_space(2), seed=0)
        assert np.abs(model.weights[0]).sum() > 0
        assert np.abs(model.weights[-1]).sum() == 0


class TestGradients:
    def test_gradient_check_fresh_model(self):
        rng = np.random.default_rng(1)
        model = init_mlp(12, class_space(3), seed=1)
        X = rng.normal(size=(16, 12))
        y = rng.integers(0, 3, size=16)
        assert gradient_check(model, X, y) <= 1e-4

    def test_gradient_check_trained_model(self):
        X, y = blob_data(120, seed=2)
        model, _ = train_mlp(X, y, class_space(2), Hyper(epochs=5, seed=2))
        assert gradient_check(model, X[:32], y[:32]) <= 1e-4

    def test_error_shrinks_with_h(self):
        # Central differences: truncation error O(h^2) dominates at h=1e-3,
        # so shrinking h to 1e-5 must shrink the error.  Tiny perturbations
        # would land on a near-quadratic region where h=1e-3 is already at
        # the roundoff floor, hence the 0.2 scale on weights and biases.
        rng = np.random.default_rng(3)
        model = init_mlp(8, class_space(2), seed=3)
        for w in model.weights:
            w += rng.normal(scale=0.2, size=w.shape)
        for b in model.biases:
            b += rng.normal(scale=0.2, size=b.shape)
        X = rng.normal(size=(8, 8))
        y = rng.integers(0, 2, size=8)
        coarse = gradient_check(model, X, y, h=1e-3)
        fine = gradient_check(model, X, y, h=1e-5)
        assert fine <= coarse

    def test_block_gradient_is_dense_gradient_on_touched_rows(self):
        records, _ = make_spam_corpus(72, seed=6)
        y = np.array([r.gold for r in records])
        X = featurize(Dataset.from_records(records), 4096)
        # trained, so the zero-initialized output layer passes a gradient back
        model, _ = train_mlp(X.take(np.arange(40)), y[:40], class_space(2), Hyper(epochs=2, seed=6))
        batch = np.arange(40, 72)
        block, cols = X.block(batch)
        got_w, got_b = gradients(model, block, y[batch], cols)
        want_w, want_b = gradients(model, dense(X, batch), y[batch])
        untouched = np.ones(4096, dtype=bool)
        untouched[cols] = False
        assert untouched.any() and (want_w[0][untouched] == 0).all()
        assert got_w[0].shape == (len(cols), 32)
        for a, b in zip(got_w + got_b, [want_w[0][cols]] + want_w[1:] + want_b):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-300)
        # the block is a dense batch for the model whose first layer is
        # the rows cols, so the finite-difference check applies to it
        first = model.weights[0][cols]
        sub = replace(model, sizes=(len(cols), *model.sizes[1:]), weights=[first] + model.weights[1:])
        assert gradient_check(sub, block, y[batch]) <= 1e-4

    def test_zero_input_batch_finite(self):
        model = init_mlp(6, class_space(2), seed=4)
        X = np.zeros((4, 6))
        y = np.array([0, 1, 0, 1])
        grads_w, grads_b = gradients(model, X, y)
        assert all(np.isfinite(g).all() for g in grads_w)
        assert all(np.isfinite(g).all() for g in grads_b)


class TestTraining:
    def test_blobs_reach_95_validation_within_50_epochs(self):
        X, y = blob_data(500, seed=5)
        X_val, y_val = blob_data(200, seed=6)
        _, metrics = train_mlp(X, y, class_space(2), Hyper(epochs=50, seed=5), X_val=X_val, y_val=y_val)
        assert max(metrics.val_accuracy) >= 0.95

    def test_xor_needs_the_hidden_layers(self):
        X, y = xor_data(seed=7)
        model, metrics = train_mlp(X, y, class_space(2), Hyper(epochs=100, seed=7))
        assert metrics.train_accuracy[-1] >= 0.95

    def test_seed_determinism_bitwise(self):
        X, y = blob_data(200, seed=8)
        m1, met1 = train_mlp(X, y, class_space(2), Hyper(epochs=10, seed=8))
        m2, met2 = train_mlp(X, y, class_space(2), Hyper(epochs=10, seed=8))
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            np.testing.assert_array_equal(b1, b2)
        assert met1.train_loss == met2.train_loss

    def test_different_seed_different_weights(self):
        X, y = blob_data(200, seed=8)
        m1, _ = train_mlp(X, y, class_space(2), Hyper(epochs=3, seed=1))
        m2, _ = train_mlp(X, y, class_space(2), Hyper(epochs=3, seed=2))
        assert any(not np.array_equal(w1, w2) for w1, w2 in zip(m1.weights, m2.weights))

    def test_soft_onehot_equals_hard(self):
        X, y = blob_data(120, seed=9)
        onehot = np.eye(2)[y]
        m_hard, met_hard = train_mlp(X, y, class_space(2), Hyper(epochs=5, seed=9))
        m_soft, met_soft = train_mlp(X, onehot, class_space(2), Hyper(epochs=5, seed=9))
        assert met_hard.train_loss == met_soft.train_loss
        for w1, w2 in zip(m_hard.weights, m_soft.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_single_class_warns_and_trains_constant(self, caplog):
        X = np.random.default_rng(10).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        with caplog.at_level(logging.WARNING, logger="labelsmith.distill"):
            model, _ = train_mlp(X, y, class_space(2), Hyper(epochs=5, seed=10))
        assert any("single class" in r.message for r in caplog.records)
        assert (model.predict(X) == 0).all()

    def test_empty_training_set_rejected(self):
        with pytest.raises(DistillError, match="empty"):
            train_mlp(np.empty((0, 4)), np.empty(0), class_space(2))

    def test_diverged_fit_raises(self):
        X, y = xor_data(seed=7)
        with pytest.raises(DistillError, match="loss after epoch 1 is nan; lower --lr"):
            train_mlp(X, y, class_space(2), Hyper(epochs=2, lr=1e300, seed=7))

    def test_initial_loss_recorded_before_any_step(self):
        X, y = blob_data(100, seed=11)
        _, metrics = train_mlp(X, y, class_space(2), Hyper(epochs=1, seed=11))
        assert metrics.initial_loss == pytest.approx(math.log(2), abs=1e-12)
        assert metrics.train_loss[0] < metrics.initial_loss


class TestModelIO:
    def test_model_json_round_trip(self, tmp_path):
        X, y = blob_data(100, seed=12)
        model, _ = train_mlp(X, y, ClassSpace(("spam", "ham")), Hyper(epochs=3, seed=12))
        save_model(tmp_path / "model.json", model)
        loaded = load_model(tmp_path / "model.json")
        for w1, w2 in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(w1, w2)
        assert loaded.sizes == model.sizes
        assert loaded.classes.names == ("spam", "ham")
        assert loaded.concepts is None
        np.testing.assert_array_equal(model.predict(X), loaded.predict(X))

    def test_model_pair_layout(self, tmp_path):
        """model.json holds the sizes, classes and concepts; model.bin each
        weight matrix, then each bias, as little-endian doubles."""
        model = init_mlp(3, ClassSpace(("a", "b", "c")), seed=4)
        model = replace(model, concepts=("x", "y", "z"))
        save_model(tmp_path / "model.json", model)
        assert json.loads((tmp_path / "model.json").read_text(encoding="utf-8")) == {
            "sizes": [3, 32, 32, 3], "classes": ["a", "b", "c"], "concepts": ["x", "y", "z"]
        }
        packed = b"".join(a.astype("<f8").tobytes() for a in model.weights + model.biases)
        assert (tmp_path / "model.bin").read_bytes() == packed
        loaded = load_model(tmp_path / "model.json")
        assert not any(a.flags.writeable for a in loaded.weights + loaded.biases)

    def test_model_without_spec(self, tmp_path):
        # a model file names its classes; weights alone are refused
        model = init_mlp(4, class_space(2), seed=0)
        save_model(tmp_path / "full.json", model)
        doc = json.loads((tmp_path / "full.json").read_text(encoding="utf-8"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sizes": doc["sizes"]}), encoding="utf-8")
        (tmp_path / "full.bin").rename(tmp_path / "m.bin")
        with pytest.raises(DatasetError, match=r"m\.json: missing field 'classes'"):
            load_model(path)

    def test_model_file_ending_in_bin_refused(self, tmp_path):
        # its weights file would be the model file itself
        path = tmp_path / "m.bin"
        with pytest.raises(DistillError, match=r"m\.bin: a model file cannot end in \.bin"):
            save_model(path, init_mlp(4, class_space(2), seed=0))
        assert not path.exists()
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(DistillError, match=r"m\.bin: a model file cannot end in \.bin"):
            load_model(path)

    def test_metrics_csv(self, tmp_path):
        X, y = blob_data(80, seed=13)
        X_val, y_val = blob_data(40, seed=14)
        _, metrics = train_mlp(X, y, class_space(2), Hyper(epochs=3, seed=13), X_val=X_val, y_val=y_val)
        path = metrics.save_csv(tmp_path / "metrics.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_accuracy"
        assert len(lines) == 5  # header + epoch 0 + 3 epochs
        epoch0 = lines[1].split(",")
        assert epoch0[0] == "0" and float(epoch0[1]) == pytest.approx(math.log(2), abs=1e-9)

    def test_forward_probs_sum_to_one(self):
        model = init_mlp(5, class_space(3), seed=15)
        X = np.random.default_rng(15).normal(size=(10, 5))
        probs = model.forward(X)[0]
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-12)

    def test_constructor_validates(self):
        model = init_mlp(2, class_space(2), seed=0)
        with pytest.raises(DistillError, match="sizes must list"):
            replace(model, sizes=(2,))
        with pytest.raises(DistillError, match="weights have shapes"):
            replace(model, weights=model.weights[:2])
        with pytest.raises(DistillError, match="biases must be finite"):
            replace(model, biases=[np.full_like(b, np.nan) for b in model.biases])
        with pytest.raises(DistillError, match="3 classes listed but the model has 2 outputs"):
            replace(model, classes=class_space(3))
        with pytest.raises(DistillError, match="1 concepts listed but the model takes 2 inputs"):
            replace(model, concepts=("a",))
        with pytest.raises(RowError, match="^concepts entry 1 is 2, expected a string$"):
            replace(model, concepts=("a", 2))
        with pytest.raises(RowError, match="^concepts must be unique strings, but entry 1 repeats 'a'$"):
            replace(model, concepts=("a", "a"))


class TestPredictRefusesOtherRecipes:
    """A model predicts only on features built the way its training
    features were: the same width and the same concept list in order."""

    def test_hashed_width(self):
        dataset = Dataset.from_records(make_spam_corpus(20, seed=3)[0])
        model = init_mlp(1024, class_space(2), seed=0)
        with pytest.raises(DistillError, match=r"the model takes 1024 inputs, but the features have 64 inputs"):
            model.predict(featurize(dataset, 64))
        assert len(model.predict(featurize(dataset, 1024))) == 20

    def test_concept_order(self):
        records = [Record(id=f"r{i}", scores={"a": float(i % 2), "b": 1.0 - i % 2}) for i in range(40)]
        y = np.arange(40) % 2
        dataset = Dataset.from_records(records)
        model, _ = train_mlp(featurize(dataset, 2, ["a", "b"]), y, class_space(2), Hyper(epochs=30, seed=1))
        assert model.concepts == ("a", "b")
        assert (model.predict(featurize(dataset, 2, ["a", "b"])) == y).all()
        with pytest.raises(DistillError, match=r"\['a', 'b'\], but the features have the concepts \['b', 'a'\]"):
            model.predict(featurize(dataset, 2, ["b", "a"]))
        with pytest.raises(DistillError, match="but the features have 2 inputs"):
            model.predict(dense(featurize(dataset, 2, ["a", "b"])))


# names a JSON writer must escape: quotes, backslashes, control and
# non-ASCII characters
_NAMES = st.text(st.sampled_from(list('ab"\\\n\t\x00é日/')), min_size=1, max_size=6)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    classes=st.lists(_NAMES, min_size=2, max_size=5, unique=True),
    concepts=st.one_of(st.none(), st.lists(_NAMES, min_size=1, max_size=4)),
    dims=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_file_round_trips(tmp_path_factory, classes, concepts, dims, seed):
    model = init_mlp(len(concepts) if concepts else dims, ClassSpace(tuple(classes)), seed)
    rng = np.random.default_rng(seed)
    # every weight non-zero, with the full range of float64 exponents
    weights = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-300, 300, size=w.shape) for w in model.weights]
    biases = [rng.normal(size=b.shape) for b in model.biases]
    model = replace(model, weights=weights, biases=biases, concepts=concepts)
    path = tmp_path_factory.mktemp("model") / "model.json"
    saved = save_model(path, model).read_bytes()
    saved_weights = weights_path(path).read_bytes()
    loaded = load_model(path)
    assert loaded.sizes == model.sizes
    assert loaded.classes == model.classes
    assert loaded.concepts == (None if concepts is None else tuple(concepts))
    for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert a.dtype == b.dtype == np.float64
        assert _bits(a) == _bits(b)
    assert save_model(path, loaded).read_bytes() == saved
    assert weights_path(path).read_bytes() == saved_weights
