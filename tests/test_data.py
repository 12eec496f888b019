import json
import math
from dataclasses import fields

import numpy as np
import pytest
from helpers import class_space, reference_pseudolabel_bytes
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelsmith.cli import main
from labelsmith.data import (
    _PSEUDOLABEL_CHUNK,
    ABSTAIN,
    ClassSpace,
    DatasetError,
    Pseudolabels,
    Record,
    VoteMatrix,
    load_pseudolabels,
    load_votes,
    read_array,
    save_pseudolabels,
    save_votes,
    serialize_records,
    write_array,
)
from labelsmith.distill import export_training_set, load_training_set
from labelsmith.dsl import DslEvaluationError, parse_program
from labelsmith.records import Dataset, RowError, assemble_votes, load_dataset


class TestClassSpace:
    def test_k(self, k3_cs):
        assert k3_cs.K == 3

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            ClassSpace(("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ClassSpace(("a", "a"))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ClassSpace(("a", ""))

    def test_resolve_exact_and_casefold(self, spam_cs):
        assert spam_cs.resolve("spam") == 0
        assert spam_cs.resolve("Ham") == 1
        assert spam_cs.resolve("SPAM") == 0

    def test_resolve_underscores(self):
        cs = ClassSpace(("colon cancer", "lung cancer"))
        assert cs.resolve("colon_cancer") == 0
        assert cs.resolve("Lung_Cancer") == 1

    def test_resolve_unknown_is_none(self, spam_cs):
        assert spam_cs.resolve("eggs") is None


class TestRecord:
    def test_text_modality(self):
        assert Record(id="r", text="hi").modality == "text"

    def test_scores_modality(self):
        assert Record(id="r", scores={"c": 0.5}).modality == "scores"

    def test_requires_exactly_one_payload(self):
        with pytest.raises(ValueError):
            Record(id="r")
        with pytest.raises(ValueError):
            Record(id="r", text="hi", scores={"c": 0.5})

    @pytest.mark.parametrize(
        "record, doc",
        [
            (Record(id="r", text="hi"), {"id": "r", "text": "hi"}),
            (Record(id="r", text="hi", gold=1, group="g"), {"id": "r", "text": "hi", "gold": 1, "group": "g"}),
            (Record(id="r", scores={"c": 0.5}, gold=0), {"id": "r", "scores": {"c": 0.5}, "gold": 0}),
        ],
    )
    def test_to_dict_is_the_row_load_dataset_reads(self, tmp_path, record, doc):
        assert record.to_dict() == doc
        assert list(record.to_dict()) == list(doc)
        path = serialize_records([record], tmp_path / "d.jsonl")
        assert list(load_dataset(path, class_space(2)).rows()) == [record]


def _columns(dataset: Dataset) -> dict:
    """A dataset's fields, comparable with ``==``: the scores as their
    shape and bytes."""
    columns = {field.name: getattr(dataset, field.name) for field in fields(Dataset)}
    if dataset.scores is not None:
        columns["scores"] = (dataset.scores.shape, dataset.scores.tobytes())
    return columns


_ONE_PAYLOAD = "a dataset holds texts, or scores with their concepts"


class TestDataset:
    """The constructor checks every column; a rule that one row breaks
    names the row."""

    @pytest.mark.parametrize(
        "columns, match, row",
        [
            (dict(ids=("a", "b"), texts=("x",)), "texts must hold 2 entries, each a string", None),
            (dict(ids=("a",), texts=("x",), gold=(0, 1)), "gold must hold 1 entries", None),
            (dict(ids=("a",), texts=("x",), groups=()), "groups must hold 1 entries", None),
            (dict(ids=("a", "b"), scores=[[0.5]], concepts=("c",)), r"must have shape \(2, 1\), got \(1, 1\)", None),
            (dict(ids=("a",), scores=[[0.5]], concepts=("c", "d")), r"scores must have shape \(1, 2\)", None),
            (dict(ids=("a",), texts=("x",), scores=[[0.5]], concepts=("c",)), _ONE_PAYLOAD, None),
            (dict(ids=("a",)), _ONE_PAYLOAD, None),
            (dict(ids=("a",), scores=[[0.5]]), _ONE_PAYLOAD, None),
            (dict(ids=("a",), texts=("x",), concepts=("c",)), _ONE_PAYLOAD, None),
            (dict(ids=("a",), scores=[[0.5, 0.5]], concepts=("c", "c")), "concepts must be unique strings", None),
            (dict(ids=(1,), texts=("x",)), "ids must hold 1 entries, each a string", None),
            (dict(ids=("a", "b", "a"), texts=("x", "y", "z")), "duplicate record id 'a'", 2),
            (dict(ids=("a", "b"), scores=[[0.5], [np.nan]], concepts=("c",)), "scores must be finite numbers", 1),
            (dict(ids=("a", "b"), scores=[[np.inf], [0.5]], concepts=("c",)), "scores must be finite numbers", 0),
            (dict(ids=("a", "b"), texts=("x", "y"), gold=(1, 2), K=2), r"gold label 2 is not a class index in 0\.\.1$", 1),
            (dict(ids=("a",), texts=("x",), gold=(-1,)), "gold label -1 is not a class index", 0),
            (dict(ids=("a",), texts=("x",), gold=(True,)), "gold must hold 1 entries, each an integer or null", None),
        ],
    )
    def test_constructor_rejects(self, columns, match, row):
        with pytest.raises(ValueError if row is None else RowError, match=match) as caught:
            Dataset(**columns)
        if row is not None:
            assert caught.value.row == row

    def test_take_and_rows(self):
        scores = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        dataset = Dataset(("a", "b", "c"), scores=scores, concepts=("x", "y"), gold=(0, None, 1))
        assert not dataset.scores.flags.writeable
        part = dataset.take([2, 0])
        assert part.ids == ("c", "a") and part.gold == (1, 0) and part.groups is None
        assert part.scores.tolist() == [[5.0, 6.0], [1.0, 2.0]] and part.concepts == ("x", "y")
        assert list(part.rows()) == [
            Record("c", scores={"x": 5.0, "y": 6.0}, gold=1),
            Record("a", scores={"x": 1.0, "y": 2.0}, gold=0),
        ]


# record lists of one modality: ids that are integers or strings, gold
# and group present or null, and score rows over one concept set listed
# in any key order
@st.composite
def record_lists(draw):
    K = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.one_of(_IDS, st.integers(-(2**40), 2**40)), min_size=n, max_size=n, unique_by=str))
    gold = draw(st.lists(st.none() | st.integers(0, K - 1), min_size=n, max_size=n))
    groups = draw(st.lists(st.none() | _IDS, min_size=n, max_size=n))
    if draw(st.booleans()):
        payloads = [{"text": text} for text in draw(st.lists(st.text(max_size=20), min_size=n, max_size=n))]
    else:
        concepts = draw(st.lists(_IDS, min_size=0, max_size=4, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        payloads = [
            {"scores": {c: draw(finite) for c in draw(st.permutations(concepts))}} for _ in range(n)
        ]
    rows = zip(ids, gold, groups, payloads)
    records = [Record(id=rid, gold=g, group=group, **payload) for rid, g, group, payload in rows]
    return records, K


def _expected_columns(records, K) -> dict:
    """The columns the records' rows hold, worked out one record at a time."""
    first = records[0]
    concepts = None if first.scores is None else tuple(first.scores)
    scores = None
    if concepts is not None:
        matrix = np.array([[r.scores[c] for c in concepts] for r in records], dtype=float)
        matrix = matrix.reshape(len(records), len(concepts))
        scores = (matrix.shape, matrix.tobytes())
    gold = tuple(r.gold for r in records)
    groups = tuple(r.group for r in records)
    return {
        "ids": tuple(str(r.id) for r in records),
        "texts": None if concepts is not None else tuple(r.text for r in records),
        "scores": scores,
        "concepts": concepts,
        "gold": None if set(gold) == {None} else gold,
        "groups": None if set(groups) == {None} else groups,
        "K": K,
    }


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drawn=record_lists(), probabilistic=st.booleans(), drop=st.booleans(), data=st.data())
def test_record_files_round_trip_as_columns(tmp_path, drawn, probabilistic, drop, data):
    records, K = drawn
    dataset = load_dataset(serialize_records(records, tmp_path / "d.jsonl"), class_space(K))
    assert _columns(dataset) == _expected_columns(records, K)
    assert _columns(dataset) == _columns(Dataset.from_records(records, K))

    n = len(records)
    entry = st.floats(0.0, 1.0)
    posterior = np.array(data.draw(st.lists(st.lists(entry, min_size=K, max_size=K), min_size=n, max_size=n)))
    covered = np.array([True] + data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    order = data.draw(st.permutations(range(n)))
    labels = Pseudolabels(tuple(dataset.ids[i] for i in order), posterior[order], covered[order])
    path = tmp_path / "train.jsonl"
    export_training_set(dataset, labels, path, use_probabilistic=probabilistic, drop_uncovered=drop)
    trained, targets = load_training_set(path, K)
    kept = [i for i in range(n) if covered[i] or not drop]
    # records[0] is covered, so the kept rows' first record sets the concept order
    assert _columns(trained) == {**_expected_columns([records[i] for i in kept], K), "gold": None, "groups": None}
    expected = posterior[kept] if probabilistic else posterior[kept].argmax(axis=1)
    assert _same_bits(targets, expected)


class TestVoteMatrix:
    def test_shape_and_properties(self, mk_matrix):
        m = mk_matrix([[0, 1], [-1, 0]])
        assert (m.n, m.m) == (2, 2)

    def test_rejects_entries_below_abstain(self, mk_matrix):
        with pytest.raises(ValueError):
            mk_matrix([[0, -2]])

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ValueError):
            VoteMatrix(
                votes=np.zeros((2, 2), dtype=np.int64),
                program_ids=("p0",),
                record_ids=("r0", "r1"),
                classes=class_space(2),
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            VoteMatrix(
                votes=np.zeros((1, 2), dtype=np.int64),
                program_ids=("p", "p"),
                record_ids=("r0",),
                classes=class_space(2),
            )

    def test_rejects_unsigned_entries_that_would_wrap_to_abstain(self):
        with pytest.raises(ValueError, match="outside 0..1"):
            VoteMatrix(
                votes=np.array([[2**64 - 1]], dtype=np.uint64),
                program_ids=("p",),
                record_ids=("r",),
                classes=class_space(2),
            )

    def test_votes_are_read_only(self, mk_matrix):
        m = mk_matrix([[0, 1]])
        with pytest.raises(ValueError):
            m.votes[0, 0] = 1
        with pytest.raises(ValueError):
            m.bins[0, 0] = 1

    @pytest.mark.parametrize("gold", [[0, 2], [0, -1], [0, True], [0, 1.0], [0, "1"]])
    def test_rejects_bad_gold(self, mk_matrix, gold):
        with pytest.raises(ValueError, match=r"gold must hold 2 entries, each null or a class index in 0\.\.1"):
            mk_matrix([[0], [1]], gold=gold)

    @pytest.mark.parametrize("groups", [["g"], ["g", "h", "i"], ["g", 1], ["g", b"h"]])
    def test_rejects_bad_groups(self, groups):
        with pytest.raises(ValueError, match="group must hold 2 entries, each null or a string"):
            VoteMatrix(
                votes=np.zeros((2, 1), dtype=np.int64),
                program_ids=("p",),
                record_ids=("r0", "r1"),
                classes=class_space(2),
                groups=groups,
            )

    def test_bins_are_built_once(self, mk_matrix):
        m = mk_matrix([[0, -1], [1, 0]])
        assert m.bins is m.bins
        assert m.bins.tolist() == [[1, 2], [0, 1]]

    @pytest.mark.parametrize("K, dtype", [(2, np.int8), (128, np.int8), (129, np.int16), (200, np.int16)])
    def test_votes_are_kept_in_the_vote_type(self, mk_matrix, K, dtype):
        m = mk_matrix([[K - 1, ABSTAIN], [0, K - 1]], K)
        assert m.votes.dtype == dtype
        assert m.votes.tolist() == [[K - 1, ABSTAIN], [0, K - 1]]
        # the top class lands in bin K, which int8 alone cannot hold at K = 128
        assert m.bins.tolist() == [[K, 1], [0, K]]

    def test_vote_counts_match_the_votes(self, mk_matrix):
        rng = np.random.default_rng(808)
        for _ in range(50):
            K, n, m = (int(x) for x in rng.integers((2, 1, 1), (7, 30, 7)))
            votes = rng.integers(ABSTAIN, K, size=(n, m))
            votes[rng.integers(n)] = ABSTAIN
            votes[:, rng.integers(m)] = ABSTAIN
            matrix = mk_matrix(votes, K)
            voted = votes != ABSTAIN
            assert matrix.record_votes.tolist() == voted.sum(axis=1).tolist()
            assert matrix.record_votes.tolist() == np.count_nonzero(matrix.bins, axis=0).tolist()
            assert matrix.program_votes.tolist() == voted.sum(axis=0).tolist()
            assert matrix.program_votes.tolist() == np.count_nonzero(matrix.bins, axis=1).tolist()
            assert matrix.record_votes is matrix.record_votes
            with pytest.raises(ValueError):
                matrix.program_votes[0] = 1


# ids of characters json.dumps escapes, or that a hand-made escaper
# tends to miss, or of any characters
_IDS = st.one_of(
    st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\u2029\ufeff\U0001f600a'), max_size=6),
    st.text(max_size=6),
)


@st.composite
def pseudolabel_sets(draw):
    """Pseudolabels with random K, ties (entries often repeat a few round
    values), extreme floats, uncovered rows (uniform posteriors) and ids
    that need escaping; a few sets in a hundred are longer than one
    write chunk, their drawn rows repeated."""
    K = draw(st.integers(1, 6))
    n = draw(st.integers(0, 20))
    ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    entry = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0, 5e-324, 1e-17]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=K, max_size=K), min_size=n, max_size=n))
    covered = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    posterior = np.array(rows, dtype=float).reshape(n, K)
    posterior[~covered] = 1.0 / K
    if n and draw(st.integers(0, 15)) == 3:
        reps = _PSEUDOLABEL_CHUNK // n + 2
        ids = [f"{i}:{rid}" for i in range(reps) for rid in ids]
        posterior, covered = np.tile(posterior, (reps, 1)), np.tile(covered, reps)
    return Pseudolabels(tuple(ids), posterior, covered)


@st.composite
def vote_matrices(draw):
    """Vote matrices with K from 2 to 6, now and then an all-ABSTAIN row,
    gold and group columns that are absent or hold null entries, and ids
    and names that need escaping."""
    K = draw(st.integers(2, 6))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
    rows = st.lists(st.lists(st.integers(ABSTAIN, K - 1), min_size=m, max_size=m), min_size=n, max_size=n)
    votes = np.array(draw(rows), dtype=np.int64)
    if draw(st.booleans()):
        votes[draw(st.integers(0, n - 1))] = ABSTAIN

    def column(entries):
        return st.none() | st.lists(st.none() | entries, min_size=n, max_size=n)

    return VoteMatrix(
        votes=votes,
        program_ids=draw(st.lists(_IDS, min_size=m, max_size=m, unique=True)),
        record_ids=draw(st.lists(_IDS, min_size=n, max_size=n, unique=True)),
        classes=ClassSpace(draw(st.lists(_IDS.filter(bool), min_size=K, max_size=K, unique=True))),
        gold=draw(column(st.integers(0, K - 1))),
        groups=draw(column(_IDS)),
        task=draw(st.none() | _IDS),
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPseudolabels:
    def test_hard_is_the_argmax(self):
        labels = Pseudolabels(("r",), [[0.2, 0.8]], [True])
        assert labels.hard.tolist() == [1]
        assert labels.covered.tolist() == [True]

    def test_tie_breaks_to_smallest_index(self):
        assert Pseudolabels(("r",), [[0.5, 0.5]], [True]).hard.tolist() == [0]
        assert Pseudolabels(("r",), [[0.2, 0.4, 0.4]], [True]).hard.tolist() == [1]

    @pytest.mark.parametrize(
        "record_ids, posterior, covered, match",
        [
            (("a", "a"), [[1.0, 0.0], [0.0, 1.0]], [True, True], "unique"),
            (("a", "b"), [[1.0, 0.0]], [True, True], "shape"),
            (("a",), [1.0, 0.0], [True], "shape"),
            (("a",), [[1.5, 0.0]], [True], r"\[0, 1\]"),
            (("a",), [[np.nan, 0.0]], [True], r"\[0, 1\]"),
            (("a",), [[1.0, 0.0]], [1], "booleans"),
            (("a",), [[1.0, 0.0]], [True, False], "booleans"),
        ],
    )
    def test_checked(self, record_ids, posterior, covered, match):
        with pytest.raises(ValueError, match=match):
            Pseudolabels(record_ids, posterior, covered)

    def test_round_trip_file(self, tmp_path):
        labels = Pseudolabels(("a", "b"), [[0.9, 0.1], [0.5, 0.5]], [True, False])
        path = save_pseudolabels(tmp_path / "pl.jsonl", labels)
        loaded = load_pseudolabels(path)
        assert loaded.record_ids == labels.record_ids
        np.testing.assert_array_equal(loaded.posterior, labels.posterior)
        np.testing.assert_array_equal(loaded.covered, labels.covered)

    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(labels=pseudolabel_sets())
    def test_writer_matches_per_row_reference_and_reader_inverts_it(self, tmp_path, labels):
        path = save_pseudolabels(tmp_path / "pl.jsonl", labels)
        assert path.read_bytes() == reference_pseudolabel_bytes(
            labels.record_ids, labels.posterior, labels.covered
        )
        loaded = load_pseudolabels(path, K=labels.posterior.shape[1])
        assert loaded.record_ids == labels.record_ids
        assert _same_bits(loaded.posterior, labels.posterior)
        assert _same_bits(loaded.covered, labels.covered)
        assert _same_bits(loaded.hard, labels.hard)

    @pytest.mark.parametrize(
        "second, match",
        [
            ({"record_id": "b", "posterior": [0.9, 0.1], "hard": 1, "covered": True}, "argmax"),
            ({"record_id": "b", "posterior": [0.5, 0.5], "hard": 1, "covered": True}, "argmax"),
            ({"record_id": "a", "posterior": [0.1, 0.9], "hard": 1, "covered": True}, "duplicate record id 'a'"),
        ],
    )
    def test_reader_rejects_rows_with_line(self, tmp_path, second, match):
        first = {"record_id": "a", "posterior": [0.9, 0.1], "hard": 0, "covered": True}
        path = tmp_path / "pl.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(DatasetError, match=f"pl.jsonl:2: .*{match}"):
            load_pseudolabels(path)


class TestArrayLayout:
    def test_arrays_back_to_back_as_little_endian_doubles(self, tmp_path):
        arrays = [np.arange(6.0).reshape(2, 3), np.array([-0.0, 5e-324, 1e308]), np.empty((0, 4)), np.array([[7]])]
        path = write_array(tmp_path / "a.bin", arrays)
        assert path.read_bytes() == b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
        back = read_array(path, [a.shape for a in arrays], "m.json")
        for a, b in zip(arrays, back):
            assert _same_bits(a.astype(float), b)
            assert not b.flags.writeable

    @pytest.mark.parametrize("size", [0, 40, 47, 56])
    def test_size_checked(self, tmp_path, size):
        path = tmp_path / "a.bin"
        path.write_bytes(b"\0" * size)
        with pytest.raises(DatasetError, match=rf"a\.bin: {size} bytes, but the shapes \[\(2, 3\)\] in m\.json take 6 "):
            read_array(path, [(2, 3)], "m.json")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        values = np.zeros(6)
        values[4] = value
        path = write_array(tmp_path / "a.bin", [values])
        with pytest.raises(DatasetError, match=rf"a\.bin: value 4 is {value}, expected a finite number"):
            read_array(path, [(6,)], "m.json")


class TestLoadTextDataset:
    CLASSES = ClassSpace(("spam", "ham"))

    def test_happy_path(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "text": "x", "gold": 0, "group": "g1"}\n{"id": "b", "text": "y"}\n',
            encoding="utf-8",
        )
        dataset = load_dataset(path, self.CLASSES)
        assert dataset.ids == ("a", "b") and dataset.texts == ("x", "y")
        assert dataset.gold == (0, None) and dataset.groups == ("g1", None)
        assert dataset.scores is None and dataset.concepts is None

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"d\.jsonl:2: "):
            load_dataset(path, self.CLASSES)

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="'a'"):
            load_dataset(path, self.CLASSES)

    def test_gold_out_of_range(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "x", "gold": 5}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"d\.jsonl:1: "):
            load_dataset(path, self.CLASSES)

    def test_serialize_round_trip(self, tmp_path):
        records = [
            Record(id="a", text="x", gold=1, group="g"),
            Record(id="b", text="y"),
        ]
        path = serialize_records(records, tmp_path / "out.jsonl")
        dataset = load_dataset(path, self.CLASSES)
        assert list(dataset.rows()) == records
        assert _columns(dataset) == _columns(Dataset.from_records(records, self.CLASSES.K))


class TestLoadScoresDataset:
    CLASSES = ClassSpace(("a", "b"))

    def test_concept_mismatch_names_concept(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "r0", "scores": {"wing": 0.5}}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="beak"):
            load_dataset(path, self.CLASSES, concepts=("wing", "beak"))

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "r0", "scores": {"wing": 0.5}}\n{"id": "r1", "scores": {"wing": NaN}}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"d\.jsonl:2: "):
            load_dataset(path, self.CLASSES)

    def test_jsonl_scores(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "r0", "scores": {"wing": 0.25}}\n', encoding="utf-8")
        dataset = load_dataset(path, self.CLASSES)
        assert dataset.concepts == ("wing",) and dataset.scores.tolist() == [[0.25]]
        assert not dataset.scores.flags.writeable

    def test_columns_follow_the_first_row_and_are_picked_by_name(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "r0", "scores": {"wing": 0.25, "beak": 1}}\n{"id": "r1", "scores": {"beak": 0.5, "wing": 0.75}}\n',
            encoding="utf-8",
        )
        dataset = load_dataset(path, self.CLASSES)
        assert dataset.concepts == ("wing", "beak")
        assert dataset.scores.tolist() == [[0.25, 1.0], [0.75, 0.5]]

    @pytest.mark.parametrize(
        "rows, match",
        [
            ('{"id": "r0", "scores": {"wing": 0.5, "beak": 1}}\n{"id": "r1", "scores": {"wing": 0.5}}\n',
             ":2: missing score column 'beak'"),
            ('{"id": "r0", "scores": {"wing": 0.5}}\n{"id": "r1", "scores": {"wing": 0.5, "tail": 0}}\n',
             ":2: unexpected score column 'tail'"),
            ('{"id": "r0", "scores": {}}\n{"id": "r1", "scores": {"wing": 0.5}}\n', ":2: unexpected score column 'wing'"),
            ('{"id": "r0", "scores": {"wing": 0.5}}\n{"id": "r1", "scores": {"wing": 1%s}}\n' % ("0" * 400),
             ":2: scores must be finite numbers"),
            ('{"id": "r0", "scores": {"wing": 0.5}}\n{"id": "r1", "scores": {"wing": true}}\n',
             ":2: scores must be finite numbers"),
            # blank lines hold no record, but count as lines
            ('{"id": "r0", "scores": {"wing": 0.5}}\n\n  \n{"id": "r0", "scores": {"wing": 0.5}}\n',
             ":4: duplicate record id 'r0'"),
            ('\n{"id": "r0", "scores": {"wing": 0.5}, "gold": 2}\n', ":2: gold label 2 is not a class index in 0..1"),
        ],
        ids=["missing", "unexpected", "after-no-concepts", "too-large", "boolean", "duplicate", "gold"],
    )
    def test_rejects_rows_with_line(self, tmp_path, rows, match):
        path = tmp_path / "d.jsonl"
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(DatasetError) as caught:
            load_dataset(path, self.CLASSES)
        assert str(caught.value) == f"{path}{match}"


class TestAssembleVotes:
    def test_known_votes(self, spam_cs):
        programs = [
            parse_program('rule: contains("free") -> spam;', spam_cs, program_id="p_free"),
            parse_program('rule: length_at_least(10) -> ham;', spam_cs, program_id="p_long"),
        ]
        records = [
            Record(id="a", text="free stuff here"),
            Record(id="b", text="hi"),
        ]
        matrix = assemble_votes(Dataset.from_records(records), programs, spam_cs)
        assert matrix.votes.tolist() == [[0, 1], [ABSTAIN, ABSTAIN]]
        assert matrix.program_ids == ("p_free", "p_long")
        assert matrix.classes == spam_cs
        # no record has gold or a group, so both columns are absent
        assert (matrix.gold, matrix.groups, matrix.task) == (None, None, None)

    def test_gold_and_groups_ride_along(self, spam_cs):
        program = parse_program('rule: contains("free") -> spam;', spam_cs, program_id="p")
        records = [Record(id="a", text="free", gold=0), Record(id="b", text="hi", group="g")]
        matrix = assemble_votes(Dataset.from_records(records), [program], spam_cs, task="sms")
        assert (matrix.gold, matrix.groups, matrix.task) == ((0, None), (None, "g"), "sms")

    def test_modality_mismatch_names_program(self, spam_cs):
        program = parse_program('rule: score("c") >= 0.5 -> spam;', spam_cs, program_id="scorey")
        with pytest.raises(DslEvaluationError, match="scorey"):
            assemble_votes(Dataset.from_records([Record(id="a", text="x")]), [program], spam_cs)

    def test_deterministic(self, spam_cs):
        program = parse_program('rule: contains("x") -> spam;', spam_cs)
        records = [Record(id=f"r{i}", text="x" * i) for i in range(5)]
        a = assemble_votes(Dataset.from_records(records), [program], spam_cs)
        b = assemble_votes(Dataset.from_records(records), [program], spam_cs)
        assert np.array_equal(a.votes, b.votes)


class TestVotesFile:
    def test_round_trip_with_gold_and_groups(self, tmp_path):
        matrix = VoteMatrix(
            votes=np.array([[0, 1], [-1, 0]]),
            program_ids=("p0", "p1"),
            record_ids=("r0", "r1"),
            classes=ClassSpace(("spam", "ham")),
            gold=[0, None],
            groups=["g1", None],
            task="demo",
        )
        loaded = load_votes(save_votes(tmp_path / "v.json", matrix))
        assert np.array_equal(loaded.votes, matrix.votes)
        assert loaded.program_ids == matrix.program_ids
        assert loaded.classes.names == ("spam", "ham")
        assert loaded.gold == (0, None)
        assert loaded.groups == ("g1", None)
        assert loaded.task == "demo"

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(matrix=vote_matrices())
    def test_save_load_round_trip(self, tmp_path, matrix):
        path = save_votes(tmp_path / "v.json", matrix)
        loaded = load_votes(path)
        for field in fields(VoteMatrix):
            a, b = getattr(matrix, field.name), getattr(loaded, field.name)
            if field.name == "votes":
                assert _same_bits(a, b)
            else:
                assert a == b, field.name
        assert save_votes(tmp_path / "again.json", loaded).read_bytes() == path.read_bytes()

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"classes": ["a", "b"]}', encoding="utf-8")
        with pytest.raises(DatasetError, match="program_ids"):
            load_votes(path)

    @pytest.mark.parametrize(
        "votes, match",
        [
            ([[2**63, 0]], "class indices in 0..1 or ABSTAIN"),
            ([[0, 2**64 - 1]], "class indices in 0..1 or ABSTAIN"),
            ([[-(2**63) - 1, 0]], "class indices in 0..1 or ABSTAIN"),
            ([[-1, 0], [2**64 - 1, -1]], "class indices in 0..1 or ABSTAIN"),
            ([[0, 1], [1]], "votes row 1 has 1 entries, expected 2"),
            ([[0, 1], [1, 0, 1]], "votes row 1 has 3 entries, expected 2"),
            ([[0, 1], 1], "votes row 1 is an integer, expected a list"),
            ([[0, True]], "integers, got true or false"),
            ([[0, 1.0]], "integers, got a number"),
            ([[0, "1"]], "integers, got a string"),
            ([[0, [1]]], "integers, got a list"),
            ([[0, 2]], "outside 0..1"),
            ([[0, -2]], "class indices or ABSTAIN"),
            ([], "at least one row"),
            # beyond int8, the type the votes of 2 classes load into
            ([[0, 128]], "class indices in 0..1 or ABSTAIN"),
            ([[255, 0]], "class indices in 0..1 or ABSTAIN"),
            ([[0, -129]], "class indices in 0..1 or ABSTAIN"),
        ],
    )
    def test_malformed_votes_rejected(self, tmp_path, mk_matrix, votes, match):
        path = save_votes(tmp_path / "v.json", mk_matrix([[0, 1], [1, 0]]))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["votes"] = votes
        doc["record_ids"] = doc["record_ids"][: len(votes)]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetError, match=f"v.json: .*{match}"):
            load_votes(path)

    @pytest.mark.parametrize("K, dtype", [(3, np.int8), (200, np.int16)])
    def test_loads_into_the_vote_type(self, tmp_path, mk_matrix, K, dtype):
        rows = [[0, ABSTAIN], [min(150, K - 1), 1]]
        loaded = load_votes(save_votes(tmp_path / "v.json", mk_matrix(rows, K)))
        assert loaded.votes.dtype == dtype
        assert loaded.votes.tolist() == rows

    @pytest.mark.parametrize("vote", [128, 255, -129])
    def test_vote_beyond_the_vote_type_never_loads_as_abstain(self, tmp_path, mk_matrix, capsys, vote):
        path = save_votes(tmp_path / "v.json", mk_matrix([[0, 1], [2, 0]], 3))
        path.write_text(path.read_text(encoding="utf-8").replace("[2, 0]", f"[{vote}, 0]"), encoding="utf-8")
        assert main(["analyze", "--votes", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: votes must be class indices in 0..2 or ABSTAIN (-1)"), err

    def test_vote_outside_class_range_rejected(self, tmp_path, mk_matrix):
        path = save_votes(tmp_path / "v.json", mk_matrix([[2]], 3))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["classes"] = ["a", "b"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetError):
            load_votes(path)

