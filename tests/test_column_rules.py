"""The four column rules, each fed the same bad column in every container
and reader that holds such a column: one message, naming the column and
the entry, and the entry as ``RowError.row``. A JSONL reader names the
entry's line in its place; a reader of one JSON document names the file
before the message.

- ids are unique strings;
- a gold or hard label is a class index below K, or null;
- a group is a string or null;
- a posterior row is K numbers in [0, 1], and a stored hard label is the
  row's argmax.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import class_space

from labelsmith.concepts import ConceptSet, EmbeddingTable
from labelsmith.data import ClassSpace, DatasetError, Pseudolabels, RowError, VoteMatrix, load_pseudolabels, load_votes
from labelsmith.distill import init_mlp, load_training_set
from labelsmith.models import MV, LabelModelParams
from labelsmith.records import Dataset, load_dataset


def _rows(n):
    return tuple(f"r{i}" for i in range(n))


# container -> (the name its messages give the column, a builder of the
# container around the column)
ID_COLUMNS = {
    "ClassSpace.names": ("classes", lambda ids: ClassSpace(ids)),
    "VoteMatrix.program_ids": (
        "program_ids",
        lambda ids: VoteMatrix(np.zeros((1, len(ids)), dtype=np.int8), ids, ("r0",), class_space(2)),
    ),
    "VoteMatrix.record_ids": (
        "record_ids",
        lambda ids: VoteMatrix(np.zeros((len(ids), 1), dtype=np.int8), ("p0",), ids, class_space(2)),
    ),
    "Pseudolabels.record_ids": (
        "record_ids",
        lambda ids: Pseudolabels(ids, np.full((len(ids), 2), 0.5), np.ones(len(ids), dtype=bool)),
    ),
    "Dataset.ids": ("ids", lambda ids: Dataset(ids, texts=("x",) * len(ids))),
    "Dataset.concepts": ("concepts", lambda ids: Dataset(("r0",), scores=np.zeros((1, len(ids))), concepts=ids)),
    "ConceptSet.concepts": ("concepts", lambda ids: ConceptSet(task="t", concepts=ids)),
    "EmbeddingTable.concept_names": (
        "concept_names",
        lambda ids: EmbeddingTable(np.ones((1, 2)), np.ones((len(ids), 2)), ids, ("r0",)),
    ),
    "EmbeddingTable.record_ids": (
        "record_ids",
        lambda ids: EmbeddingTable(np.ones((len(ids), 2)), np.ones((1, 2)), ("c0",), ids),
    ),
    "MLPModel.concepts": ("concepts", lambda ids: replace(init_mlp(len(ids), class_space(2), seed=0), concepts=ids)),
    "LabelModelParams.program_ids": (
        "program_ids",
        lambda ids: LabelModelParams(kind=MV, priors=[0.5, 0.5], program_ids=ids),
    ),
}

# case -> (bad column, the entry at fault, the message after the column's name)
BAD_IDS = {
    "non-string": ((1,), 0, "entry 0 is 1, expected a string"),
    "repeated": (("a", "b", "a"), 2, "must be unique strings, but entry 2 repeats 'a'"),
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
@pytest.mark.parametrize("container", sorted(ID_COLUMNS))
def test_unique_strings(container, case):
    name, build = ID_COLUMNS[container]
    column, row, message = BAD_IDS[case]
    with pytest.raises(RowError) as caught:
        build(column)
    assert str(caught.value) == f"{name} {message}"
    assert caught.value.row == row


GOLD_COLUMNS = {
    "VoteMatrix.gold": lambda gold: VoteMatrix(
        np.zeros((len(gold), 1), dtype=np.int8), ("p0",), _rows(len(gold)), class_space(2), gold=gold
    ),
    "Dataset.gold": lambda gold: Dataset(_rows(len(gold)), texts=("x",) * len(gold), gold=gold, K=2),
}

BAD_GOLD = {
    "K": ((1, 2), 1, "gold entry 1 is 2, expected a class index in 0..1"),
    "minus-one": ((-1,), 0, "gold entry 0 is -1, expected a class index in 0..1"),
    "true": ((None, True), 1, "gold entry 1 is True, expected a class index in 0..1"),
}


@pytest.mark.parametrize("case", sorted(BAD_GOLD))
@pytest.mark.parametrize("container", sorted(GOLD_COLUMNS))
def test_class_indices(container, case):
    column, row, message = BAD_GOLD[case]
    with pytest.raises(RowError) as caught:
        GOLD_COLUMNS[container](column)
    assert str(caught.value) == message
    assert caught.value.row == row


def test_class_indices_without_K():
    """A dataset built for no class count takes any index, but never one
    below 0."""
    assert Dataset(("a", "b"), texts=("x", "y"), gold=(0, 7)).gold == (0, 7)
    with pytest.raises(RowError, match=r"^gold entry 1 is -1, expected a class index$"):
        Dataset(("a", "b"), texts=("x", "y"), gold=(0, -1))


GROUP_COLUMNS = {
    "VoteMatrix.groups": (
        "group",
        lambda groups: VoteMatrix(np.zeros((len(groups), 1), dtype=np.int8), ("p0",), _rows(len(groups)),
                                  class_space(2), groups=groups),
    ),
    "Dataset.groups": ("groups", lambda groups: Dataset(_rows(len(groups)), texts=("x",) * len(groups), groups=groups)),
}


@pytest.mark.parametrize("container", sorted(GROUP_COLUMNS))
def test_group_names(container):
    name, build = GROUP_COLUMNS[container]
    with pytest.raises(RowError) as caught:
        build(("g", None, 3))
    assert str(caught.value) == f"{name} entry 2 is 3, expected null or a string"
    assert caught.value.row == 2


@pytest.mark.parametrize("container", sorted(GROUP_COLUMNS))
def test_column_of_another_length(container):
    name, build = GROUP_COLUMNS[container]
    with pytest.raises(ValueError) as caught:
        replace(build(("g", None)), groups=("g",))
    assert str(caught.value) == f"{name} must hold 2 entries, got 1"
    assert not isinstance(caught.value, RowError)


# case -> (the second row of a two-row posterior, its message); every
# reader is given K = 2, as the first row's width is
BAD_POSTERIORS = {
    "K+1-entries": ([0.2, 0.3, 0.5], "posterior entry 1 is [0.2, 0.3, 0.5], expected 2 numbers in [0, 1]"),
    "nan": ([math.nan, 0.5], "posterior entry 1 is [nan, 0.5], expected 2 numbers in [0, 1]"),
    "above-1": ([1.5, -0.5], "posterior entry 1 is [1.5, -0.5], expected 2 numbers in [0, 1]"),
    "true": ([True, 0], "posterior entry 1 is [True, 0], expected 2 numbers in [0, 1]"),
    "integer-beyond-float64": ([10**400, 0], f"posterior entry 1 is [{10**400}, 0], expected 2 numbers in [0, 1]"),
}


def _pseudolabel_file(path, second, hard=0):
    rows = [
        {"record_id": "a", "posterior": [0.9, 0.1], "hard": 0, "covered": True},
        {"record_id": "b", "posterior": second, "hard": hard, "covered": True},
    ]
    # a blank line, so the bad row's line differs from its entry
    path.write_text("\n".join([json.dumps(rows[0]), "", json.dumps(rows[1])]) + "\n", encoding="utf-8")
    return path


def _training_file(path, second):
    rows = [{"id": "a", "text": "x", "posterior": [0.9, 0.1]}, {"id": "b", "text": "y", "posterior": second}]
    path.write_text("\n".join([json.dumps(rows[0]), "", json.dumps(rows[1])]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(BAD_POSTERIORS))
def test_posterior_rows_in_memory(case):
    second, message = BAD_POSTERIORS[case]
    with pytest.raises(RowError) as caught:
        Pseudolabels(("a", "b"), [[0.9, 0.1], second], [True, True])
    assert str(caught.value) == message
    assert caught.value.row == 1


@pytest.mark.parametrize("case", sorted(BAD_POSTERIORS))
@pytest.mark.parametrize("reader", ["load_pseudolabels", "load_training_set"])
def test_posterior_rows_in_files(tmp_path, reader, case):
    second, message = BAD_POSTERIORS[case]
    if reader == "load_pseudolabels":
        path = _pseudolabel_file(tmp_path / "pl.jsonl", second)
        read = load_pseudolabels
    else:
        path = _training_file(tmp_path / "train.jsonl", second)
        read = load_training_set
    with pytest.raises(DatasetError) as caught:
        read(path, 2)
    assert str(caught.value) == f"{path}:3: {message}"


def test_stored_hard_label_is_the_argmax(tmp_path):
    path = _pseudolabel_file(tmp_path / "pl.jsonl", [0.6, 0.4], hard=1)
    with pytest.raises(DatasetError) as caught:
        load_pseudolabels(path, 2)
    assert str(caught.value) == f"{path}:3: hard entry 1 is 1, but the argmax of posterior entry 1 is 0"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("record_ids", ["r0", "r0"], "record_ids must be unique strings, but entry 1 repeats 'r0'"),
        ("program_ids", ["p0", 7], "program_ids entry 1 is 7, expected a string"),
        ("classes", ["a", "b", "a"], "classes must be unique strings, but entry 2 repeats 'a'"),
        ("gold", [0, 2], "gold entry 1 is 2, expected a class index in 0..1"),
        ("group", [None, 3], "group entry 1 is 3, expected null or a string"),
    ],
    ids=["repeated-record-id", "non-string-program-id", "repeated-class", "gold-K", "group-3"],
)
def test_votes_file_names_the_field_and_entry(tmp_path, field, value, message):
    doc = {"classes": ["a", "b"], "program_ids": ["p0", "p1"], "record_ids": ["r0", "r1"], "votes": [[0, 1], [1, -1]]}
    path = tmp_path / "votes.json"
    path.write_text(json.dumps({**doc, field: value}), encoding="utf-8")
    with pytest.raises(DatasetError) as caught:
        load_votes(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "rows, message",
    [
        # a blank line, so the repeat's line differs from its entry
        ('{"id": "a", "text": "x"}\n\n{"id": "a", "text": "y"}\n',
         ":3: ids must be unique strings, but entry 1 repeats 'a'"),
        ('{"id": "a", "text": "x"}\n{"id": "b", "text": "y", "gold": 2}\n',
         ":2: gold entry 1 is 2, expected a class index in 0..1"),
    ],
    ids=["repeated-id", "gold-K"],
)
def test_dataset_file_names_the_line(tmp_path, rows, message):
    path = tmp_path / "d.jsonl"
    path.write_text(rows, encoding="utf-8")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path, class_space(2))
    assert str(caught.value) == f"{path}{message}"


def test_training_label_K_names_the_line(tmp_path):
    path = tmp_path / "train.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": 0}\n{"id": "b", "text": "y", "label": 2}\n', encoding="utf-8")
    with pytest.raises(DatasetError) as caught:
        load_training_set(path, 2)
    assert str(caught.value) == f"{path}:2: label entry 1 is 2, expected a class index in 0..1"
