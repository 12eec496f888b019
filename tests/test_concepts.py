import json
import logging
import re

import numpy as np
import pytest

from labelsmith.concepts import (
    ConceptError,
    ConceptSet,
    EmbeddingTable,
    elicit_concepts,
    load_concepts,
    load_embeddings,
    parse_concept_response,
    records_from_scores,
    reject_spurious,
    save_concepts,
    save_embeddings,
    scores_from_embeddings,
)
from labelsmith.data import RowError
from labelsmith.prompting import MockTransport, TransportError


def make_table(records, concepts, names=None, ids=None):
    records = np.asarray(records, dtype=float)
    concepts = np.asarray(concepts, dtype=float)
    return EmbeddingTable(
        records=records,
        concepts=concepts,
        concept_names=tuple(names or [f"c{i}" for i in range(concepts.shape[0])]),
        record_ids=tuple(ids or [f"r{i}" for i in range(records.shape[0])]),
    )


class TestConceptSet:
    def test_needs_concepts_and_uniqueness(self):
        with pytest.raises(ConceptError):
            ConceptSet(task="t", concepts=())
        with pytest.raises(RowError, match="^concepts must be unique strings, but entry 1 repeats 'a'$"):
            ConceptSet(task="t", concepts=("a", "a"))

    def test_spurious_must_be_known(self):
        with pytest.raises(ConceptError, match="'b'"):
            ConceptSet(task="t", concepts=("a",), spurious=("b",))

    def test_save_load_round_trip(self, tmp_path):
        cs = ConceptSet(task="birds", concepts=("wing", "beak"), spurious=("beak",))
        save_concepts(tmp_path / "concepts.json", cs)
        assert load_concepts(tmp_path / "concepts.json") == cs


class TestParseConceptResponse:
    def test_category_object_flattens_in_order(self):
        text = json.dumps(
            {
                "foot type": [
                    "A bird's foot type is toed, grasping",
                    "A bird's foot type is paddling, swimming",
                ],
                "wing shape": ["A bird's wing is long and pointed"],
            }
        )
        cs = parse_concept_response("waterbirds", text)
        assert cs.concepts == (
            "A bird's foot type is toed, grasping",
            "A bird's foot type is paddling, swimming",
            "A bird's wing is long and pointed",
        )

    def test_flat_list_accepted(self):
        cs = parse_concept_response("t", '["a", "b"]')
        assert cs.concepts == ("a", "b")

    def test_fenced_json_accepted(self):
        text = 'Sure!\n```json\n{"cat": ["a", "b"]}\n```\nanything else?'
        assert parse_concept_response("t", text).concepts == ("a", "b")

    def test_duplicates_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="labelsmith.concepts"):
            cs = parse_concept_response("t", '["a", "b", "a"]')
        assert cs.concepts == ("a", "b")
        assert any("duplicate" in r.message for r in caplog.records)

    def test_prose_rejected(self):
        with pytest.raises(ConceptError, match="JSON"):
            parse_concept_response("t", "here are some concepts: wings, beaks")

    def test_empty_payload_rejected(self):
        with pytest.raises(ConceptError, match="no concepts"):
            parse_concept_response("t", "{}")


    @pytest.mark.parametrize(
        "text, message",
        [
            (r'["\ud800 water"]', r"concept response: a string holds the lone surrogate \ud800"),
            ("[" * 100_000, "concept response: JSON nested too deeply"),
            ("[" + "9" * 5000 + "]", "concept response: JSON integer has too many digits to read"),
            ('{"a": ["x"], "a": ["y"]}', "concept response: duplicate key 'a'"),
            ('[1, {"a": 2}, null]', "concept response entry 0 is an integer, expected a string"),
            ('{"feet": ["webbed"], "wings": "long"}', "concept category 'wings' is a string, expected a list of strings"),
            ('{"feet": ["webbed", null]}', "concept category 'feet' entry 1 is null, expected a string"),
        ],
        ids=["lone-surrogate", "nested-too-deeply", "long-integer", "repeated-key", "number", "category-string",
             "null-description"],
    )
    def test_reply_read_as_a_file_is(self, text, message):
        with pytest.raises(ConceptError, match=re.escape(message)):
            parse_concept_response("t", text)

    def test_malformed_candidate_gives_way_to_the_next(self):
        text = '["a", oops]\n```\n["b"]\n```'
        assert parse_concept_response("t", text).concepts == ("b",)

    @pytest.mark.parametrize(
        "text, concepts",
        [
            ('```json\n["a"]\n```', ("a",)),
            ('```\n\n["a"]\n```', ("a",)),
            # a prose first line stays in its block, which is then not JSON
            ('```Concepts:\n["a"]\n```\n```\n["b"]\n```', ("b",)),
        ],
        ids=["language-tag", "empty-first-line", "prose-first-line"],
    )
    def test_fence_first_line_dropped_only_when_empty_or_a_tag(self, text, concepts):
        assert parse_concept_response("t", text).concepts == concepts

class TestElicitConcepts:
    def test_happy_path_persists_raw(self, tmp_path):
        transport = MockTransport([{"content": '{"colors": ["red fur", "white fur"]}'}])
        cs = elicit_concepts("dogs", "list concepts", "m", transport, out_dir=tmp_path)
        assert cs.concepts == ("red fur", "white fur")
        artifact = json.loads((tmp_path / "raw" / "concepts.json").read_text())
        assert artifact["response"]["choices"][0]["message"]["content"].startswith("{")

    def test_malformed_reply_still_persisted(self, tmp_path):
        transport = MockTransport([{"content": "no json here"}])
        with pytest.raises(ConceptError):
            elicit_concepts("dogs", "p", "m", transport, out_dir=tmp_path)
        assert (tmp_path / "raw" / "concepts.json").exists()

    def test_transport_error_persisted_and_raised(self, tmp_path):
        transport = MockTransport([{"error": "HTTP 500"}])
        with pytest.raises(TransportError):
            elicit_concepts(
                "dogs", "p", "m", transport,
                out_dir=tmp_path, sleep=lambda _: None,
            )
        artifact = json.loads((tmp_path / "raw" / "concepts.json").read_text())
        assert "error" in artifact


class TestScores:
    def test_hand_computed_cosines(self):
        table = make_table(
            records=[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
            concepts=[[1.0, 0.0], [-1.0, 0.0]],
        )
        scores = scores_from_embeddings(table)
        # cosine 1 -> 1.0; cosine 0 -> 0.5; cosine -1 -> 0.0
        np.testing.assert_allclose(scores[0], [1.0, 0.0])
        np.testing.assert_allclose(scores[1], [0.5, 0.5])
        np.testing.assert_allclose(scores[2], [(1 / np.sqrt(2) + 1) / 2, (-1 / np.sqrt(2) + 1) / 2])

    def test_scores_live_in_unit_interval(self):
        rng = np.random.default_rng(3)
        table = make_table(rng.normal(size=(50, 8)), rng.normal(size=(4, 8)))
        scores = scores_from_embeddings(table)
        assert scores.shape == (50, 4)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_zero_norm_record_scores_half(self, caplog):
        table = make_table([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="labelsmith.concepts"):
            scores = scores_from_embeddings(table)
        assert scores[0, 0] == 0.5
        assert any("zero norm" in r.message for r in caplog.records)

    def test_zero_concept_rejected_at_construction(self):
        with pytest.raises(ConceptError, match="zero embedding"):
            make_table([[1.0, 0.0]], [[0.0, 0.0]])

    def test_records_from_scores(self):
        table = make_table([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], names=["a", "b"], ids=["x"])
        scores = scores_from_embeddings(table)
        dataset = records_from_scores(table, scores)
        assert dataset.ids == ("x",)
        assert dataset.concepts == ("a", "b")
        assert dataset.scores.tolist() == [[1.0, 0.5]]
        with pytest.raises(ConceptError, match="score matrix"):
            records_from_scores(table, scores[:, :1])


class TestRejectSpurious:
    def _random_table(self, seed, n=1000, d=32, n_spurious=2):
        rng = np.random.default_rng(seed)
        concepts = rng.normal(size=(n_spurious + 3, d))
        records = rng.normal(size=(n, d))
        names = [f"spur{i}" for i in range(n_spurious)] + [f"real{i}" for i in range(3)]
        return make_table(records, concepts, names=names), [f"spur{i}" for i in range(n_spurious)]

    def test_residual_dots_norms_idempotence(self):
        table, spurious = self._random_table(11)
        cleaned = reject_spurious(table, spurious)
        # residual projections at numerical zero
        from labelsmith.concepts import _orthogonalized

        basis = _orthogonalized(table.concepts[:2])
        dots = cleaned.records @ basis.T
        assert np.abs(dots).max() < 1e-10
        # norms never increase
        assert (
            np.linalg.norm(cleaned.records, axis=1)
            <= np.linalg.norm(table.records, axis=1) + 1e-12
        ).all()
        # idempotent
        twice = reject_spurious(cleaned, spurious)
        np.testing.assert_allclose(twice.records, cleaned.records, atol=1e-12)

    def test_concepts_untouched_and_order_invariant(self):
        table, spurious = self._random_table(12)
        cleaned = reject_spurious(table, spurious)
        np.testing.assert_array_equal(cleaned.concepts, table.concepts)
        flipped = reject_spurious(table, list(reversed(spurious)))
        np.testing.assert_allclose(cleaned.records, flipped.records, atol=1e-10)

    def test_empty_spurious_is_identity(self):
        table, _ = self._random_table(14)
        assert reject_spurious(table, []) is table

    def test_unknown_name_or_index(self):
        table, _ = self._random_table(15)
        with pytest.raises(ConceptError, match="'tail'"):
            reject_spurious(table, ["tail"])
        # concepts are named; an index names none
        with pytest.raises(ConceptError, match="spurious concept 0 is not in the table"):
            reject_spurious(table, [0])

    def test_duplicate_directions_collapse(self):
        # second direction is a multiple of the first; projection must not double
        records = np.array([[3.0, 4.0], [1.0, 0.0]])
        concepts = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        table = make_table(records, concepts)
        cleaned = reject_spurious(table, ["c0", "c1"])
        np.testing.assert_allclose(cleaned.records, [[0.0, 4.0], [0.0, 0.0]], atol=1e-12)


class TestEmbeddingIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        table = make_table(rng.normal(size=(7, 5)), rng.normal(size=(3, 5)))
        save_embeddings(tmp_path / "emb", table)
        loaded = load_embeddings(tmp_path / "emb")
        np.testing.assert_array_equal(loaded.records, table.records)
        np.testing.assert_array_equal(loaded.concepts, table.concepts)
        assert loaded.concept_names == table.concept_names
        assert loaded.record_ids == table.record_ids

    def test_size_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(22)
        table = make_table(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)))
        bin_path, json_path = save_embeddings(tmp_path / "emb", table)
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ConceptError, match="doubles"):
            load_embeddings(tmp_path / "emb")

    def test_bin_is_the_array_layout_and_checked(self, tmp_path):
        rng = np.random.default_rng(23)
        table = make_table(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)))
        bin_path, json_path = save_embeddings(tmp_path / "emb", table)
        assert bin_path.read_bytes() == table.records.astype("<f8").tobytes() + table.concepts.astype("<f8").tobytes()
        assert set(json.loads(json_path.read_text(encoding="utf-8"))) == {"n", "C", "d", "concepts", "record_ids"}
        bin_path.write_bytes(np.full(1, np.nan).astype("<f8").tobytes() + bin_path.read_bytes()[8:])
        with pytest.raises(ConceptError, match=r"emb\.bin: value 0 is nan"):
            load_embeddings(tmp_path / "emb")
        # the sidecar's names must fit its shapes
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        json_path.write_text(json.dumps({**doc, "concepts": ["only one"]}), encoding="utf-8")
        bin_path.write_bytes(table.records.astype("<f8").tobytes() + table.concepts.astype("<f8").tobytes())
        with pytest.raises(ConceptError, match=r"emb: concept_names must match concept rows"):
            load_embeddings(tmp_path / "emb")

    def test_missing_sidecar(self, tmp_path):
        with pytest.raises(ConceptError, match="cannot read"):
            load_embeddings(tmp_path / "nope")

    def test_sidecar_without_record_ids_refused(self, tmp_path):
        rng = np.random.default_rng(24)
        _, json_path = save_embeddings(tmp_path / "emb", make_table(rng.normal(size=(3, 2)), rng.normal(size=(2, 2))))
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        del doc["record_ids"]
        json_path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConceptError, match=r"emb\.json: missing field 'record_ids'"):
            load_embeddings(tmp_path / "emb")

    def test_table_validation(self):
        with pytest.raises(ConceptError, match="dimension mismatch"):
            make_table([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(ConceptError, match="finite"):
            make_table([[np.nan, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ConceptError, match="concept_names"):
            EmbeddingTable(
                records=np.ones((1, 2)),
                concepts=np.ones((1, 2)),
                concept_names=("a", "b"),
                record_ids=("r0",),
            )
