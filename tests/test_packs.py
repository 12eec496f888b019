"""Shipped task packs: loading, field contracts, prompt rendering."""

import pytest

from labelsmith.data import LabelsmithError
from labelsmith.packs import PackError, _pack_from_doc, available_packs, load_pack
from labelsmith.prompting import build_prompt

EXPECTED_PACKS = [
    "cancer",
    "finance",
    "french",
    "imdb",
    "medabs",
    "sms",
    "waterbirds",
    "yelp",
    "youtube",
]


class TestLoading:
    def test_available_packs_sorted(self):
        assert available_packs() == EXPECTED_PACKS

    @pytest.mark.parametrize("name", EXPECTED_PACKS)
    def test_every_pack_loads(self, name):
        pack = load_pack(name)
        assert pack.name == name
        # a pack that elicits concepts can also render the score prompt
        assert (pack.concept_prompt is None) == (pack.score_prompt_intro is None)
        assert len(pack.classes) >= 2
        assert pack.task_description
        assert pack.labeling_instructions
        assert pack.function_signature
        space = pack.class_space()
        assert space.K == len(pack.classes)

    def test_unknown_pack_lists_available(self):
        with pytest.raises(PackError) as exc:
            load_pack("agnews")
        msg = str(exc.value)
        assert "agnews" in msg
        for name in EXPECTED_PACKS:
            assert name in msg

    def test_class_indices_match_instruction_text(self):
        # the house instructions spell out the index of every class
        for name in EXPECTED_PACKS:
            pack = load_pack(name)
            for idx, cls in enumerate(pack.classes):
                assert f"{idx}" in pack.labeling_instructions, (name, cls)

    def test_abstain_convention_stated(self):
        for name in EXPECTED_PACKS:
            pack = load_pack(name)
            assert "-1" in pack.labeling_instructions, name


class TestPackReader:
    DOC = {
        "name": "t",
        "classes": ["spam", "ham"],
        "task_description": "Label texts.",
        "labeling_instructions": "Return 0 for spam, 1 for ham, -1 to abstain.",
        "function_signature": "rule: contains(\"x\") -> spam;",
    }

    def test_unknown_key_named(self):
        with pytest.raises(PackError, match="^unknown field 'labeling_instructions_wording'$"):
            _pack_from_doc({**self.DOC, "labeling_instructions_wording": "house"})

    def test_classes_must_be_a_list(self):
        # tuple() of a string would make each character a class
        with pytest.raises(LabelsmithError, match="^'classes' must be a list, got a string$"):
            _pack_from_doc({**self.DOC, "classes": "spam"})


class TestFieldLiterals:
    def test_medabs_task_description(self):
        pack = load_pack("medabs")
        assert pack.task_description == (
            "Write a bug-free and executable function in python to label "
            "the topic of medical abstract."
        )

    def test_medabs_classes(self):
        pack = load_pack("medabs")
        assert pack.classes == (
            "neoplasms",
            "digestive system diseases",
            "nervous system diseases",
            "cardiovascular diseases",
            "general pathological conditions",
        )

    def test_waterbirds_is_scores_modality(self):
        pack = load_pack("waterbirds")
        assert pack.score_prompt(list(pack.example_concepts)).startswith(pack.score_prompt_intro)
        assert pack.concept_prompt is not None
        assert len(pack.example_concepts) == 2

    def test_text_packs_have_no_concept_prompt(self):
        for name in EXPECTED_PACKS:
            if name == "waterbirds":
                continue
            pack = load_pack(name)
            with pytest.raises(PackError, match="no score prompt template"):
                pack.score_prompt(["anything"])
            assert pack.concept_prompt is None


class TestScorePrompt:
    def test_waterbirds_render(self):
        pack = load_pack("waterbirds")
        concepts = list(pack.example_concepts)
        rendered = pack.score_prompt(concepts)
        listed = "; ".join(f'["{c}"]' for c in concepts)
        assert rendered == pack.score_prompt_intro + listed + pack.score_prompt_outro
        assert '["A bird\'s foot type is toed, grasping"]' in rendered

    def test_single_concept(self):
        pack = load_pack("waterbirds")
        rendered = pack.score_prompt(["has webbed feet"])
        assert '["has webbed feet"]' in rendered
        assert "; " not in rendered[len(pack.score_prompt_intro):
                                    len(rendered) - len(pack.score_prompt_outro)]

    def test_empty_concepts_rejected(self):
        pack = load_pack("waterbirds")
        with pytest.raises(PackError, match="at least one concept"):
            pack.score_prompt([])

    def test_text_pack_has_no_template(self):
        pack = load_pack("sms")
        with pytest.raises(PackError, match="no score prompt template"):
            pack.score_prompt(["anything"])


class TestPromptIntegration:
    def test_pack_prompt_builds(self):
        pack = load_pack("youtube")
        prompt = build_prompt(pack)
        assert "## Task Description" in prompt
        assert "## Labeling Instructions" in prompt
        assert "## Function Signature" in prompt
        assert pack.task_description in prompt
        assert pack.function_signature in prompt

    def test_signature_names_the_rule_entrypoint(self):
        for name in EXPECTED_PACKS:
            pack = load_pack(name)
            assert "rule" in pack.function_signature
