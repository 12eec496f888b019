"""Shipped task packs: one JSON file per supported dataset.

A pack bundles everything needed to prompt for labeling programs on a
task: the class list, the task description, house labeling instructions
(class-index mapping plus the abstain convention), and the expected rule
format. The waterbirds pack additionally carries the concept-elicitation
prompt and the score-prompt template for the scores modality.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Sequence

from .data import ClassSpace, LabelsmithError, json_field, read_json

if TYPE_CHECKING:
    from .prompting import PromptSpec, SupplementBlock


class PackError(LabelsmithError):
    """Unknown pack name or malformed pack file."""


@dataclass(frozen=True)
class TaskPack:
    name: str
    summary: str
    classes: tuple[str, ...]
    task_description: str
    labeling_instructions: str
    function_signature: str
    concept_prompt: str | None = None
    score_prompt_intro: str | None = None
    score_prompt_outro: str | None = None
    example_concepts: tuple[str, ...] = ()

    def class_space(self) -> ClassSpace:
        return ClassSpace(names=self.classes)

    def prompt_spec(self, supplements: Sequence[SupplementBlock] = ()) -> PromptSpec:
        from .prompting import PromptSpec  # only generate prompts; other commands never load it
        return PromptSpec(
            task_description=self.task_description,
            labeling_instructions=self.labeling_instructions,
            function_signature=self.function_signature,
            supplements=tuple(supplements),
        )

    def score_prompt(self, concepts: Sequence[str]) -> str:
        """Render the scores-modality generation prompt for given concepts."""
        if self.score_prompt_intro is None or self.score_prompt_outro is None:
            raise PackError(f"pack {self.name!r} has no score prompt template")
        if not concepts:
            raise PackError("score prompt needs at least one concept")
        listed = "; ".join(f'["{c}"]' for c in concepts)
        return self.score_prompt_intro + listed + self.score_prompt_outro


def _pack_dir():
    return resources.files("labelsmith") / "taskpacks"


def available_packs() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _pack_dir().iterdir() if p.name.endswith(".json"))


def load_pack(name: str) -> TaskPack:
    try:
        return read_json(_pack_dir() / f"{name}.json", _pack_from_doc, error=PackError)
    except FileNotFoundError:
        raise PackError(
            f"unknown task pack {name!r}; available: {', '.join(available_packs())}"
        ) from None


def _pack_from_doc(doc) -> TaskPack:
    return TaskPack(
        name=json_field(doc, "name", str),
        summary=doc.get("summary", ""),
        classes=tuple(doc["classes"]),
        task_description=doc["task_description"],
        labeling_instructions=doc["labeling_instructions"],
        function_signature=doc["function_signature"],
        concept_prompt=doc.get("concept_prompt"),
        score_prompt_intro=doc.get("score_prompt_intro"),
        score_prompt_outro=doc.get("score_prompt_outro"),
        example_concepts=tuple(doc.get("example_concepts", ())),
    )
