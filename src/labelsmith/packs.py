"""Shipped task packs: one JSON file per supported dataset.

A pack bundles everything needed to prompt for labeling programs on a
task: the class list, the task description, house labeling instructions
(class-index mapping plus the abstain convention), and the expected rule
format. The waterbirds pack additionally carries the concept-elicitation
prompt and the score-prompt template for the scores modality.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from typing import Sequence

from .data import ClassSpace, LabelsmithError, json_field, read_json


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


def _component(doc, key: str) -> str:
    text = json_field(doc, key, str)
    if not text.strip():
        raise PackError(f"{key!r} must hold more than whitespace")
    return text


def _pack_from_doc(doc) -> TaskPack:
    name = json_field(doc, "name", str)
    known = {field.name for field in fields(TaskPack)}
    for key in doc:
        if key not in known:
            raise PackError(f"unknown field {key!r}")
    return TaskPack(
        name=name,
        summary=doc.get("summary", ""),
        classes=tuple(json_field(doc, "classes", list)),
        task_description=_component(doc, "task_description"),
        labeling_instructions=_component(doc, "labeling_instructions"),
        function_signature=_component(doc, "function_signature"),
        concept_prompt=doc.get("concept_prompt"),
        score_prompt_intro=doc.get("score_prompt_intro"),
        score_prompt_outro=doc.get("score_prompt_outro"),
        example_concepts=tuple(doc.get("example_concepts", ())),
    )
