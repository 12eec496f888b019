"""Pull rule programs out of raw model completions.

Completions usually wrap programs in fenced code blocks, one program per
block, often with prose around them. The extractor parses each block in
turn so one malformed block does not sink a later good one. Plain string
splitting finds the fences, so no pattern reads the whole completion.
"""

from __future__ import annotations

from ..data import ClassSpace
from .ast import DslError, RuleProgram
from .parser import parse_program


class ExtractionError(DslError):
    """No usable program in a completion; carries every parse error seen."""

    def __init__(self, message: str, errors: tuple[str, ...] = ()):
        super().__init__(message)
        self.errors = tuple(errors)


def fenced_blocks(text: str) -> list[str]:
    """The non-empty fenced code blocks of ``text``, in order, each
    stripped and without a first line that is empty or a language tag."""
    parts = text.split("```")
    blocks = []
    for idx in range(1, len(parts), 2):
        chunk = parts[idx]
        head, sep, rest = chunk.partition("\n")
        # drop a language tag line like ```text or ```dsl
        if sep and (not head.strip() or _is_language_tag(head.strip())):
            chunk = rest
        blocks.append(chunk.strip())
    return [b for b in blocks if b]


def _is_language_tag(word: str) -> bool:
    return len(word) <= 20 and all(c.isalnum() or c in "_+-." for c in word) and "->" not in word


def extract_program(
    text: str, class_space: ClassSpace, program_id: str | None = None
) -> RuleProgram:
    """The first fenced code block that parses as a program.

    Raises ExtractionError when the completion has no fenced blocks
    ("no program found") or when every block fails, carrying the per-block
    parse errors either way.
    """
    blocks = fenced_blocks(text)
    if not blocks:
        raise ExtractionError("no program found")
    errors = []
    for idx, block in enumerate(blocks, start=1):
        try:
            return parse_program(block, class_space, program_id=program_id)
        except DslError as exc:
            errors.append(f"block {idx}: {exc}")
    raise ExtractionError(
        f"none of the {len(blocks)} code blocks parse as a program", tuple(errors)
    )
