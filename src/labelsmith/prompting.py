"""Prompt assembly, chat-completions transport, and cost accounting.

A prompt has three core components (task description, labeling
instructions, function signature) plus optional supplement blocks that
always come first. Assembly is deterministic: same spec, same bytes.

The transport speaks the common chat-completions JSON shape (single user
message) against a configurable endpoint, with retries and exponential
backoff. Every response (or terminal error) is persisted verbatim before
any parsing happens, so a run can always be audited offline. A file-backed
mock transport stands in for the network in tests and offline runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .data import ClassSpace, LabelsmithError, read_json, write_json
from .dsl import RuleProgram
from .dsl.extract import ExtractionError, extract_program

SUPPLEMENT_KINDS = ("DatasetDescription", "DataExemplars", "Keywords", "LabelingRules")

_HEADINGS = {
    "DatasetDescription": "Dataset Description",
    "DataExemplars": "Data Exemplars",
    "Keywords": "Keywords",
    "LabelingRules": "Labeling Rules",
}


class PromptError(LabelsmithError):
    """A prompt spec or generation job is malformed."""


class TransportError(LabelsmithError):
    """The completions endpoint could not produce a usable response."""


@dataclass(frozen=True)
class SupplementBlock:
    """One optional context block. ``exemplars`` is only meaningful for
    DataExemplars: (text, class name) pairs rendered one per line."""

    kind: str
    body: str = ""
    exemplars: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        if self.kind not in SUPPLEMENT_KINDS:
            raise PromptError(
                f"unknown supplement kind {self.kind!r}; expected one of {SUPPLEMENT_KINDS}"
            )
        if self.exemplars is not None:
            if self.kind != "DataExemplars":
                raise PromptError("exemplars belong only in a DataExemplars block")
            object.__setattr__(
                self, "exemplars", tuple((str(t), str(c)) for t, c in self.exemplars)
            )
        if self.kind == "DataExemplars" and not self.exemplars and not self.body:
            raise PromptError("a DataExemplars block needs exemplars or a body")
        if self.kind != "DataExemplars" and not self.body:
            raise PromptError(f"a {self.kind} block needs a body")

    def render(self) -> str:
        lines = [f"## {_HEADINGS[self.kind]}"]
        if self.body:
            lines.append(self.body)
        if self.exemplars:
            for idx, (text, cls) in enumerate(self.exemplars, start=1):
                lines.append(f"{idx}. {json.dumps(text, ensure_ascii=False)} -> {cls}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PromptSpec:
    """The assembled-prompt recipe. Supplements render first (in given
    order), then task description, labeling instructions, and the function
    signature."""

    task_description: str
    labeling_instructions: str
    function_signature: str
    supplements: tuple[SupplementBlock, ...] = ()

    def __post_init__(self):
        for name in ("task_description", "labeling_instructions", "function_signature"):
            if not getattr(self, name).strip():
                raise PromptError(f"prompt component {name} must be non-empty")
        object.__setattr__(self, "supplements", tuple(self.supplements))


def build_prompt(spec: PromptSpec) -> str:
    """Deterministic concatenation; byte-identical across runs."""
    sections = [block.render() for block in spec.supplements]
    sections.append("## Task Description\n" + spec.task_description)
    sections.append("## Labeling Instructions\n" + spec.labeling_instructions)
    sections.append("## Function Signature\n" + spec.function_signature)
    return "\n\n".join(sections) + "\n"


# a request is tried RETRY_ATTEMPTS times; the wait before a retry starts
# at BACKOFF_S seconds and grows by BACKOFF_MULTIPLIER each time
RETRY_ATTEMPTS = 3
BACKOFF_S = 0.5
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class GenerationJob:
    prompt: PromptSpec
    model: str
    n_programs: int = 10
    temperature: float = 0.5
    max_tokens: int | None = None

    def __post_init__(self):
        if self.n_programs < 1:
            raise PromptError("n_programs must be at least 1")
        if not (0.0 <= self.temperature <= 2.0):
            raise PromptError(f"temperature must be in [0, 2], got {self.temperature}")

    def request_body(self) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": build_prompt(self.prompt)}],
            "temperature": self.temperature,
        }
        if self.max_tokens is not None:
            body["max_tokens"] = self.max_tokens
        return body


class Transport(Protocol):
    def complete(self, body: dict) -> dict:
        """POST one chat-completions request; returns the response JSON.
        Raises TransportError on network/HTTP/decode failure."""
        ...


API_KEY_ENV = "LABELSMITH_API_KEY"
TIMEOUT_S = 60.0


class HttpTransport:
    """Real network transport. The API key comes from the environment, never
    from config files or the command line."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise TransportError(
                f"no API key: set the {API_KEY_ENV} environment variable, "
                "or run with --mock <fixture> to stay offline"
            )
        self._key = key

    def complete(self, body: dict) -> dict:
        # imported here: urllib.request loads http.client and ssl, which
        # would add megabytes and tens of milliseconds to every command's
        # startup, not only generate's
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                payload = resp.read()
        except urllib.error.HTTPError as exc:
            text = exc.read().decode("utf-8", errors="replace")
            raise TransportError(f"HTTP {exc.code}: {text[:200]}") from exc
        except OSError as exc:  # URLError, refused connections and timeouts
            raise TransportError(f"request failed: {exc}") from exc
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise TransportError(f"response is not JSON: {exc}") from exc


class MockTransport:
    """Replays canned responses from a fixture file, in order, cycling when
    exhausted. Entries are either {"content": "..."} (a successful
    completion), a full response object under {"response": {...}}, or
    {"error": "..."} (raises TransportError, for retry testing)."""

    def __init__(self, entries: Sequence[dict]):
        if not isinstance(entries, (list, tuple)) or not entries:
            raise PromptError("mock fixture has no responses")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise PromptError(f"mock entry {i} must be an object")
            if not isinstance(entry.get("content", ""), str):
                raise PromptError(f"mock entry {i}: content must be a string")
            if not isinstance(entry.get("response", {}), dict):
                raise PromptError(f"mock entry {i}: response must be an object")
        self.entries = list(entries)
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "MockTransport":
        return read_json(path, cls._from_doc, error=PromptError)

    @classmethod
    def _from_doc(cls, doc) -> "MockTransport":
        if isinstance(doc, dict) and "responses" in doc:
            return cls(doc["responses"])
        if isinstance(doc, list):
            return cls(doc)
        raise PromptError("a mock fixture must be a list or have a 'responses' key")

    def complete(self, body: dict) -> dict:
        entry = self.entries[self.calls % len(self.entries)]
        self.calls += 1
        if "error" in entry:
            raise TransportError(str(entry["error"]))
        if "response" in entry:
            return entry["response"]
        if "content" in entry:
            return {
                "choices": [{"message": {"role": "assistant", "content": entry["content"]}}],
                "usage": {},
            }
        raise TransportError(f"mock entry {self.calls - 1} has no content/response/error")


def response_text(response: dict) -> str:
    """The assistant text out of a chat-completions response."""
    try:
        content = response["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"response missing choices[0].message.content: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError("response choices[0].message.content is not a string")
    return content


def request_completion(
    transport: Transport, body: dict, sleep: Callable[[float], None]
) -> tuple[dict, int]:
    """One logical request with retries; returns (response, attempts used).
    Raises TransportError after the last attempt fails."""
    delay = BACKOFF_S
    last: TransportError | None = None
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            return transport.complete(body), attempt
        except TransportError as exc:
            last = exc
            if attempt < RETRY_ATTEMPTS:
                sleep(delay)
                delay *= BACKOFF_MULTIPLIER
    raise TransportError(f"giving up after {RETRY_ATTEMPTS} attempts: {last}") from last


@dataclass(frozen=True)
class SlotResult:
    """Outcome of one generation request."""

    slot: int
    attempts: int
    program: RuleProgram | None
    response_text: str | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.program is not None


def generate_programs(
    job: GenerationJob,
    class_space: ClassSpace,
    transport: Transport,
    out_dir: str | Path | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[SlotResult]:
    """Issue ``job.n_programs`` independent requests and extract one program
    from each response (first fenced block that parses).

    When ``out_dir`` is given, every raw response or terminal error is
    written to ``<out_dir>/raw/<slot>.json`` before extraction, so partial
    failures leave a full audit trail. Failures never abort the batch.
    """
    raw_dir = None
    if out_dir is not None:
        raw_dir = Path(out_dir) / "raw"
        raw_dir.mkdir(parents=True, exist_ok=True)
    body = job.request_body()
    results: list[SlotResult] = []
    for slot in range(job.n_programs):
        text = None
        error = None
        attempts = RETRY_ATTEMPTS
        try:
            response, attempts = request_completion(transport, body, sleep)
            artifact = {"slot": slot, "attempts": attempts, "request": body, "response": response}
        except TransportError as exc:
            error = str(exc)
            artifact = {"slot": slot, "attempts": attempts, "request": body, "error": error}
            response = None
        if raw_dir is not None:
            write_json(raw_dir / f"{slot}.json", artifact)
        program = None
        if response is not None:
            try:
                text = response_text(response)
            except TransportError as exc:
                error = str(exc)
            if text is not None:
                try:
                    program = extract_program(text, class_space, program_id=f"slot{slot}")
                except ExtractionError as exc:
                    error = str(exc) if not exc.errors else f"{exc}: " + "; ".join(exc.errors)
        results.append(
            SlotResult(
                slot=slot,
                attempts=attempts,
                program=program,
                response_text=text,
                error=error,
            )
        )
    return results


@dataclass(frozen=True)
class Pricing:
    input_per_1k: float
    output_per_1k: float

    def __post_init__(self):
        if self.input_per_1k is None or self.output_per_1k is None:
            raise PromptError("pricing needs both input and output rates")
        if self.input_per_1k < 0 or self.output_per_1k < 0:
            raise PromptError("pricing rates must be nonnegative")


@dataclass(frozen=True)
class CostEstimate:
    input_tokens: int
    output_tokens: int
    price_per_1k_input: float
    price_per_1k_output: float
    dollars: float

    def to_dict(self) -> dict:
        return {
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "price_per_1k_input": self.price_per_1k_input,
            "price_per_1k_output": self.price_per_1k_output,
            "dollars": self.dollars,
        }


def heuristic_tokens(text: str) -> int:
    """Cheap tokenizer stand-in: one token per 4 UTF-8 bytes, rounded up.
    Scaling behavior, not exact provider dollars, is what this package
    guarantees."""
    return math.ceil(len(text.encode("utf-8")) / 4)


def estimate_cost(
    texts_in: Sequence[str],
    texts_out: Sequence[str],
    pricing: Pricing,
) -> CostEstimate:
    """dollars = (input_tokens * rate_in + output_tokens * rate_out) / 1000,
    tokens counted by ``heuristic_tokens``."""
    tokens_in = sum(heuristic_tokens(t) for t in texts_in)
    tokens_out = sum(heuristic_tokens(t) for t in texts_out)
    dollars = (tokens_in * pricing.input_per_1k + tokens_out * pricing.output_per_1k) / 1000.0
    return CostEstimate(
        input_tokens=tokens_in,
        output_tokens=tokens_out,
        price_per_1k_input=pricing.input_per_1k,
        price_per_1k_output=pricing.output_per_1k,
        dollars=dollars,
    )
