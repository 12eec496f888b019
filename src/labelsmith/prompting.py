"""Prompt assembly, chat-completions transport, and cost accounting.

A prompt holds a task pack's three components (task description,
labeling instructions, function signature), after any of four optional
supplements. Assembly is deterministic: same arguments, same bytes.

The transport speaks the common chat-completions JSON shape (single user
message) against a configurable endpoint, with retries and exponential
backoff. Every request is recorded: ``request_completion`` writes the
request with its response (or terminal error) to a raw-reply file before
any parsing happens, so a run can always be audited offline. Program
generation and concept elicitation both go through it. A file-backed mock
transport stands in for the network in tests and offline runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .data import MAX_RATE_PER_1K, ClassSpace, LabelsmithError, parse_json, read_json, write_json
from .dsl import RuleProgram
from .dsl.extract import ExtractionError, extract_program

if TYPE_CHECKING:
    from .packs import TaskPack


class PromptError(LabelsmithError):
    """A generation job is malformed."""


class TransportError(LabelsmithError):
    """The completions endpoint could not produce a usable response."""


def build_prompt(
    pack: TaskPack,
    *,
    description: str | None = None,
    exemplars: Sequence[tuple[str, str]] = (),
    keywords: str | None = None,
    rules: str | None = None,
) -> str:
    """The generation prompt for ``pack``: the supplements in this order,
    then the pack's three components, each section ``## Heading\\nbody``,
    joined by blank lines, ending in a newline. A section whose body is
    None or holds only whitespace is left out. ``exemplars`` are (text,
    class name) pairs, one ``N. "<json text>" -> class`` line each. Same
    arguments, same bytes."""
    examples = "\n".join(
        f"{i}. {json.dumps(text, ensure_ascii=False)} -> {cls}" for i, (text, cls) in enumerate(exemplars, 1)
    )
    sections = {
        "Dataset Description": description,
        "Data Exemplars": examples,
        "Keywords": keywords,
        "Labeling Rules": rules,
        "Task Description": pack.task_description,
        "Labeling Instructions": pack.labeling_instructions,
        "Function Signature": pack.function_signature,
    }
    kept = (f"## {heading}\n{body}" for heading, body in sections.items() if body and body.strip())
    return "\n\n".join(kept) + "\n"


# a request is tried RETRY_ATTEMPTS times; the wait before a retry starts
# at BACKOFF_S seconds and grows by BACKOFF_MULTIPLIER each time
RETRY_ATTEMPTS = 3
BACKOFF_S = 0.5
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class GenerationJob:
    """``n_programs`` requests of ``prompt``, the rendered prompt text."""

    prompt: str
    model: str
    n_programs: int = 10
    temperature: float = 0.5
    max_tokens: int | None = None

    def __post_init__(self):
        if self.n_programs < 1:
            raise PromptError("n_programs must be at least 1")
        if not (0.0 <= self.temperature <= 2.0):
            raise PromptError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise PromptError(f"max_tokens must be at least 1, got {self.max_tokens}")

    def request_body(self) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": self.prompt}],
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
            # decoded strictly: json.loads of bytes lets an encoded surrogate through
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TransportError(f"response is not JSON: {exc}") from exc
        return parse_json(text, "response", error=TransportError)


class MockTransport:
    """Replays canned responses, in order, cycling when exhausted; a
    fixture file holds them as {"responses": [...]}. Entries are either
    {"content": "..."} (a successful completion), a full response object
    under {"response": {...}}, or {"error": "..."} (raises TransportError,
    for retry testing)."""

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
        if not isinstance(doc, dict) or "responses" not in doc:
            raise PromptError('a mock fixture must be an object {"responses": [...]}')
        return cls(doc["responses"])

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
    transport: Transport,
    body: dict,
    path: str | Path,
    sleep: Callable[[float], None],
    **fields,
) -> tuple[dict, int]:
    """One logical request with retries; returns (response, attempts used).

    Before it returns or raises, writes ``fields`` with the ``request``,
    the ``attempts`` and the ``response`` or terminal ``error`` to ``path``,
    creating its directory. Raises TransportError after the last attempt
    fails."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    record = {**fields, "request": body}
    delay = BACKOFF_S
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            response = transport.complete(body)
        except TransportError as exc:
            last = exc
            if attempt < RETRY_ATTEMPTS:
                sleep(delay)
                delay *= BACKOFF_MULTIPLIER
            continue
        write_json(path, {**record, "attempts": attempt, "response": response})
        return response, attempt
    error = TransportError(f"giving up after {RETRY_ATTEMPTS} attempts: {last}")
    write_json(path, {**record, "attempts": RETRY_ATTEMPTS, "error": str(error)})
    raise error from last


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
    out_dir: str | Path,
    sleep: Callable[[float], None] = time.sleep,
) -> list[SlotResult]:
    """Issue ``job.n_programs`` independent requests and extract one program
    from each response (first fenced block that parses).

    Every raw response or terminal error is written to
    ``<out_dir>/raw/<slot>.json`` before extraction, so partial failures
    leave a full audit trail. Failures never abort the batch.
    """
    body = job.request_body()
    results: list[SlotResult] = []
    for slot in range(job.n_programs):
        text = program = error = None
        attempts = RETRY_ATTEMPTS
        try:
            response, attempts = request_completion(
                transport, body, Path(out_dir) / "raw" / f"{slot}.json", sleep, slot=slot
            )
            text = response_text(response)
            program = extract_program(text, class_space, program_id=f"slot{slot}")
        except TransportError as exc:
            error = str(exc)
        except ExtractionError as exc:
            error = str(exc) if not exc.errors else f"{exc}: " + "; ".join(exc.errors)
        results.append(SlotResult(slot, attempts, program, text, error))
    return results


@dataclass(frozen=True)
class Pricing:
    input_per_1k: float
    output_per_1k: float

    def __post_init__(self):
        if self.input_per_1k is None or self.output_per_1k is None:
            raise PromptError("pricing needs both input and output rates")
        # a NaN or infinite rate, or one so large that the cost overflows,
        # would write a dollar figure JSON cannot hold
        rates = (self.input_per_1k, self.output_per_1k)
        if not all(0 <= rate < math.inf for rate in rates):
            raise PromptError("pricing rates must be finite and nonnegative")
        if max(rates) > MAX_RATE_PER_1K:
            raise PromptError(f"pricing rates must be at most {MAX_RATE_PER_1K} dollars per 1k tokens")


@dataclass(frozen=True)
class CostEstimate:
    input_tokens: int
    output_tokens: int
    price_per_1k_input: float
    price_per_1k_output: float
    dollars: float

    def to_dict(self) -> dict:
        return asdict(self)


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
