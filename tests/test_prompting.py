import io
import json
import math
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from labelsmith.concepts import elicit_concepts
from labelsmith import prompting
from labelsmith.data import MAX_RATE_PER_1K, ClassSpace
from labelsmith.packs import PackError, TaskPack, _pack_from_doc
from labelsmith.prompting import (
    API_KEY_ENV,
    BACKOFF_MULTIPLIER,
    BACKOFF_S,
    RETRY_ATTEMPTS,
    CostEstimate,
    GenerationJob,
    HttpTransport,
    MockTransport,
    Pricing,
    PromptError,
    TIMEOUT_S,
    TransportError,
    build_prompt,
    estimate_cost,
    generate_programs,
    heuristic_tokens,
    request_completion,
    response_text,
)

FIXTURES = Path(__file__).parent / "fixtures" / "mock"

CORE = dict(
    task_description="Decide whether a message is spam.",
    labeling_instructions="Return 0 for spam, 1 for ham, -1 to abstain.",
    function_signature='rule: contains("example") -> spam;',
)


def make_pack():
    return TaskPack(name="t", summary="", classes=("spam", "ham"), **CORE)


class TestBuildPrompt:
    def test_bare_spec_is_exactly_three_sections(self):
        expected = (
            "## Task Description\nDecide whether a message is spam.\n\n"
            "## Labeling Instructions\nReturn 0 for spam, 1 for ham, -1 to abstain.\n\n"
            '## Function Signature\nrule: contains("example") -> spam;\n'
        )
        assert build_prompt(make_pack()) == expected

    def test_supplements_render_first_in_fixed_order(self):
        prompt = build_prompt(
            make_pack(),
            rules="Prizes are spam.",
            keywords="win, cash, prize",
            exemplars=[("WIN cash now", "spam"), ('see "you" at lunch é', "ham")],
            description="Short texts.",
        )
        expected = (
            "## Dataset Description\nShort texts.\n\n"
            '## Data Exemplars\n1. "WIN cash now" -> spam\n2. "see \\"you\\" at lunch é" -> ham\n\n'
            "## Keywords\nwin, cash, prize\n\n"
            "## Labeling Rules\nPrizes are spam.\n\n"
        )
        assert prompt == expected + build_prompt(make_pack())

    def test_empty_supplements_are_left_out(self):
        bare = build_prompt(make_pack())
        assert build_prompt(make_pack(), description="", exemplars=(), keywords="", rules=None) == bare

    def test_blank_supplements_are_left_out(self):
        bare = build_prompt(make_pack())
        assert build_prompt(make_pack(), description=" \n", keywords="   ", rules="\t\n") == bare

    def test_deterministic(self):
        pack = make_pack()
        assert build_prompt(pack, description="Texts.") == build_prompt(pack, description="Texts.")

    @pytest.mark.parametrize(
        "field", ["task_description", "labeling_instructions", "function_signature"]
    )
    def test_empty_core_component_named(self, field):
        # the pack reader refuses a component no prompt could use
        doc = {"name": "t", "classes": ["spam", "ham"], **CORE, field: "   "}
        with pytest.raises(PackError, match=f"^'{field}' must hold more than whitespace$"):
            _pack_from_doc(doc)


class TestJobValidation:
    # the CLI checks its flags itself; these guard the Python API
    def test_temperature_range(self):
        for temperature in (3.0, -0.1, math.nan):
            with pytest.raises(PromptError, match=re.escape(f"temperature must be in [0, 2], got {temperature}")):
                GenerationJob(prompt=build_prompt(make_pack()), model="m", temperature=temperature)

    def test_n_programs_positive(self):
        with pytest.raises(PromptError, match="^n_programs must be at least 1$"):
            GenerationJob(prompt=build_prompt(make_pack()), model="m", n_programs=0)

    def test_request_body_shape(self):
        job = GenerationJob(
            prompt=build_prompt(make_pack()), model="test-model", max_tokens=512
        )
        body = job.request_body()
        assert body["model"] == "test-model"
        assert body["max_tokens"] == 512
        assert body["messages"][0]["role"] == "user"
        assert body["messages"][0]["content"] == build_prompt(make_pack())

    @pytest.mark.parametrize("max_tokens", [0, -3])
    def test_max_tokens_positive(self, max_tokens):
        with pytest.raises(PromptError, match=f"max_tokens must be at least 1, got {max_tokens}"):
            GenerationJob(prompt=build_prompt(make_pack()), model="m", max_tokens=max_tokens)


class TestRetries:
    def test_two_failures_then_success_uses_three_attempts(self, tmp_path):
        transport = MockTransport(
            [{"error": "HTTP 500"}, {"error": "HTTP 500"}, {"content": "ok"}]
        )
        delays = []
        response, attempts = request_completion(transport, {"x": 1}, tmp_path / "r.json", sleep=delays.append)
        assert attempts == 3
        assert response_text(response) == "ok"
        assert delays == [BACKOFF_S, BACKOFF_S * BACKOFF_MULTIPLIER]

    def test_exhausted_retries_raise(self, tmp_path):
        transport = MockTransport([{"error": "HTTP 503"}])
        with pytest.raises(TransportError, match=f"giving up after {RETRY_ATTEMPTS} attempts"):
            request_completion(transport, {}, tmp_path / "r.json", sleep=lambda _: None)

    def test_no_sleep_after_final_attempt(self, tmp_path):
        transport = MockTransport([{"error": "boom"}])
        delays = []
        with pytest.raises(TransportError):
            request_completion(transport, {}, tmp_path / "r.json", sleep=delays.append)
        assert len(delays) == RETRY_ATTEMPTS - 1


class TestMockTransport:
    def test_cycles_when_exhausted(self):
        transport = MockTransport([{"content": "a"}, {"content": "b"}])
        texts = [response_text(transport.complete({})) for _ in range(5)]
        assert texts == ["a", "b", "a", "b", "a"]

    def test_from_file_reads_the_wrapped_form(self, tmp_path):
        as_dict = tmp_path / "dict.json"
        as_dict.write_text(json.dumps({"responses": [{"content": "y"}]}))
        assert response_text(MockTransport.from_file(as_dict).complete({})) == "y"

    def test_bad_fixture_shapes(self, tmp_path):
        bad = tmp_path / "bad.json"
        for doc in ("just a string", [{"content": "x"}], {"content": "x"}):
            bad.write_text(json.dumps(doc))
            with pytest.raises(PromptError, match="responses"):
                MockTransport.from_file(bad)
        with pytest.raises(PromptError, match="no responses"):
            MockTransport([])

    def test_entry_without_payload(self):
        transport = MockTransport([{"note": "nothing useful"}])
        with pytest.raises(TransportError):
            transport.complete({})

    def test_full_response_passthrough(self):
        doc = {"choices": [{"message": {"role": "assistant", "content": "hi"}}], "usage": {"total_tokens": 3}}
        transport = MockTransport([{"response": doc}])
        assert transport.complete({}) == doc


class TestHttpTransport:
    def test_missing_key_is_actionable(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(TransportError, match=f"{API_KEY_ENV}.*--mock"):
            HttpTransport("http://example.invalid")

    def test_posts_json_with_bearer_auth(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        seen = {}

        def fake_urlopen(request, timeout=None):
            seen.update(request=request, timeout=timeout)
            return io.BytesIO(b'{"choices": []}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        transport = HttpTransport("http://example.invalid/v1/chat")
        assert transport.complete({"model": "m"}) == {"choices": []}
        request = seen["request"]
        assert request.full_url == "http://example.invalid/v1/chat"
        assert request.get_method() == "POST"
        assert json.loads(request.data) == {"model": "m"}
        assert request.get_header("Authorization") == "Bearer sk-test"
        assert seen["timeout"] == TIMEOUT_S

    def test_http_error_status(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")

        def fake_urlopen(request, timeout=None):
            raise urllib.error.HTTPError(
                request.full_url, 500, "Internal Server Error", {}, io.BytesIO(b"upstream exploded")
            )

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(TransportError, match="HTTP 500: upstream exploded"):
            HttpTransport("http://example.invalid").complete({})

    def test_non_json_response(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: io.BytesIO(b"<html>"))
        with pytest.raises(TransportError, match=r"response:1: malformed JSON \(Expecting value\)"):
            HttpTransport("http://example.invalid").complete({})

    @pytest.mark.parametrize(
        "payload, match",
        [
            (rb'{"choices": [{"message": {"content": "x\ud800"}}]}', r"lone surrogate \\ud800, which UTF-8"),
            (b'{"choices": "caf\xe9"}', "not JSON: 'utf-8' codec can't decode"),
            (b"[" * 100_000, "JSON nested too deeply"),
            (b"[" + b"9" * 5000 + b"]", "response: JSON integer has too many digits to read"),
            (b'{"choices": [], "choices": []}', "response: duplicate key 'choices'"),
        ],
        ids=["lone-surrogate", "not-utf8", "nested-too-deeply", "long-integer", "repeated-key"],
    )
    def test_reply_that_no_artifact_could_hold(self, monkeypatch, payload, match):
        # write_json would fail on such a reply; the slot fails instead
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: io.BytesIO(payload))
        with pytest.raises(TransportError, match=match):
            HttpTransport("http://example.invalid").complete({})

    def test_nested_reply_fails_its_slot(self, monkeypatch, tmp_path):
        # a RecursionError would escape generate, which fails a slot on
        # TransportError only
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: io.BytesIO(b"[" * 100_000))
        job = GenerationJob(prompt=build_prompt(make_pack()), model="m", n_programs=1)
        transport = HttpTransport("http://example.invalid")
        [result] = generate_programs(job, ClassSpace(("spam", "ham")), transport, tmp_path, sleep=lambda _: None)
        assert not result.ok
        assert result.error.endswith("response: JSON nested too deeply"), result.error

    def test_network_exception_wrapped(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")

        def fake_urlopen(*a, **kw):
            raise urllib.error.URLError(ConnectionRefusedError("refused"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(TransportError, match="request failed.*refused"):
            HttpTransport("http://example.invalid").complete({})

    def test_response_text_missing_choices(self):
        with pytest.raises(TransportError, match="choices"):
            response_text({"usage": {}})


class TestGeneratePrograms:
    CS = ClassSpace(("spam", "ham"))

    def job(self, n=3):
        return GenerationJob(prompt=build_prompt(make_pack()), model="m", n_programs=n)

    def test_ok_fixture_yields_programs_with_slot_ids(self, tmp_path):
        transport = MockTransport.from_file(FIXTURES / "ok_program.json")
        results = generate_programs(self.job(4), self.CS, transport, out_dir=tmp_path)
        assert [r.ok for r in results] == [True] * 4
        assert [r.program.id for r in results] == ["slot0", "slot1", "slot2", "slot3"]

    def test_raw_responses_persisted_before_extraction(self, tmp_path):
        transport = MockTransport.from_file(FIXTURES / "prose_only.json")
        results = generate_programs(self.job(3), self.CS, transport, out_dir=tmp_path)
        assert all(not r.ok for r in results)
        for slot in range(3):
            artifact = json.loads((tmp_path / "raw" / f"{slot}.json").read_text())
            assert artifact["slot"] == slot
            assert "response" in artifact
        assert all("no program found" in r.error for r in results)
        assert all(r.response_text for r in results)  # cost accounting still possible

    def test_retry_fixture_succeeds_with_three_attempts(self, tmp_path):
        transport = MockTransport.from_file(FIXTURES / "retry_then_ok.json")
        results = generate_programs(self.job(1), self.CS, transport, out_dir=tmp_path, sleep=lambda _: None)
        assert results[0].ok and results[0].attempts == 3

    def test_transport_failure_recorded_not_raised(self, tmp_path):
        transport = MockTransport([{"error": "HTTP 500"}])
        results = generate_programs(self.job(2), self.CS, transport, out_dir=tmp_path, sleep=lambda _: None)
        assert all(not r.ok for r in results)
        assert all("giving up" in r.error for r in results)
        for slot in range(2):
            artifact = json.loads((tmp_path / "raw" / f"{slot}.json").read_text())
            assert "error" in artifact


class TestRawReplies:
    """Program generation and concept elicitation record a reply alike."""

    OUTCOMES = {
        "success": [{"content": '["a"]'}],
        "retried-success": [{"error": "HTTP 500"}, {"content": '["a"]'}],
        "transport-failure": [{"error": "HTTP 500"}],
    }

    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    @pytest.mark.parametrize("caller", ["generate", "elicit_concepts"])
    def test_artifact_keys(self, caller, outcome, tmp_path):
        transport = MockTransport(self.OUTCOMES[outcome])
        if caller == "generate":
            job = GenerationJob(prompt=build_prompt(make_pack()), model="m", n_programs=1)
            generate_programs(job, ClassSpace(("spam", "ham")), transport, tmp_path, sleep=lambda _: None)
            path, caller_keys = tmp_path / "raw" / "0.json", {"slot"}
        else:
            try:
                elicit_concepts("t", "list concepts", "m", transport, tmp_path, sleep=lambda _: None)
            except TransportError:
                assert outcome == "transport-failure"
            path, caller_keys = tmp_path / "raw" / "concepts.json", set()
        artifact = json.loads(path.read_text(encoding="utf-8"))
        reply = "error" if outcome == "transport-failure" else "response"
        assert set(artifact) == caller_keys | {"request", "attempts", reply}
        assert artifact["attempts"] == {"success": 1, "retried-success": 2}.get(outcome, RETRY_ATTEMPTS)


class TestCost:
    def test_empty_is_free(self):
        estimate = estimate_cost([], [], Pricing(0.0005, 0.0015))
        assert estimate.input_tokens == 0
        assert estimate.output_tokens == 0
        assert estimate.dollars == 0.0

    def test_worked_dollar_example(self):
        # 4000 input bytes -> 1000 tokens, 1000 output bytes -> 250 tokens
        estimate = estimate_cost(["a" * 4000], ["b" * 1000], Pricing(0.0005, 0.0015))
        assert estimate.input_tokens == 1000
        assert estimate.output_tokens == 250
        assert estimate.dollars == 0.000875

    def test_heuristic_tokens_rounds_up_utf8_bytes(self):
        assert heuristic_tokens("") == 0
        assert heuristic_tokens("abcd") == 1
        assert heuristic_tokens("abcde") == 2
        assert heuristic_tokens("é") == 1  # two bytes
        assert heuristic_tokens("é" * 3) == 2  # six bytes

    def test_supplements_never_reduce_input_cost(self):
        pricing = Pricing(0.5, 1.5)
        cost_base = estimate_cost([build_prompt(make_pack())], [], pricing)
        cost_big = estimate_cost([build_prompt(make_pack(), keywords="win, cash")], [], pricing)
        assert cost_big.input_tokens >= cost_base.input_tokens
        assert cost_big.dollars >= cost_base.dollars

    def test_annotation_scales_with_n_generation_does_not(self):
        pricing = Pricing(0.0005, 0.0015)
        text = "one synthetic message to score"
        gen_prompts = [build_prompt(make_pack())] * 10
        ann_100 = estimate_cost([text] * 100, [], pricing)
        ann_200 = estimate_cost([text] * 200, [], pricing)
        assert ann_200.input_tokens == 2 * ann_100.input_tokens
        # generation prompts do not mention the corpus, so cost is n-free
        assert estimate_cost(gen_prompts, [], pricing) == estimate_cost(gen_prompts, [], pricing)

    def test_pricing_validation(self):
        with pytest.raises(PromptError, match="nonnegative"):
            Pricing(-0.1, 0.5)
        with pytest.raises(PromptError, match="rates"):
            Pricing(None, 0.5)

    @pytest.mark.parametrize("rates", [(math.nan, 0.5), (0.5, math.inf), (math.inf, math.nan)])
    def test_pricing_refuses_non_finite_rates(self, rates):
        # the dollar figure would be NaN or infinite, which cost.json cannot hold
        with pytest.raises(PromptError, match="^pricing rates must be finite and nonnegative$"):
            Pricing(*rates)

    def test_pricing_refuses_rates_whose_cost_can_overflow(self):
        with pytest.raises(PromptError, match=f"^pricing rates must be at most {MAX_RATE_PER_1K} dollars per 1k tokens$"):
            Pricing(1e306, 0.5)

    def test_cost_at_the_rate_bound_is_finite(self, monkeypatch):
        monkeypatch.setattr(prompting, "heuristic_tokens", lambda text: 2**53 - 1)
        estimate = estimate_cost(["a"], ["b"], Pricing(MAX_RATE_PER_1K, MAX_RATE_PER_1K))
        assert math.isfinite(estimate.dollars) and estimate.dollars > 0

    def test_to_dict_round_trip_fields(self):
        estimate = estimate_cost(["abcd"], ["efgh"], Pricing(1.0, 2.0))
        doc = estimate.to_dict()
        assert doc == {
            "input_tokens": 1,
            "output_tokens": 1,
            "price_per_1k_input": 1.0,
            "price_per_1k_output": 2.0,
            "dollars": (1 * 1.0 + 1 * 2.0) / 1000,
        }
        assert CostEstimate(**doc).dollars == estimate.dollars
