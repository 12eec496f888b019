import io
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from labelsmith.data import ClassSpace
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
    PromptSpec,
    TIMEOUT_S,
    SupplementBlock,
    TransportError,
    build_prompt,
    estimate_cost,
    generate_programs,
    heuristic_tokens,
    request_completion,
    response_text,
)

FIXTURES = Path(__file__).parent / "fixtures" / "mock"


def make_spec(**kwargs):
    defaults = dict(
        task_description="Decide whether a message is spam.",
        labeling_instructions="Return 0 for spam, 1 for ham, -1 to abstain.",
        function_signature='rule: contains("example") -> spam;',
    )
    defaults.update(kwargs)
    return PromptSpec(**defaults)


class TestBuildPrompt:
    def test_bare_spec_is_exactly_three_sections(self):
        spec = make_spec()
        expected = (
            "## Task Description\nDecide whether a message is spam.\n\n"
            "## Labeling Instructions\nReturn 0 for spam, 1 for ham, -1 to abstain.\n\n"
            '## Function Signature\nrule: contains("example") -> spam;\n'
        )
        assert build_prompt(spec) == expected

    def test_supplements_render_first_in_given_order(self):
        spec = make_spec(
            supplements=(
                SupplementBlock(kind="Keywords", body="win, cash, prize"),
                SupplementBlock(
                    kind="DataExemplars",
                    exemplars=(("WIN cash now", "spam"), ("see you at lunch", "ham")),
                ),
            )
        )
        prompt = build_prompt(spec)
        order = [
            prompt.index("## Keywords"),
            prompt.index("## Data Exemplars"),
            prompt.index("## Task Description"),
            prompt.index("## Labeling Instructions"),
            prompt.index("## Function Signature"),
        ]
        assert order == sorted(order)
        assert '1. "WIN cash now" -> spam' in prompt
        assert '2. "see you at lunch" -> ham' in prompt

    def test_deterministic(self):
        spec = make_spec(supplements=(SupplementBlock(kind="DatasetDescription", body="Texts."),))
        assert build_prompt(spec) == build_prompt(spec)

    @pytest.mark.parametrize(
        "field", ["task_description", "labeling_instructions", "function_signature"]
    )
    def test_empty_core_component_named(self, field):
        with pytest.raises(PromptError, match=field):
            make_spec(**{field: "   "})

    def test_unknown_supplement_kind(self):
        with pytest.raises(PromptError, match="Hints"):
            SupplementBlock(kind="Hints", body="x")

    def test_exemplars_only_for_data_exemplars(self):
        with pytest.raises(PromptError, match="exemplars"):
            SupplementBlock(kind="Keywords", body="x", exemplars=(("a", "b"),))

    def test_supplement_needs_payload(self):
        with pytest.raises(PromptError):
            SupplementBlock(kind="Keywords", body="")
        with pytest.raises(PromptError):
            SupplementBlock(kind="DataExemplars")


class TestJobValidation:
    def test_temperature_range(self):
        with pytest.raises(PromptError, match="temperature"):
            GenerationJob(prompt=make_spec(), model="m", temperature=3.0)

    def test_n_programs_positive(self):
        with pytest.raises(PromptError, match="n_programs"):
            GenerationJob(prompt=make_spec(), model="m", n_programs=0)

    def test_request_body_shape(self):
        job = GenerationJob(
            prompt=make_spec(), model="test-model", max_tokens=512
        )
        body = job.request_body()
        assert body["model"] == "test-model"
        assert body["max_tokens"] == 512
        assert body["messages"][0]["role"] == "user"
        assert body["messages"][0]["content"] == build_prompt(job.prompt)


class TestRetries:
    def test_two_failures_then_success_uses_three_attempts(self):
        transport = MockTransport(
            [{"error": "HTTP 500"}, {"error": "HTTP 500"}, {"content": "ok"}]
        )
        delays = []
        response, attempts = request_completion(transport, {"x": 1}, sleep=delays.append)
        assert attempts == 3
        assert response_text(response) == "ok"
        assert delays == [BACKOFF_S, BACKOFF_S * BACKOFF_MULTIPLIER]

    def test_exhausted_retries_raise(self):
        transport = MockTransport([{"error": "HTTP 503"}])
        with pytest.raises(TransportError, match=f"giving up after {RETRY_ATTEMPTS} attempts"):
            request_completion(transport, {}, sleep=lambda _: None)

    def test_no_sleep_after_final_attempt(self):
        transport = MockTransport([{"error": "boom"}])
        delays = []
        with pytest.raises(TransportError):
            request_completion(transport, {}, sleep=delays.append)
        assert len(delays) == RETRY_ATTEMPTS - 1


class TestMockTransport:
    def test_cycles_when_exhausted(self):
        transport = MockTransport([{"content": "a"}, {"content": "b"}])
        texts = [response_text(transport.complete({})) for _ in range(5)]
        assert texts == ["a", "b", "a", "b", "a"]

    def test_from_file_accepts_list_and_wrapped_forms(self, tmp_path):
        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([{"content": "x"}]))
        as_dict = tmp_path / "dict.json"
        as_dict.write_text(json.dumps({"responses": [{"content": "y"}]}))
        assert response_text(MockTransport.from_file(as_list).complete({})) == "x"
        assert response_text(MockTransport.from_file(as_dict).complete({})) == "y"

    def test_bad_fixture_shapes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('"just a string"')
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
        with pytest.raises(TransportError, match="not JSON"):
            HttpTransport("http://example.invalid").complete({})

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
        return GenerationJob(prompt=make_spec(), model="m", n_programs=n)

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

    def test_works_without_out_dir(self):
        transport = MockTransport.from_file(FIXTURES / "ok_program.json")
        results = generate_programs(self.job(1), self.CS, transport)
        assert results[0].ok


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
        base = make_spec()
        bigger = make_spec(
            supplements=(SupplementBlock(kind="Keywords", body="win, cash"),)
        )
        cost_base = estimate_cost([build_prompt(base)], [], pricing)
        cost_big = estimate_cost([build_prompt(bigger)], [], pricing)
        assert cost_big.input_tokens >= cost_base.input_tokens
        assert cost_big.dollars >= cost_base.dollars

    def test_annotation_scales_with_n_generation_does_not(self):
        pricing = Pricing(0.0005, 0.0015)
        text = "one synthetic message to score"
        gen_prompts = [build_prompt(make_spec())] * 10
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
