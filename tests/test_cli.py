"""End-to-end CLI contract: subcommands, exit codes, artifacts, manifests."""

import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import NESTED_GUARD_FORMS, nested_guard, planted_confusion_votes, skip_unless_golden_math

from labelsmith import cli, models, prompting
from labelsmith.cli import main
from labelsmith.data import ABSTAIN, ClassSpace, load_pseudolabels, load_votes, save_votes, serialize_records
from labelsmith.distill import load_model
from labelsmith.packs import load_pack
from labelsmith.prompting import (
    API_KEY_ENV,
    BACKOFF_MULTIPLIER,
    BACKOFF_S,
    Pricing,
    build_prompt,
    estimate_cost,
    response_text,
)
from labelsmith.synth import make_spam_corpus

FIXTURES = Path(__file__).parent / "fixtures"
MOCK_OK = str(FIXTURES / "mock" / "ok_program.json")
# the request text of generate --task sms with all four supplement flags
# (the files and values in test_all_four_supplements_make_the_request)
PROMPT_ALL_FOUR = (
    "## Dataset Description\n"
    "Short SMS texts.\n"
    "\n"
    "## Data Exemplars\n"
    "1. \"WIN cash now\" -> spam\n"
    "2. \"see you at lunch é\" -> ham\n"
    "\n"
    "## Keywords\n"
    "win, cash\n"
    "\n"
    "## Labeling Rules\n"
    "Prior rule: prizes are spam.\n"
    "\n"
    "\n"
    "## Task Description\n"
    "Write a bug-free and executable function in python to label SMS text as spam or ham.\n"
    "\n"
    "## Labeling Instructions\n"
    "Map each prediction to its class index: return 0 for \"spam\", return 1 for \"ham\". If a data point cannot be determined, return -1 to abstain, but use this cautiously.\n"
    "\n"
    "## Function Signature\n"
    "Respond with one fenced code block containing labeling rules, one per line. The first matching rule decides the label.\n"
    "\n"
    "```\n"
    "rule: contains_any([\"free\", \"winner\", \"claim\"]) -> spam;\n"
    "rule: contains(\"see you\") -> ham;\n"
    "default -> ABSTAIN;\n"
    "```\n"
    "\n"
    "Available predicates: contains(\"text\"), contains_any([\"a\", \"b\"]), matches(\"regex\"), length_at_least(n), uppercase_ratio_at_least(x). Combine them with and / or / not. Targets are class names, class indices, or ABSTAIN.\n"
)
SPAM_PROGRAMS = str(FIXTURES / "spam_programs")


def read_manifest(out: Path) -> dict:
    return json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))


def tree_bytes(out: Path) -> dict:
    """Relative path -> bytes for every file except the manifest."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


def listing(out: Path) -> dict:
    """Relative path -> bytes (None for a directory) for everything in out."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None for p in sorted(out.rglob("*"))}


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    records, _ = make_spam_corpus(300, seed=7)
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    serialize_records(records, path)
    return str(path)


@pytest.fixture(scope="module")
def votes_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("votes")
    code = main(
        [
            "apply",
            "--programs", SPAM_PROGRAMS,
            "--task", "sms",
            "--data", corpus_file,
            "--out", str(out),
            "--force",
        ]
    )
    assert code == 0
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "sms"],
        ["apply", "--programs", "p", "--data", "d"],
        ["analyze", "--votes", "v"],
        ["aggregate", "--votes", "v"],
        ["export", "--pseudolabels", "p", "--data", "d"],
        ["eval", "--model", "m", "--data", "d"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_train_takes_a_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "o", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--mode", "auto"], ["--feature-seed", "0"]])
def test_train_derives_its_feature_recipe(flag, capsys):
    # the training set decides hashed text or concept scores; the hash is fixed
    with pytest.raises(SystemExit) as exc:
        main(["train", "--train-file", "t", "--out", "o", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_eval_takes_no_modality(capsys):
    # eval reads the modality from the model's concepts
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", "m", "--data", "d", "--out", "o", "--modality", "text"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modality text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--programs", "p", "--task", "sms", "--data", "d", "--modality", "text"],
        ["export", "--pseudolabels", "p", "--task", "sms", "--data", "d", "--modality", "text"],
        ["eval", "--model", "m", "--data", "d", "--task", "sms"],
        ["eval", "--model", "m", "--data", "d", "--classes", "spam,ham"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_facts_the_files_carry_are_not_flags(argv, capsys):
    # the records carry their modality and the model file its classes
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "o"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# modules that only some commands run, and those each command runs
LAZY_MODULES = (
    "labelsmith.dsl",
    "labelsmith.prompting",
    "labelsmith.distill",
    "labelsmith.concepts",
    "labelsmith.records",
    "labelsmith.models",
    "labelsmith.diagnostics",
)
RUNS = {
    "import": (),
    "analyze": ("labelsmith.diagnostics",),
    "aggregate": ("labelsmith.models", "labelsmith.diagnostics"),
    "export": ("labelsmith.distill", "labelsmith.records"),
    "train": ("labelsmith.distill", "labelsmith.records"),
    "eval": ("labelsmith.distill", "labelsmith.records", "labelsmith.diagnostics"),
}


def _modules_after(argv, package: str = "labelsmith") -> list[str]:
    """The modules of ``package`` a fresh interpreter holds after
    importing the CLI and, when ``argv`` is given, running that command."""
    script = (
        "import json, sys\n"
        "import labelsmith.cli\n"
        f"if {argv!r}:\n"
        f"    assert labelsmith.cli.main({argv!r}) == 0\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({package!r}))))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command", list(RUNS))
def test_commands_import_only_what_they_run(command, votes_dir, labeled, trained, corpus_file, tmp_path):
    votes = ["--votes", str(votes_dir / "votes.json")]
    export = ["export", "--pseudolabels", str(labeled), "--task", "sms", "--data", corpus_file]
    train_file = tmp_path / "export" / "train.jsonl"
    if command == "train":
        assert main([*export, "--out", str(train_file.parent)]) == 0
    argv = {
        "import": [],
        "analyze": ["analyze", *votes],
        "aggregate": ["aggregate", *votes],
        "export": export,
        "train": ["train", "--train-file", str(train_file), "--task", "sms", "--epochs", "1", "--dims", "64"],
        "eval": ["eval", "--model", str(trained / "model.json"), "--data", corpus_file],
    }[command]
    loaded = _modules_after(argv and [*argv, "--out", str(tmp_path / "out")])
    assert "labelsmith.cli" in loaded
    assert [m for m in LAZY_MODULES if m in loaded] == [m for m in LAZY_MODULES if m in RUNS[command]]


def test_train_leaves_numpy_ma_unimported(labeled, corpus_file, tmp_path):
    # numpy.ma costs about 9 ms and 1.2 MiB, and np.unique imports it
    export = tmp_path / "export"
    assert main(["export", "--pseudolabels", str(labeled), "--task", "sms", "--data", corpus_file,
                 "--out", str(export)]) == 0
    argv = ["train", "--train-file", str(export / "train.jsonl"), "--task", "sms", "--epochs", "1", "--dims", "64",
            "--out", str(tmp_path / "train")]
    assert "numpy.ma" not in _modules_after(argv, "numpy.ma")


def test_parser_lists_every_fitter():
    # the parser names the fitters without importing labelsmith.models
    assert cli.FITTERS == tuple(sorted(models.FITTERS))


def test_patches_of_lazily_bound_names_reach_the_commands(corpus_file, tmp_path, monkeypatch):
    """A tracer or test patches labelsmith.cli's names, whether or not a
    command has bound them yet; apply and generate call the patched ones."""
    for name in cli._LAZY:
        monkeypatch.delitem(vars(cli), name, raising=False)  # as in a fresh process
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def patched(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, patched)

    for name in ("load_dataset", "assemble_votes", "parse_program", "generate_programs"):
        counting(name)
    assert main(["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", corpus_file,
                 "--out", str(tmp_path / "votes")]) == 0
    programs = len(list(Path(SPAM_PROGRAMS).glob("*.lf")))
    assert calls == ["load_dataset"] + ["parse_program"] * programs + ["assemble_votes"]
    assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--n", "2", "--out", str(tmp_path / "gen")]) == 0
    assert calls[-1] == "generate_programs"


class TestGenerate:
    def test_mock_writes_programs_and_cost(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)])
        assert code == 0
        lf_files = sorted((out / "programs").glob("*.lf"))
        assert [p.name for p in lf_files] == [f"slot_{i:02d}.lf" for i in range(10)]
        raw = sorted((out / "raw").glob("*.json"))
        assert len(raw) == 10
        assert (out / "cost.json").is_file()
        manifest = read_manifest(out)
        assert manifest["command"] == "generate"
        assert manifest["params"]["endpoint"] is None
        assert set(manifest["outputs"]) >= {"cost.json", "programs/slot_00.lf", "raw/0.json"}
        captured = capsys.readouterr()
        assert "extracted 10/10 programs" in captured.out
        assert "estimated cost: $" in captured.out

    def test_cost_matches_recomputation(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)]) == 0
        saved = json.loads((out / "cost.json").read_text(encoding="utf-8"))
        prompt = build_prompt(load_pack("sms"))
        responses = []
        for i in range(10):
            artifact = json.loads((out / "raw" / f"{i}.json").read_text(encoding="utf-8"))
            responses.append(response_text(artifact["response"]))
        redone = estimate_cost([prompt] * 10, responses, Pricing(0.0005, 0.0015))
        assert saved == redone.to_dict()

    def test_missing_api_key_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        out = tmp_path / "gen"
        code = main(["generate", "--task", "sms", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "no API key" in err
        assert API_KEY_ENV in err
        assert "--mock" in err

    def test_prose_only_reports_failures(self, tmp_path, capsys):
        out = tmp_path / "gen"
        fixture = str(FIXTURES / "mock" / "prose_only.json")
        code = main(
            ["generate", "--task", "sms", "--mock", fixture, "--n", "3", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "extracted 0/3 programs" in captured.out
        assert "slot 0:" in captured.err
        assert "no program found" in captured.err
        assert sorted((out / "raw").glob("*.json"))
        assert not list((out / "programs").glob("*.lf"))

    @pytest.mark.parametrize("form", NESTED_GUARD_FORMS)
    def test_too_deeply_nested_program_is_a_slot_error(self, form, tmp_path, capsys):
        mock = tmp_path / "mock.json"
        content = f"```\nrule: {nested_guard(form, 1000)} -> spam;\n```\n"
        mock.write_text(json.dumps({"responses": [{"content": content}]}), encoding="utf-8")
        out = tmp_path / "gen"
        code = main(["generate", "--task", "sms", "--mock", str(mock), "--n", "1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "extracted 0/1 programs" in captured.out
        assert "slot 0:" in captured.err and "nested" in captured.err

    def test_bad_pattern_fails_only_its_slot(self, tmp_path, capsys):
        # a bound of 5000 digits is past what int() reads; it is refused as
        # any bound above 128 is, and the other slot's program is written
        mock = tmp_path / "mock.json"
        contents = [
            '```\nrule: matches("a{' + "9" * 5000 + '}") -> spam;\n```\n',
            '```\nrule: matches("a{2}") -> spam;\n```\n',
        ]
        mock.write_text(json.dumps({"responses": [{"content": c} for c in contents]}), encoding="utf-8")
        out = tmp_path / "gen"
        code = main(["generate", "--task", "sms", "--mock", str(mock), "--n", "2", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "extracted 1/2 programs" in captured.out
        assert "slot 0:" in captured.err and "repeat bound above 128" in captured.err
        assert "Traceback" not in captured.err
        assert [p.name for p in (out / "programs").glob("*.lf")] == ["slot_01.lf"]

    def test_stored_control_character_applies(self, corpus_file, tmp_path, capsys):
        # the printer writes U+0008 as \b, which the scanner reads back
        mock = tmp_path / "mock.json"
        content = '```\nrule: contains("\\u0008") -> spam;\n```\n'
        mock.write_text(json.dumps({"responses": [{"content": content}]}), encoding="utf-8")
        gen = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", str(mock), "--n", "1", "--out", str(gen)]) == 0
        assert (gen / "programs" / "slot_00.lf").read_text(encoding="utf-8") == 'rule: contains("\\b") -> spam;\n'
        code = main(["apply", "--programs", str(gen / "programs"), "--task", "sms", "--data", corpus_file,
                     "--out", str(tmp_path / "votes")])
        assert code == 0, capsys.readouterr().err

    def test_lone_surrogate_escape_is_a_slot_error(self, tmp_path, capsys):
        mock = tmp_path / "mock.json"
        content = '```\nrule: contains("\\ud800") -> spam;\n```\n'
        mock.write_text(json.dumps({"responses": [{"content": content}]}), encoding="utf-8")
        out = tmp_path / "gen"
        code = main(["generate", "--task", "sms", "--mock", str(mock), "--n", "1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "extracted 0/1 programs" in captured.out
        assert "slot 0:" in captured.err and "lone surrogate \\ud800" in captured.err
        assert "Traceback" not in captured.err
        assert not list((out / "programs").glob("*.lf"))

    def test_retry_fixture_recovers(self, tmp_path, monkeypatch):
        delays = []
        monkeypatch.setattr("time.sleep", delays.append)
        out = tmp_path / "gen"
        fixture = str(FIXTURES / "mock" / "retry_then_ok.json")
        code = main(
            ["generate", "--task", "sms", "--mock", fixture, "--n", "1", "--out", str(out)]
        )
        assert code == 0
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        assert artifact["attempts"] == 3
        assert len(list((out / "programs").glob("*.lf"))) == 1
        assert delays == [BACKOFF_S, BACKOFF_S * BACKOFF_MULTIPLIER]

    def test_supplements_reach_the_prompt(self, tmp_path):
        exemplars = tmp_path / "ex.jsonl"
        exemplars.write_text(
            json.dumps({"text": "WIN cash now", "class": "spam"}) + "\n", encoding="utf-8"
        )
        out = tmp_path / "gen"
        code = main(
            [
                "generate",
                "--task", "sms",
                "--mock", MOCK_OK,
                "--n", "1",
                "--dataset-description", "short promotional texts",
                "--exemplars", str(exemplars),
                "--keywords", "prize, lunch",
                "--out", str(out),
            ]
        )
        assert code == 0
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        sent = artifact["request"]["messages"][-1]["content"]
        assert "short promotional texts" in sent
        assert '1. "WIN cash now" -> spam' in sent
        assert "prize, lunch" in sent

    def test_all_four_supplements_make_the_request(self, tmp_path, capsys):
        (tmp_path / "desc.txt").write_text("Short SMS texts.\n", encoding="utf-8")
        rows = [{"text": "WIN cash now", "class": "spam"}, {"text": "see you at lunch é", "class": "ham"}]
        (tmp_path / "ex.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        (tmp_path / "rules.txt").write_text("Prior rule: prizes are spam.\n", encoding="utf-8")
        out = tmp_path / "gen"
        code = main(
            [
                "generate",
                "--task", "sms",
                "--mock", MOCK_OK,
                "--n", "1",
                "--dataset-description", f"@{tmp_path / 'desc.txt'}",
                "--exemplars", str(tmp_path / "ex.jsonl"),
                "--keywords", "win, cash",
                "--rules-file", str(tmp_path / "rules.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0, capsys.readouterr().err
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        assert artifact["request"]["messages"] == [{"role": "user", "content": PROMPT_ALL_FOUR}]

    @pytest.mark.parametrize(
        "flag, value, text",
        [
            ("--dataset-description", "@{path}", ""),
            ("--dataset-description", "@{path}", " \n\t\n"),
            ("--rules-file", "{path}", ""),
            ("--rules-file", "{path}", "\n\n"),
        ],
    )
    def test_empty_supplement_file_refused(self, flag, value, text, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "gen"
        argv = ["generate", "--task", "sms", "--mock", MOCK_OK, flag, value.format(path=path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: {path} holds no text\n"
        assert not out.exists()

    def test_empty_keywords_left_out(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--n", "1", "--keywords", "", "--out", str(out)]) == 0
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        assert artifact["request"]["messages"][0]["content"] == build_prompt(load_pack("sms"))

    @pytest.mark.parametrize("flag", ["--keywords", "--dataset-description"])
    def test_blank_supplement_text_left_out(self, flag, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--n", "1", flag, " \t ", "--out", str(out)]) == 0
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        assert artifact["request"]["messages"][0]["content"] == build_prompt(load_pack("sms"))

    def test_list_shaped_mock_refused(self, tmp_path, capsys):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps([{"content": "x"}]), encoding="utf-8")
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", str(mock), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f'error: {mock}: a mock fixture must be an object {{"responses": [...]}}\n'
        assert not out.exists()

    def test_refuses_nonempty_out_without_force(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)])
        assert code == 1
        assert "not empty" in capsys.readouterr().err
        code = main(
            ["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out), "--force"]
        )
        assert code == 0

    def test_two_runs_byte_identical_except_manifest_timestamp(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)]) == 0
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        m0, m1 = read_manifest(outs[0]), read_manifest(outs[1])
        m0.pop("created_at")
        m1.pop("created_at")
        assert m0 == m1


class TestApply:
    def test_votes_written(self, votes_dir, corpus_file):
        matrix = load_votes(votes_dir / "votes.json")
        assert matrix.n == 300
        assert matrix.m == 10
        assert matrix.program_ids[0] == "01_prizes_vs_work"
        assert matrix.classes.names == ("spam", "ham")
        assert matrix.task == "sms"
        assert len(matrix.gold) == 300
        assert set(matrix.groups) == {"standard", "adversarial"}
        manifest = read_manifest(votes_dir)
        assert manifest["command"] == "apply"
        assert corpus_file in manifest["inputs"]

    def test_classes_flag_equals_task_pack(self, tmp_path, corpus_file, votes_dir):
        out = tmp_path / "votes2"
        code = main(
            [
                "apply",
                "--programs", SPAM_PROGRAMS,
                "--classes", "spam,ham",
                "--data", corpus_file,
                "--out", str(out),
            ]
        )
        assert code == 0
        a = load_votes(votes_dir / "votes.json")
        b = load_votes(out / "votes.json")
        assert np.array_equal(a.votes, b.votes)

    def test_empty_program_dir_exits_1(self, tmp_path, corpus_file, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(
            [
                "apply",
                "--programs", str(empty),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(tmp_path / "votes"),
            ]
        )
        assert code == 1
        assert "no .lf programs" in capsys.readouterr().err

    @pytest.mark.parametrize("form", NESTED_GUARD_FORMS)
    def test_too_deeply_nested_program_exits_1(self, form, tmp_path, corpus_file, capsys):
        progs = tmp_path / "progs"
        progs.mkdir()
        program = progs / "deep.lf"
        program.write_text(f"rule: {nested_guard(form, 1000)} -> spam;\n", encoding="utf-8")
        code = main(
            ["apply", "--programs", str(progs), "--task", "sms", "--data", corpus_file,
             "--out", str(tmp_path / "votes")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {program}: ") and "nested" in err, err

    def test_needs_task_or_classes(self, tmp_path, corpus_file, capsys):
        code = main(
            [
                "apply",
                "--programs", SPAM_PROGRAMS,
                "--data", corpus_file,
                "--out", str(tmp_path / "votes"),
            ]
        )
        assert code == 1
        assert "--task" in capsys.readouterr().err


class TestAnalyze:
    def test_healthy_votes_exit_0(self, votes_dir, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", "--votes", str(votes_dir / "votes.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert len(doc["programs"]) == 10
        assert doc["flagged"] == []
        assert read_manifest(out)["params"] == {"threshold": 0.1}
        table = capsys.readouterr().out
        assert "coverage" in table
        assert "01_prizes_vs_work" in table

    def test_low_coverage_program_exits_2(self, tmp_path, corpus_file, capsys):
        progs = tmp_path / "progs"
        shutil.copytree(SPAM_PROGRAMS, progs)
        shutil.copy(FIXTURES / "low_coverage.lf", progs / "low_coverage.lf")
        votes_out = tmp_path / "votes"
        assert main(
            [
                "apply",
                "--programs", str(progs),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(votes_out),
            ]
        ) == 0
        capsys.readouterr()
        out = tmp_path / "analysis"
        code = main(["analyze", "--votes", str(votes_out / "votes.json"), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "low_coverage" in captured.err
        assert "below 10%" in captured.err
        doc = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert doc["flagged"] == ["low_coverage"]


class TestAggregate:
    @pytest.mark.parametrize("model", sorted(models.FITTERS))
    def test_every_fitter_runs(self, model, votes_dir, tmp_path, capsys):
        out = tmp_path / model
        code = main(
            [
                "aggregate",
                "--votes", str(votes_dir / "votes.json"),
                "--model", model,
                "--out", str(out),
            ]
        )
        assert code == 0
        params = models.load_params(out / "params.json")
        assert params.m == 10
        labels = load_pseudolabels(out / "pseudolabels.jsonl")
        assert labels.n == 300

        # NaN and the infinities are JavaScript, not JSON: a strict reader refuses them
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"), parse_constant=refuse)
        assert report["kind"] == params.kind
        assert sorted(report) == [
            "accuracy_by_program", "converged", "iterations", "kind", "log_likelihood", "notes", "objective",
        ]
        # the counting kinds have no likelihood
        assert (report["log_likelihood"] is None) == (model in ("mv", "wmv"))
        assert "accuracy vs gold" in capsys.readouterr().out

    def test_params_reuse_skips_fitting(self, votes_dir, tmp_path):
        fitted = tmp_path / "fit"
        assert main(
            ["aggregate", "--votes", str(votes_dir / "votes.json"), "--out", str(fitted)]
        ) == 0
        reused = tmp_path / "reuse"
        code = main(
            [
                "aggregate",
                "--votes", str(votes_dir / "votes.json"),
                "--params", str(fitted / "params.json"),
                "--out", str(reused),
            ]
        )
        assert code == 0
        # no fit, so no fit report: the manifest lists the params file
        assert sorted(tree_bytes(reused)) == ["params.json", "pseudolabels.jsonl"]
        a = (fitted / "pseudolabels.jsonl").read_bytes()
        b = (reused / "pseudolabels.jsonl").read_bytes()
        assert a == b

    def test_params_reuse_writes_the_same_files_however_the_path_is_spelled(self, votes_dir, tmp_path, monkeypatch):
        votes = str(votes_dir / "votes.json")
        assert main(["aggregate", "--votes", votes, "--out", str(tmp_path / "fit")]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["aggregate", "--votes", votes, "--params", "fit/params.json", "--out", "relative"]) == 0
        absolute = str(tmp_path / "fit" / "params.json")
        assert main(["aggregate", "--votes", votes, "--params", absolute, "--out", "absolute"]) == 0
        assert tree_bytes(tmp_path / "relative") == tree_bytes(tmp_path / "absolute")

    def test_accuracy_vs_gold_on_covered_records_only(self, partial_labels, tmp_path, capsys):
        votes, _ = partial_labels
        out = tmp_path / "agg"
        assert main(["aggregate", "--votes", str(votes), "--out", str(out)]) == 0
        labels = load_pseudolabels(out / "pseudolabels.jsonl")
        covered = labels.covered
        assert 0 < covered.sum() < labels.n
        hits = labels.hard[covered] == np.array(load_votes(votes).gold)[covered]
        assert capsys.readouterr().out.endswith(f", accuracy vs gold on covered records {hits.mean():.4f}\n")

    def test_no_accuracy_when_no_record_is_covered(self, partial_labels, tmp_path, capsys):
        votes, agg = partial_labels
        matrix = load_votes(votes)
        silent = tmp_path / "silent.json"
        save_votes(silent, replace(matrix, votes=np.full(matrix.votes.shape, ABSTAIN)))
        argv = ["aggregate", "--votes", str(silent), "--params", str(agg / "params.json"), "--keep-flagged"]
        assert main([*argv, "--out", str(tmp_path / "reuse")]) == 0
        out = capsys.readouterr().out
        assert "coverage 0.000" in out and "accuracy" not in out

    def test_manifest_names_the_fitted_model_or_none(self, votes_dir, tmp_path):
        votes = str(votes_dir / "votes.json")
        assert main(["aggregate", "--votes", votes, "--out", str(tmp_path / "fit")]) == 0
        # the default threshold is diagnostics.DEFAULT_COVERAGE_THRESHOLD's
        assert read_manifest(tmp_path / "fit")["params"] == {"model": "ds", "threshold": 0.1}
        params = str(tmp_path / "fit" / "params.json")
        assert main(["aggregate", "--votes", votes, "--params", params, "--out", str(tmp_path / "reuse")]) == 0
        manifest = read_manifest(tmp_path / "reuse")
        assert manifest["params"]["model"] is None
        assert params in manifest["inputs"]

    def test_model_and_params_exclude_each_other(self, votes_dir, tmp_path, capsys):
        params = tmp_path / "fit" / "params.json"
        assert main(["aggregate", "--votes", str(votes_dir / "votes.json"), "--out", str(params.parent)]) == 0
        capsys.readouterr()
        argv = ["aggregate", "--votes", str(votes_dir / "votes.json"), "--model", "wmv", "--params", str(params)]
        assert main([*argv, "--out", str(tmp_path / "reuse")]) == 1
        assert capsys.readouterr().err == "error: --model and --params exclude each other\n"
        assert not (tmp_path / "reuse").exists()

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_threshold_outside_0_1_refused(self, votes_dir, tmp_path, capsys, threshold):
        argv = ["aggregate", "--votes", str(votes_dir / "votes.json"), "--threshold", threshold]
        assert main([*argv, "--out", str(tmp_path / "agg")]) == 1
        assert capsys.readouterr().err == f"error: --threshold must be in [0, 1], got {float(threshold)}\n"
        assert not (tmp_path / "agg").exists()

    def test_params_reuse_of_a_file_with_class_names_and_propensity(self, votes_dir, tmp_path):
        # files written before params stopped storing class names and
        # propensity still load, predict the same and are re-saved without them
        votes = str(votes_dir / "votes.json")
        fitted = tmp_path / "fit"
        assert main(["aggregate", "--votes", votes, "--out", str(fitted)]) == 0
        doc = json.loads((fitted / "params.json").read_text(encoding="utf-8"))
        older = tmp_path / "older.json"
        older.write_text(
            json.dumps({**doc, "class_names": ["spam", "ham"], "propensity": [0.5] * len(doc["program_ids"])}),
            encoding="utf-8",
        )
        reused = tmp_path / "reuse"
        assert main(["aggregate", "--votes", votes, "--params", str(older), "--out", str(reused)]) == 0
        assert (reused / "pseudolabels.jsonl").read_bytes() == (fitted / "pseudolabels.jsonl").read_bytes()
        assert (reused / "params.json").read_bytes() == (fitted / "params.json").read_bytes()
        assert set(doc) == {"kind", "priors", "program_ids", "confusion", "accuracies", "weights"}

    def test_params_program_count_mismatch(self, votes_dir, tmp_path, corpus_file, capsys):
        subset = tmp_path / "subset"
        subset.mkdir()
        for name in ("01_prizes_vs_work.lf", "02_links_vs_home.lf", "03_urgency_vs_smalltalk.lf"):
            shutil.copy(Path(SPAM_PROGRAMS) / name, subset / name)
        votes3 = tmp_path / "votes3"
        assert main(
            [
                "apply",
                "--programs", str(subset),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(votes3),
            ]
        ) == 0
        fitted = tmp_path / "fit"
        assert main(
            ["aggregate", "--votes", str(votes_dir / "votes.json"), "--out", str(fitted)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "aggregate",
                "--votes", str(votes3 / "votes.json"),
                "--params", str(fitted / "params.json"),
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 1
        assert "fitted for 10 programs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty", "missing field 'kind'"),
            ("not-json", "params.json"),
            ("confusion-shape", "confusion has shape (3, 2, 2), expected (3, 3, 3)"),
            ("class-count", "fitted for 2 classes but the vote matrix has 3"),
            ("nan-priors", "priors must be non-negative and sum to 1"),
            ("program-order", "fitted for program 'p1' in column 0, but the vote matrix has 'p0' there"),
        ],
    )
    def test_malformed_params_rejected(self, case, message, tmp_path, capsys):
        # binary votes in a file that declares three classes
        matrix, _ = planted_confusion_votes(60, 3, 2, diag=0.8, seed=3)
        votes = save_votes(tmp_path / "votes.json", replace(matrix, classes=ClassSpace(("a", "b", "c"))))
        binary = models.LabelModelParams(
            kind=models.DAWID_SKENE,
            priors=[0.5, 0.5],
            program_ids=matrix.program_ids,
            confusion=np.full((3, 2, 2), 0.5),
        ).to_dict()
        path = tmp_path / "params.json"
        path.write_text(
            {
                "empty": "{}",
                "not-json": "not json",
                "confusion-shape": json.dumps({**binary, "priors": [0.25, 0.25, 0.5]}),
                "class-count": json.dumps(binary),
                "nan-priors": json.dumps({**binary, "priors": [float("nan")] * 2}),
                # the same programs and count, another order
                "program-order": json.dumps(
                    {**binary, "priors": [0.25, 0.25, 0.5], "confusion": np.full((3, 3, 3), 1 / 3).tolist(),
                     "program_ids": ["p1", "p0", "p2"]}
                ),
            }[case],
            encoding="utf-8",
        )
        code = main(
            ["aggregate", "--votes", str(votes), "--params", str(path), "--out", str(tmp_path / "agg")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("K", [12, 128])
    def test_ds_fits_many_classes_in_seconds(self, K, tmp_path, capsys):
        # class alignment once scored all K! permutations: 8 s at K=10
        matrix, _ = planted_confusion_votes(500, 6, K, diag=0.7, seed=1)
        votes = save_votes(tmp_path / "votes.json", matrix)
        start = time.perf_counter()
        code = main(["aggregate", "--votes", str(votes), "--model", "ds", "--out", str(tmp_path / "agg")])
        assert code == 0, capsys.readouterr().err
        assert time.perf_counter() - start < 10.0

    def test_refuses_flagged_unless_kept(self, tmp_path, corpus_file, capsys):
        progs = tmp_path / "progs"
        shutil.copytree(SPAM_PROGRAMS, progs)
        shutil.copy(FIXTURES / "low_coverage.lf", progs / "low_coverage.lf")
        votes_out = tmp_path / "votes"
        assert main(
            [
                "apply",
                "--programs", str(progs),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(votes_out),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            ["aggregate", "--votes", str(votes_out / "votes.json"), "--out", str(tmp_path / "agg")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "low_coverage" in err
        assert "--keep-flagged" in err
        code = main(
            [
                "aggregate",
                "--votes", str(votes_out / "votes.json"),
                "--keep-flagged",
                "--out", str(tmp_path / "agg2"),
            ]
        )
        assert code == 0


@pytest.fixture(scope="module")
def labeled(tmp_path_factory, votes_dir):
    out = tmp_path_factory.mktemp("agg")
    assert main(
        ["aggregate", "--votes", str(votes_dir / "votes.json"), "--out", str(out), "--force"]
    ) == 0
    return out / "pseudolabels.jsonl"


@pytest.fixture(scope="module")
def trained(tmp_path_factory, labeled, corpus_file):
    export_dir = tmp_path_factory.mktemp("export")
    assert main(
        [
            "export",
            "--pseudolabels", str(labeled),
            "--task", "sms",
            "--data", corpus_file,
            "--out", str(export_dir),
            "--force",
        ]
    ) == 0
    train_dir = tmp_path_factory.mktemp("train")
    code = main(
        [
            "train",
            "--train-file", str(export_dir / "train.jsonl"),
            "--task", "sms",
            "--epochs", "5",
            "--dims", "256",
            "--out", str(train_dir),
            "--force",
        ]
    )
    assert code == 0
    return train_dir


@pytest.fixture(scope="module")
def partial_labels(tmp_path_factory, corpus_file):
    """(votes.json, aggregate's directory) of two fixture programs, which
    leave some records of the corpus uncovered."""
    root = tmp_path_factory.mktemp("partial")
    programs = root / "programs"
    programs.mkdir()
    for name in ("01_prizes_vs_work.lf", "02_links_vs_home.lf"):
        shutil.copy(Path(SPAM_PROGRAMS) / name, programs / name)
    argv = ["apply", "--programs", str(programs), "--task", "sms", "--data", corpus_file]
    assert main([*argv, "--out", str(root / "votes")]) == 0
    assert main(["aggregate", "--votes", str(root / "votes" / "votes.json"), "--out", str(root / "agg")]) == 0
    return root / "votes" / "votes.json", root / "agg"


class TestExportTrainEval:
    @pytest.mark.parametrize("probabilistic", [False, True])
    def test_export_writes_no_uncovered_row(self, probabilistic, partial_labels, corpus_file, tmp_path, capsys):
        pseudolabels = partial_labels[1] / "pseudolabels.jsonl"
        labels = load_pseudolabels(pseudolabels)
        covered = [rid for rid, kept in zip(labels.record_ids, labels.covered) if kept]
        assert 0 < len(covered) < labels.n
        out = tmp_path / "export"
        argv = ["export", "--pseudolabels", str(pseudolabels), "--task", "sms", "--data", corpus_file]
        capsys.readouterr()
        assert main([*argv, *(["--probabilistic"] if probabilistic else []), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "train.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [row["id"] for row in rows] == covered
        dropped = labels.n - len(covered)
        assert capsys.readouterr().out == f"wrote {len(covered)} rows ({dropped} uncovered dropped)\n"
        assert read_manifest(out)["params"] == {"probabilistic": probabilistic}

    def test_export_writes_training_rows(self, labeled, corpus_file, tmp_path, capsys):
        out = tmp_path / "export"
        code = main(
            [
                "export",
                "--pseudolabels", str(labeled),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "train.jsonl").read_text(encoding="utf-8").splitlines()
        labels = load_pseudolabels(labeled)
        covered = int(labels.covered.sum())
        assert len(rows) == covered
        assert f"wrote {covered} rows" in capsys.readouterr().out

    def test_export_probabilistic_targets(self, labeled, corpus_file, tmp_path):
        out = tmp_path / "export"
        assert main(
            [
                "export",
                "--pseudolabels", str(labeled),
                "--probabilistic",
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(out),
            ]
        ) == 0
        from labelsmith.distill import load_training_set

        _, targets = load_training_set(out / "train.jsonl", 2)
        assert targets.ndim == 2
        assert targets.shape[1] == 2
        np.testing.assert_allclose(targets.sum(axis=1), 1.0)

    def test_train_artifacts(self, trained, capsys):
        assert (trained / "model.json").is_file()
        # 256 -> 32 -> 32 -> 2: each weight matrix, then each bias, as doubles
        assert (trained / "model.bin").stat().st_size == 8 * (256 * 32 + 32 * 32 + 32 * 2 + 32 + 32 + 2)
        assert set(read_manifest(trained)["outputs"]) == {"model.json", "model.bin", "metrics.csv"}
        lines = (trained / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 1 + 5 + 1  # header, epoch 0 baseline, 5 epochs

    def test_train_deterministic_across_runs(self, trained, labeled, corpus_file, tmp_path):
        export_dir = tmp_path / "export"
        assert main(
            [
                "export",
                "--pseudolabels", str(labeled),
                "--task", "sms",
                "--data", corpus_file,
                "--out", str(export_dir),
            ]
        ) == 0
        rerun = tmp_path / "train"
        assert main(
            [
                "train",
                "--train-file", str(export_dir / "train.jsonl"),
                "--task", "sms",
                "--epochs", "5",
                "--dims", "256",
                "--out", str(rerun),
            ]
        ) == 0
        for name in ("model.json", "model.bin", "metrics.csv"):
            assert (rerun / name).read_bytes() == (trained / name).read_bytes()

    def test_eval_reports_accuracy_and_groups(self, trained, corpus_file, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--model", str(trained / "model.json"), "--data", corpus_file, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert doc["n"] == 300
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert set(doc["per_group"]) == {"standard", "adversarial"}
        assert doc["gap"] == doc["average_accuracy"] - doc["worst_group_accuracy"]
        captured = capsys.readouterr().out
        assert "accuracy" in captured
        assert "worst group" in captured
        # the audit trail hashes the weights that produced eval.json
        inputs = read_manifest(out)["inputs"]
        assert inputs == {
            str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in (trained / "model.json", trained / "model.bin", corpus_file)
        }

    def test_eval_requires_gold(self, trained, tmp_path, capsys):
        records, _ = make_spam_corpus(20, seed=9)
        stripped = [
            type(records[0])(id=r.id, text=r.text, gold=None, group=r.group) for r in records
        ]
        data = tmp_path / "nogold.jsonl"
        serialize_records(stripped, data)
        code = main(
            [
                "eval",
                "--model", str(trained / "model.json"),
                "--data", str(data),
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        assert "needs gold labels" in capsys.readouterr().err

    def test_train_needs_task_or_classes(self, tmp_path, capsys):
        # the class space enters at train and is read from model.json after
        train = tmp_path / "train.jsonl"
        train.write_text(_jsonl({**_ROW, "label": 0}, {"id": "b", "text": "hi", "label": 1}))
        out = tmp_path / "out"
        code = main(["train", "--train-file", str(train), "--epochs", "1", "--dims", "16", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: pass --task <pack> or --classes <a,b,...>\n"
        assert not out.exists()


def _scores_files(root: Path) -> tuple[Path, Path]:
    """A seeded scores-modality training set and gold-labeled eval set.
    Concepts are listed out of order so that sorting them is observable."""
    rng = np.random.default_rng(11)
    concepts = ("water background", "beak length", "webbed feet")
    train, data = [], []
    for i in range(120):
        waterbird = i % 2
        scores = {c: float(v) for c, v in zip(concepts, rng.normal(2.0 * waterbird - 1.0, 1.0, 3))}
        train.append({"id": f"b{i:03d}", "scores": scores, "label": int(waterbird)})
        data.append({"id": f"b{i:03d}", "scores": scores, "gold": int(waterbird),
                     "group": "water" if scores["water background"] > 0 else "land"})
    (root / "train.jsonl").write_text(_jsonl(*train), encoding="utf-8")
    (root / "data.jsonl").write_text(_jsonl(*data), encoding="utf-8")
    return root / "train.jsonl", root / "data.jsonl"


class TestScoresTrainEval:
    def run(self, train, data, out: Path):
        classes = ["--classes", "landbird,waterbird"]
        assert main(["train", "--train-file", str(train), *classes, "--epochs", "5", "--seed", "3",
                     "--out", str(out / "train")]) == 0
        assert main(["eval", "--model", str(out / "train" / "model.json"), "--data", str(data),
                     "--out", str(out / "eval")]) == 0

    def test_round_trip_derives_concepts_and_reruns_byte_identical(self, tmp_path):
        train, data = _scores_files(tmp_path)
        self.run(train, data, tmp_path / "a")
        doc = json.loads((tmp_path / "a" / "train" / "model.json").read_text(encoding="utf-8"))
        assert doc["concepts"] == ["beak length", "water background", "webbed feet"]
        assert set(doc) == {"sizes", "classes", "concepts"}
        assert doc["sizes"][0] == 3
        assert read_manifest(tmp_path / "a" / "train")["params"]["dims"] == 3
        report = json.loads((tmp_path / "a" / "eval" / "eval.json").read_text(encoding="utf-8"))
        assert report["n"] == 120 and set(report["per_group"]) == {"land", "water"}
        self.run(train, data, tmp_path / "b")
        for step in ("train", "eval"):
            assert tree_bytes(tmp_path / "b" / step) == tree_bytes(tmp_path / "a" / step)


# sha256 of the distill half's files on a seeded text chain (apply,
# aggregate, export, train --dims 64, eval) and on the scores chain of
# _scores_files, taken before the model file loaded as one MLPModel. The
# model pair's hashes come from the model.json files of that version,
# whose nested lists held the weights: model.bin is those weight
# matrices, then those biases, packed as little-endian doubles, and
# model.json is json.dumps(..., sort_keys=True) of its sizes, classes and
# concepts.
GOLDEN_DISTILL = {
    "text/export/train.jsonl": "58d0cbb57f9e0a776823c29742550b402bbfb3ecb1cb083ed06b7169104484e1",
    "text/train/model.json": "d2906fc718e0603a22633b3fcc4c8ce44d2145b39d10163c7f8ae4fabd5c70e7",
    "text/train/model.bin": "96881645df3961f2c96f7528ec1687e2ab8e7d5346173545eeeefe114e639caf",
    "text/train/metrics.csv": "f1f326e7ec9056aa8ecfbc057a1a78dff732d9e5d208c67404dc7682a431bb36",
    "text/eval/eval.json": "3c5e288c38e38852ad0d7886a465ae8bc63c3cf9038a9146e645848f426f4b35",
    "scores/train.jsonl": "ba230a4a54d9f718589ba1bef2f0e2a3971d6250aceb240bc15964035f4770f6",
    "scores/train/model.json": "c466e6cfbbefd5725f140ea35fe69c7da499361b8ba0f7ec52299cbe6f6659ef",
    "scores/train/model.bin": "533cfe256b5c9895515cb685a02adb6bedd13926bb95c0f2300307cece4d9d9f",
    "scores/train/metrics.csv": "f0dd0a9e3019c9cc2bedace37080f72e0b7175ab29a82a2478dc6a2127ebf2a8",
    "scores/eval/eval.json": "0f30c5e0d9b1fef88da40a0f59d78c43b2dbedb716e35edda921838a393b008f",
}


def test_distill_files_match_pinned_hashes(tmp_path):
    skip_unless_golden_math()
    records, _ = make_spam_corpus(400, seed=21)
    corpus = str(serialize_records(records, tmp_path / "corpus.jsonl"))
    text = tmp_path / "text"
    for argv in (
        ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", corpus, "--out", str(text / "apply")],
        ["aggregate", "--votes", str(text / "apply" / "votes.json"), "--out", str(text / "agg")],
        ["export", "--pseudolabels", str(text / "agg" / "pseudolabels.jsonl"), "--task", "sms",
         "--data", corpus, "--out", str(text / "export")],
        ["train", "--train-file", str(text / "export" / "train.jsonl"), "--task", "sms", "--dims", "64",
         "--epochs", "4", "--seed", "2", "--out", str(text / "train")],
        ["eval", "--model", str(text / "train" / "model.json"), "--data", corpus, "--out", str(text / "eval")],
    ):
        assert main(argv) == 0
    (tmp_path / "scores").mkdir()
    TestScoresTrainEval().run(*_scores_files(tmp_path / "scores"), tmp_path / "scores")
    hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_DISTILL}
    assert hashes == GOLDEN_DISTILL


def test_scores_apply_and_export_read_the_modality_from_the_records(tmp_path):
    _, data = _scores_files(tmp_path)
    progs = tmp_path / "programs"
    progs.mkdir()
    (progs / "feet.lf").write_text(
        'rule: score("webbed feet") >= 0 -> waterbird;\ndefault -> landbird;\n', encoding="utf-8"
    )
    classes = ["--classes", "landbird,waterbird"]
    assert main(["apply", "--programs", str(progs), *classes, "--data", str(data),
                 "--out", str(tmp_path / "votes")]) == 0
    assert main(["aggregate", "--votes", str(tmp_path / "votes" / "votes.json"), "--model", "mv",
                 "--out", str(tmp_path / "agg")]) == 0
    assert main(["export", "--pseudolabels", str(tmp_path / "agg" / "pseudolabels.jsonl"), *classes,
                 "--data", str(data), "--out", str(tmp_path / "export")]) == 0
    rows = (tmp_path / "export" / "train.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 120 and all("scores" in json.loads(row) for row in rows)


def _jsonl(*rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def _votes_doc(**changes) -> str:
    doc = {
        "task": None,
        "classes": ["spam", "ham"],
        "program_ids": ["p0", "p1"],
        "record_ids": ["r0", "r1", "r2"],
        "votes": [[0, 1], [1, -1], [-1, 0]],
        "gold": None,
        "group": None,
    }
    return json.dumps({**doc, **changes})


def _model_pair(trained, change_doc=None, change_bin=None) -> tuple[str, bytes | None]:
    """The trained model pair, (model.json text, model.bin bytes), with
    ``change_doc`` applied to the document and ``change_bin`` to the
    bytes; a ``change_bin`` that returns None leaves the .bin out."""
    doc = json.loads((trained / "model.json").read_text(encoding="utf-8"))
    if change_doc is not None:
        change_doc(doc)
    weights = (trained / "model.bin").read_bytes()
    return json.dumps(doc), weights if change_bin is None else change_bin(weights)


def _parent_model_doc(trained) -> str:
    """The trained model in the format of versions that kept the weights in
    model.json as nested lists."""
    model = load_model(trained / "model.json")
    return json.dumps({
        "model": {
            "sizes": list(model.sizes),
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
        },
        "classes": list(model.classes.names),
    })


def _set_double(data: bytes, i: int, value: float) -> bytes:
    return data[: 8 * i] + struct.pack("<d", value) + data[8 * i + 8 :]


def _params_doc(ctx, change) -> str:
    """Binary Dawid-Skene params fitted for the programs of ctx's votes,
    with ``change`` applied to the document."""
    program_ids = list(load_votes(ctx["votes"]).program_ids)
    doc = {
        "kind": "DawidSkene",
        "priors": [0.5, 0.5],
        "program_ids": program_ids,
        "confusion": [[[0.9, 0.1], [0.2, 0.8]]] * len(program_ids),
    }
    change(doc)
    return json.dumps(doc)


def _wmv_weights(doc, *first):
    """WMV params whose first weights are ``first`` and the rest 1.0."""
    doc.update(kind="WMV", confusion=None, weights=[*first, *[1.0] * (len(doc["program_ids"]) - len(first))])


_PSEUDO = {"record_id": "s00000", "posterior": [0.9, 0.1], "hard": 0, "covered": True}


def _pseudolabels_for(corpus, change) -> str:
    """One valid pseudolabel row per record of ``corpus``, with ``change``
    applied to the list of rows."""
    rows = [
        {**_PSEUDO, "record_id": json.loads(line)["id"]}
        for line in Path(corpus).read_text(encoding="utf-8").splitlines()
    ]
    change(rows)
    return _jsonl(*rows)


def _corpus_with(corpus, i, **changes) -> str:
    """The rows of ``corpus`` with ``changes`` made to row ``i``."""
    rows = [json.loads(line) for line in Path(corpus).read_text(encoding="utf-8").splitlines()]
    rows[i].update(changes)
    return _jsonl(*rows)


_ROW = {"id": "a", "text": "win a free prize"}
_XY = {"x": 0.1, "y": 0.2}
# the feature block model files carried before featurization was derived
# from sizes[0] and concepts
_PARENT_FEATURES = {"mode": "hashed", "dims": 256, "lowercase": True, "seed": 0}
_NOT_UTF8 = b'{"id": "a", "text": "caf\xe9"}\n'

# case -> (file content, the command that reads it); in the command,
# BAD stands for the malformed file and OUT for the output directory
MALFORMED_INPUTS = {
    "pseudolabel-without-posterior": (
        lambda ctx: _jsonl({k: v for k, v in _PSEUDO.items() if k != "posterior"}),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    "pseudolabel-hard-not-argmax": (
        lambda ctx: _pseudolabels_for(ctx["corpus"], lambda rows: rows[5].update(hard=1)),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    "pseudolabel-duplicate-record-id": (
        lambda ctx: _pseudolabels_for(ctx["corpus"], lambda rows: rows.append({**rows[0], "hard": 1, "posterior": [0.1, 0.9]})),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    "pseudolabel-row-is-a-list": (
        lambda ctx: _jsonl([1]),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    "training-row-without-id": (
        lambda ctx: _jsonl({"text": "free prize", "label": 0}, {**_ROW, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-row-without-payload": (
        lambda ctx: _jsonl({"id": "a", "label": 0}, {"id": "b", "text": "hi", "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-posteriors-of-two-widths": (
        lambda ctx: _jsonl({**_ROW, "posterior": [1.0]}, {"id": "b", "text": "hi", "posterior": [0.5, 0.5]}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-text-and-score-rows": (
        lambda ctx: _jsonl({**_ROW, "label": 0}, {"id": "b", "scores": {"x": 1.0}, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-scores-one-concept": (
        lambda ctx: _jsonl({"id": "a", "scores": {"x": 0.1}, "label": 0}, {"id": "b", "scores": {"x": 0.9}, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1"],
    ),
    # every row of a training set has the first row's concepts and its own id
    "training-score-row-missing-concept": (
        lambda ctx: _jsonl({"id": "a", "scores": _XY, "label": 0}, {"id": "b", "scores": {"x": 0.9}, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1"],
    ),
    "training-score-row-extra-concept": (
        lambda ctx: _jsonl({"id": "a", "scores": _XY, "label": 0}, {"id": "b", "scores": {**_XY, "z": 5}, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1"],
    ),
    "training-duplicate-record-id": (
        lambda ctx: _jsonl({**_ROW, "label": 0}, {**_ROW, "label": 1}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-label-beyond-classes": (
        lambda ctx: _jsonl({**_ROW, "label": 5}, {"id": "b", "text": "hi", "label": 0}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "training-posterior-wider-than-classes": (
        lambda ctx: _jsonl({**_ROW, "posterior": [0.2, 0.3, 0.5]}),
        lambda ctx: ["train", "--train-file", "BAD", "--classes", "ham,spam", "--epochs", "1", "--dims", "16"],
    ),
    "votes-one-dimensional": (
        lambda ctx: _votes_doc(votes=[0, 1, 1]),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "votes-are-strings": (
        lambda ctx: _votes_doc(votes=[["0", "1"], ["1", "-1"], ["-1", "0"]]),
        lambda ctx: ["aggregate", "--votes", "BAD"],
    ),
    "votes-with-true": (
        lambda ctx: _votes_doc(votes=[[0, 1], [1, True], [-1, 0]]),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    # Python refuses to read an integer of more digits than its limit (4300
    # by default), as a ValueError that is no JSONDecodeError
    "votes-integer-of-5000-digits": (
        lambda ctx: _votes_doc().replace("[1, -1]", f"[1, {'9' * 5000}]"),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "pseudolabel-integer-of-5000-digits": (
        lambda ctx: _jsonl(_PSEUDO) + _jsonl({**_PSEUDO, "record_id": "s00001"}).replace("0.9", "9" * 5000),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    # a lone surrogate escape parses to a string UTF-8 cannot encode: once
    # a traceback from the writer of the first output to hold it, or exit 0
    "data-id-lone-surrogate": (
        lambda ctx: _jsonl(_ROW, {"id": "b\ud800", "text": "see you"}),
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    "data-group-lone-surrogate": (
        lambda ctx: _jsonl(_ROW, {"id": "b", "text": "see you", "group": "g\ud800"}),
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    "data-text-lone-surrogate": (
        lambda ctx: _corpus_with(ctx["corpus"], 1, text="free \ud800 prize"),
        lambda ctx: ["export", "--pseudolabels", ctx["labeled"], "--task", "sms", "--data", "BAD"],
    ),
    "pseudolabel-record-id-lone-surrogate": (
        lambda ctx: _pseudolabels_for(ctx["corpus"], lambda rows: rows[1].update(record_id="s\udfff")),
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    # json.loads keeps the last value of a repeated key
    "votes-two-classes-keys": (
        lambda ctx: _votes_doc().replace('"classes": ["spam", "ham"]', '"classes": ["spam", "ham"], "classes": ["ham", "spam"]'),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "votes-duplicate-record-ids": (
        lambda ctx: _votes_doc(record_ids=["r0", "r0", "r2"]),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "votes-gold-outside-classes": (
        lambda ctx: _votes_doc(gold=[7, 7, 7]),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "votes-group-too-short": (
        lambda ctx: _votes_doc(record_ids=["r0", "r1", "r2", "r3"], votes=[[0, 1]] * 4, group=["g"] * 3),
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "model-empty-object": (
        lambda ctx: "{}",
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    # the weights' shapes come from sizes, so sizes that no longer fit the .bin
    "model-weights-wrong-shape": (
        lambda ctx: _model_pair(ctx["trained"], lambda d: d["sizes"].__setitem__(0, 128)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-sizes-not-integers": (
        lambda ctx: _model_pair(ctx["trained"], lambda d: d["sizes"].__setitem__(1, 32.0)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-parent-features-block": (
        lambda ctx: _model_pair(ctx["trained"], lambda d: d.__setitem__("features", _PARENT_FEATURES)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-parent-format": (
        lambda ctx: (_parent_model_doc(ctx["trained"]), None),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-concepts-count-mismatch": (
        lambda ctx: _model_pair(ctx["trained"], lambda d: d.__setitem__("concepts", ["wing", "beak"])),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-truncated": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: b[:-3]),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-extra-double": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: b + struct.pack("<d", 0.5)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-nan-weight": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: _set_double(b, 3, math.nan)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-inf-weight": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: _set_double(b, 8200, math.inf)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-minus-inf-bias": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: _set_double(b, len(b) // 8 - 1, -math.inf)),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "model-bin-missing": (
        lambda ctx: _model_pair(ctx["trained"], change_bin=lambda b: None),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "mock-content-not-a-string": (
        lambda ctx: json.dumps({"responses": [{"content": 5}]}),
        lambda ctx: ["generate", "--task", "sms", "--mock", "BAD", "--n", "1"],
    ),
    "mock-entry-not-an-object": (
        lambda ctx: json.dumps([5]),
        lambda ctx: ["generate", "--task", "sms", "--mock", "BAD", "--n", "1"],
    ),
    "mock-response-not-an-object": (
        lambda ctx: json.dumps({"responses": [5]}),
        lambda ctx: ["generate", "--task", "sms", "--mock", "BAD", "--n", "1"],
    ),
    "exemplar-without-class": (
        lambda ctx: _jsonl({"text": "win a free prize"}),
        lambda ctx: ["generate", "--task", "sms", "--mock", MOCK_OK, "--n", "1", "--exemplars", "BAD"],
    ),
    "votes-not-utf8": (
        lambda ctx: b'{"classes": ["sp\xe4m"]}',
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "pseudolabels-not-utf8": (
        lambda ctx: _NOT_UTF8,
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    # a dataset's modality is its first record's
    "data-text-then-score-rows": (
        lambda ctx: _jsonl(_ROW, {"id": "b", "scores": {"x": 1.0, "y": 0.5}}),
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    "data-score-rows-of-two-concept-sets": (
        lambda ctx: _jsonl({"id": "a", "scores": {"x": 1.0, "y": 0.5}}, {"id": "b", "scores": {"x": 1.0, "z": 0.5}}),
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    # once an OverflowError traceback
    "data-score-integer-beyond-float64": (
        lambda ctx: _jsonl({"id": "a", "scores": _XY}, {"id": "b", "scores": {**_XY, "x": 10**400}}),
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    "data-score-then-text-rows": (
        lambda ctx: _jsonl({"id": "b", "scores": {"x": 1.0, "y": 0.5}}, _ROW),
        lambda ctx: ["export", "--pseudolabels", "pl.jsonl", "--classes", "ham,spam", "--data", "BAD"],
    ),
    "model-without-classes": (
        lambda ctx: _model_pair(ctx["trained"], lambda d: d.pop("classes")),
        lambda ctx: ["eval", "--model", "BAD", "--data", ctx["corpus"]],
    ),
    "eval-text-model-on-score-rows": (
        lambda ctx: _jsonl({"id": "b", "scores": {"x": 1.0, "y": 0.5}, "gold": 0}),
        lambda ctx: ["eval", "--model", str(ctx["trained"] / "model.json"), "--data", "BAD"],
    ),
    # deep enough to exhaust the JSON parser's recursion limit
    "votes-nested-too-deeply": (
        lambda ctx: "[" * 100_000,
        lambda ctx: ["analyze", "--votes", "BAD"],
    ),
    "pseudolabel-line-nested-too-deeply": (
        lambda ctx: _jsonl(_PSEUDO) + "[" * 100_000 + "\n",
        lambda ctx: ["export", "--pseudolabels", "BAD", "--task", "sms", "--data", ctx["corpus"]],
    ),
    "data-not-utf8": (
        lambda ctx: _NOT_UTF8,
        lambda ctx: ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "BAD"],
    ),
    # params that load but would give NaN posteriors or count a vote negatively
    "params-confusion-with-zero": (
        lambda ctx: _params_doc(ctx, lambda d: d.update(confusion=[[[1.0, 0.0], [0.0, 1.0]]] * len(d["program_ids"]))),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-wmv-negative-weight": (
        lambda ctx: _params_doc(ctx, lambda d: _wmv_weights(d, 1.0, -0.5)),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-wmv-nan-weight": (
        lambda ctx: _params_doc(ctx, lambda d: _wmv_weights(d, float("nan"))),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    # numpy would read true as 1.0
    "params-boolean-priors": (
        lambda ctx: _params_doc(ctx, lambda d: d.update(priors=[True, False])),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-boolean-weights": (
        lambda ctx: _params_doc(ctx, lambda d: _wmv_weights(d, True)),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-string-priors": (
        lambda ctx: _params_doc(ctx, lambda d: d.update(priors="ab")),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    # numpy would refuse nested lists of unequal lengths in its own words
    "params-ragged-confusion": (
        lambda ctx: _params_doc(ctx, lambda d: d["confusion"].__setitem__(0, [[0.9, 0.1], [0.2]])),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-ragged-priors": (
        lambda ctx: _params_doc(ctx, lambda d: d.update(priors=[[0.5], [0.25, 0.25]])),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-ragged-accuracies": (
        lambda ctx: _params_doc(ctx, lambda d: d.update(accuracies=[[0.9], [0.8, 0.7]] * (len(d["program_ids"]) // 2))),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-ragged-weights": (
        lambda ctx: _params_doc(ctx, lambda d: _wmv_weights(d, [1.0], [1.0, 2.0])),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
    "params-repeated-program-id": (
        lambda ctx: _params_doc(ctx, lambda d: d["program_ids"].__setitem__(1, d["program_ids"][0])),
        lambda ctx: ["aggregate", "--votes", ctx["votes"], "--params", "BAD"],
    ),
}

# what the error line must say beyond the path, where the path alone
# would not show which check fired
MALFORMED_MESSAGES = {
    "data-text-then-score-rows": ":2: a scores record among text records",
    "data-score-then-text-rows": ":2: a text record among scores records",
    "data-score-rows-of-two-concept-sets": ":2: missing score column 'y'",
    "data-score-integer-beyond-float64": ":2: scores must be finite numbers",
    "training-score-row-missing-concept": ":2: missing score column 'y'",
    "training-score-row-extra-concept": ":2: unexpected score column 'z'",
    "training-duplicate-record-id": ":2: ids must be unique strings, but entry 1 repeats 'a'",
    "model-without-classes": "missing field 'classes'",
    "mock-response-not-an-object": "{bad}: mock entry 0 must be an object",
    "votes-nested-too-deeply": "JSON nested too deeply",
    "votes-two-classes-keys": "{bad}: duplicate key 'classes'",
    "data-id-lone-surrogate": "{bad}:2: a string holds the lone surrogate \\ud800, which UTF-8 cannot encode",
    "data-group-lone-surrogate": "{bad}:2: a string holds the lone surrogate \\ud800",
    "data-text-lone-surrogate": "{bad}:2: a string holds the lone surrogate \\ud800",
    "pseudolabel-record-id-lone-surrogate": "{bad}:2: a string holds the lone surrogate \\udfff",
    "votes-integer-of-5000-digits": "{bad}: JSON integer has too many digits to read",
    "pseudolabel-integer-of-5000-digits": "{bad}:2: JSON integer has too many digits to read",
    "pseudolabel-line-nested-too-deeply": ":2: JSON nested too deeply",
    "eval-text-model-on-score-rows": "takes text records, got scores",
    "model-parent-features-block": "unknown field 'features'",
    "model-parent-format": "input: unknown field 'model'",
    "model-concepts-count-mismatch": "input: 2 concepts listed but the model takes 256 inputs",
    "model-sizes-not-integers": "input: sizes must list at least 2 positive integers",
    # the .bin is the file at fault; a size mismatch names the JSON too
    "model-weights-wrong-shape": "input.bin: 74768 bytes, but the shapes [(128, 32), (32, 32), (32, 2), (32,), "
    "(32,), (2,)] in {bad} take 5250 little-endian doubles",
    "model-bin-truncated": "input.bin: 74765 bytes, but the shapes [(256, 32),",
    "model-bin-extra-double": "input.bin: 74776 bytes, but the shapes [(256, 32),",
    "model-bin-nan-weight": "input.bin: value 3 is nan, expected a finite number",
    "model-bin-inf-weight": "input.bin: value 8200 is inf, expected a finite number",
    "model-bin-minus-inf-bias": "input.bin: value 9345 is -inf, expected a finite number",
    "model-bin-missing": "No such file or directory: '{bad}.bin'",
    "params-confusion-with-zero": "confusion rows must be positive",
    "params-wmv-negative-weight": "weights must be finite and positive",
    "params-wmv-nan-weight": "weights must be finite and positive",
    "params-boolean-priors": "'priors' must hold numbers, got true or false",
    "params-boolean-weights": "'weights' must hold numbers, got true or false",
    "params-string-priors": "'priors' must be a list, got a string",
    "params-ragged-confusion": "{bad}: 'confusion' is ragged, expected shape (10, 2, 2) for 10 programs and 2 classes",
    "params-ragged-priors": "{bad}: 'priors' is ragged, expected a list of numbers",
    "params-ragged-accuracies": "{bad}: 'accuracies' is ragged, expected shape (10,) for 10 programs and 2 classes",
    "params-ragged-weights": "{bad}: 'weights' is ragged, expected shape (10,) for 10 programs and 2 classes",
    "params-repeated-program-id": "{bad}: program_ids must be unique strings, but entry 1 repeats '01_",
}


class TestMalformedInputs:
    """Inputs that once ended in a traceback or were accepted silently:
    each must now exit 1 with an ``error:`` line naming the file."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_rejected_with_path(self, case, corpus_file, trained, votes_dir, labeled, tmp_path, capsys):
        content, command = MALFORMED_INPUTS[case]
        ctx = {"corpus": corpus_file, "trained": trained, "votes": str(votes_dir / "votes.json"), "labeled": str(labeled)}
        bad = tmp_path / "input"
        data = content(ctx)
        if isinstance(data, tuple):  # a model pair: the JSON at BAD, the arrays beside it
            data, weights = data
            if weights is not None:
                bad.with_suffix(".bin").write_bytes(weights)
        if isinstance(data, str):
            bad.write_text(data, encoding="utf-8")
        else:
            bad.write_bytes(data)
        argv = [str(bad) if a == "BAD" else a for a in command(ctx)]
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and str(bad) in err, err
        assert MALFORMED_MESSAGES.get(case, "").format(bad=bad) in err, err
        assert "Traceback" not in err


_TEXT_TRAINING_ROWS = (
    {**_ROW, "label": 0}, {"id": "b", "text": "see you", "label": 1}, {"id": "c", "text": "hi", "label": 0}
)
# score records take their width from their concepts, so any --dims is refused
_SCORE_TRAINING_ROWS = (
    {"id": "a", "scores": {"x": 0.1, "y": 0.9}, "label": 0}, {"id": "b", "scores": {"x": 0.8, "y": 0.3}, "label": 1}
)


@pytest.mark.parametrize(
    "flag, value, rows",
    [
        pytest.param(flag, value, _TEXT_TRAINING_ROWS, id=f"{flag}-{value}")
        for flag, value in [
            ("--epochs", "0"),
            ("--batch", "0"),
            ("--seed", "-1"),
            ("--lr", "nan"),
            ("--lr", "0"),
            ("--lr", "inf"),
            ("--val-fraction", "-0.5"),
            ("--val-fraction", "1"),
            ("--dims", "1"),
        ]
    ]
    + [pytest.param("--dims", "16", _SCORE_TRAINING_ROWS, id="--dims-16-scores")],
)
def test_train_rejects_bad_arguments(flag, value, rows, tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    train.write_text(_jsonl(*rows))
    out = tmp_path / "out"
    argv = ["train", "--train-file", str(train), "--classes", "ham,spam", "--epochs", "1", "--dims", "16", flag, value]
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {flag} must be"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param(flag, value, message, id=f"{flag}-{value}")
        for flag, value, message in [
            ("--price-in", "nan", "--price-in must be in [0, 1000000], got nan"),
            ("--price-out", "inf", "--price-out must be in [0, 1000000], got inf"),
            # a finite rate whose cost overflows to inf
            ("--price-in", "1e306", "--price-in must be in [0, 1000000], got 1e+306"),
            ("--max-tokens", "-3", "--max-tokens must be at least 1, got -3"),
            ("--temperature", "3", "--temperature must be in [0, 2], got 3.0"),
            ("--n", "0", "--n must be at least 1, got 0"),
        ]
    ],
)
def test_generate_rejects_bad_arguments(flag, value, message, tmp_path, capsys, monkeypatch):
    # refused before any request is made or the output directory exists
    monkeypatch.setattr(cli, "generate_programs", lambda *a, **kw: pytest.fail("a request was made"))
    out = tmp_path / "out"
    code = main(["generate", "--task", "sms", "--mock", MOCK_OK, flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_analyze_threshold_refused_before_the_votes_are_read(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--votes", str(tmp_path / "missing.json"), "--threshold", "7", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: --threshold must be in [0, 1], got 7.0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "sms", "--mock", "{missing}"],
        ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "{missing}"],
        ["analyze", "--votes", "{missing}"],
        ["aggregate", "--votes", "{missing}"],
        ["export", "--pseudolabels", "{missing}", "--task", "sms", "--data", "{missing}"],
        ["train", "--train-file", "{missing}", "--task", "sms"],
        ["eval", "--model", "{missing}", "--data", "{missing}"],
    ],
    ids=lambda argv: argv[0],
)
def test_nonempty_out_refused_before_any_input_is_read(argv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    before = listing(out)
    missing = str(tmp_path / "missing")
    code = main([*(arg.format(missing=missing) for arg in argv), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: output directory {out} is not empty; pass --force to overwrite\n"
    assert listing(out) == before


@pytest.mark.parametrize(
    "argv, pair",
    [
        (["generate", "--task", "sms", "--mock", "{missing}", "--endpoint", "http://localhost:9/v1"],
         "--mock and --endpoint"),
        (["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--classes", "ham,spam", "--data", "{missing}"],
         "--task and --classes"),
        (["export", "--pseudolabels", "{missing}", "--task", "sms", "--classes", "ham,spam", "--data", "{missing}"],
         "--task and --classes"),
        (["train", "--train-file", "{missing}", "--task", "sms", "--classes", "ham,spam"], "--task and --classes"),
        (["aggregate", "--votes", "{missing}", "--model", "wmv", "--params", "{missing}"], "--model and --params"),
    ],
    ids=["generate", "apply", "export", "train", "aggregate"],
)
def test_flags_that_exclude_each_other_refused_before_any_input_is_read(argv, pair, tmp_path, capsys):
    out = tmp_path / "out"
    missing = str(tmp_path / "missing")
    code = main([*(arg.format(missing=missing) for arg in argv), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {pair} exclude each other\n"
    assert not out.exists()


def test_generate_without_mock_or_endpoint_posts_to_the_default(tmp_path, monkeypatch):
    posted = []

    def refuse(self, body):
        posted.append(self.endpoint)
        raise prompting.TransportError("offline")

    monkeypatch.setenv(prompting.API_KEY_ENV, "k")
    monkeypatch.setattr(prompting.HttpTransport, "complete", refuse)
    monkeypatch.setattr(cli.time, "sleep", lambda seconds: None)
    code = main(["generate", "--task", "sms", "--n", "1", "--out", str(tmp_path / "gen")])
    assert code == 0
    assert posted and set(posted) == {cli.DEFAULT_ENDPOINT}
    assert read_manifest(tmp_path / "gen")["params"]["endpoint"] == cli.DEFAULT_ENDPOINT


class TestGenerateRecordsItsEndpoint:
    """The manifest names the service generate asked, without the parts
    of its URL that can carry credentials."""

    def test_http_endpoint_recorded_without_credentials(self, tmp_path, monkeypatch):
        posted = []

        def reply(self, body):
            posted.append(self.endpoint)
            return {"choices": [{"message": {"content": '```\nrule: contains("win") -> spam;\n```'}}]}

        monkeypatch.setenv(prompting.API_KEY_ENV, "sk-env-secret")
        monkeypatch.setattr(prompting.HttpTransport, "complete", reply)
        url = "https://api.example.com:8443/v1/chat?key=query-secret#frag"
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--n", "1", "--endpoint", url, "--out", str(out)]) == 0
        assert posted == [url]
        assert read_manifest(out)["params"]["endpoint"] == "https://api.example.com:8443/v1/chat"
        for path in out.rglob("*"):
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                for secret in ("query-secret", "frag", "sk-env-secret"):
                    assert secret not in text, (path, secret)

    @pytest.mark.parametrize("userinfo", ["user:pw@", "token@", "@"])
    def test_credentials_in_the_url_refused_before_any_request(self, userinfo, tmp_path, monkeypatch, capsys):
        # urllib would take them as part of the host: to the name lookup
        # and the Host header, never as credentials
        import urllib.request

        monkeypatch.setenv(prompting.API_KEY_ENV, "k")
        monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("connected"))
        out = tmp_path / "gen"
        url = f"https://{userinfo}api.example.com/v1/chat"
        assert main(["generate", "--task", "sms", "--n", "1", "--endpoint", url, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --endpoint must name no user:password@ before its host; "
            f"the API key comes from {prompting.API_KEY_ENV}\n"
        )
        assert not out.exists()

    def test_malformed_endpoint_refused_before_any_request(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(prompting.API_KEY_ENV, "k")
        monkeypatch.setattr(prompting.HttpTransport, "complete", lambda self, body: pytest.fail("posted"))
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--endpoint", "http://[::1/v1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --endpoint: Invalid IPv6 URL\n"
        assert not out.exists()


class TestExportRefusesUnjoinedPseudolabels:
    """Pseudolabels for records the dataset lacks are refused before
    --out is created or, with --force, emptied."""

    def export(self, labeled, data, out: Path, *extra: str) -> int:
        argv = ["export", "--pseudolabels", str(labeled), "--task", "sms", "--data", str(data)]
        return main([*argv, "--out", str(out), *extra])

    def first_rows(self, corpus_file, tmp_path) -> Path:
        head = tmp_path / "head.jsonl"
        lines = Path(corpus_file).read_text(encoding="utf-8").splitlines(keepends=True)
        head.write_text("".join(lines[:5]), encoding="utf-8")
        return head

    def test_no_out_is_created(self, labeled, corpus_file, tmp_path, capsys):
        head = self.first_rows(corpus_file, tmp_path)
        out = tmp_path / "x" / "exp"
        assert self.export(labeled, head, out) == 1
        assert capsys.readouterr().err == (
            f"error: {labeled} does not match {head}: pseudolabel for unknown record 's00005'\n"
        )
        assert not out.exists()

    def test_forced_rerun_keeps_the_earlier_export(self, labeled, corpus_file, tmp_path, capsys):
        out = tmp_path / "exp"
        assert self.export(labeled, corpus_file, out) == 0
        before = listing(out)
        capsys.readouterr()
        assert self.export(labeled, self.first_rows(corpus_file, tmp_path), out, "--force") == 1
        assert "pseudolabel for unknown record 's00005'" in capsys.readouterr().err
        assert listing(out) == before


class TestForce:
    def generate(self, out: Path, *argv: str) -> int:
        return main(["generate", "--task", "sms", "--mock", MOCK_OK, *argv, "--out", str(out), "--force"])

    def test_rerun_removes_the_outputs_the_last_manifest_lists(self, tmp_path):
        out = tmp_path / "gen"
        assert self.generate(out, "--n", "6") == 0
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        assert self.generate(out, "--n", "2") == 0
        assert sorted(p.name for p in (out / "programs").iterdir()) == ["slot_00.lf", "slot_01.lf"]
        assert sorted(p.name for p in (out / "raw").iterdir()) == ["0.json", "1.json"]
        # a file the last manifest did not list stays
        assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"
        manifest = read_manifest(out)
        assert manifest["params"]["n"] == 2
        assert set(manifest["outputs"]) == set(tree_bytes(out))
        assert len([name for name in manifest["outputs"] if name.endswith(".lf")]) == 2

    def test_rerun_keeps_its_own_inputs(self, votes_dir, tmp_path):
        # apply's manifest lists votes.json, which analyze reads
        out = tmp_path / "votes"
        shutil.copytree(votes_dir, out)
        votes = out / "votes.json"
        before = votes.read_bytes()
        assert main(["analyze", "--votes", str(votes), "--out", str(out), "--force"]) == 0
        assert votes.read_bytes() == before
        assert str(votes) in read_manifest(out)["inputs"]

    def test_refused_rerun_removes_nothing(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert self.generate(out, "--n", "6") == 0
        before = listing(out)
        capsys.readouterr()
        missing = tmp_path / "missing.json"
        code = main(["generate", "--task", "sms", "--mock", str(missing), "--out", str(out), "--force"])
        assert code == 1
        assert str(missing) in capsys.readouterr().err
        assert listing(out) == before

    @pytest.mark.parametrize(
        "manifest, reason",
        [
            ('{"outputs": {"cost.json": "", "../victim.txt": ""}}', "output '../victim.txt' lies outside {out}"),
            ('{"outputs": ["cost.json"]}', "'outputs' must be an object, got a list"),
            ("{", "malformed JSON"),
        ],
        ids=["escaping-path", "outputs-not-an-object", "not-json"],
    )
    def test_unusable_manifest_refused(self, manifest, reason, tmp_path, capsys):
        out = tmp_path / "gen"
        out.mkdir()
        (out / "cost.json").write_text("{}", encoding="utf-8")
        (out / "run_manifest.json").write_text(manifest, encoding="utf-8")
        (tmp_path / "victim.txt").write_text("theirs", encoding="utf-8")
        before = listing(out)
        assert self.generate(out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'run_manifest.json'}:"), err
        assert reason.format(out=out) in err
        assert listing(out) == before
        assert (tmp_path / "victim.txt").read_text(encoding="utf-8") == "theirs"


def test_train_that_diverges_writes_no_model(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    train.write_text(_jsonl(*_TEXT_TRAINING_ROWS))
    out = tmp_path / "out"
    argv = ["train", "--train-file", str(train), "--classes", "ham,spam", "--epochs", "2", "--dims", "16"]
    code = main([*argv, "--lr", "1e300", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert re.fullmatch(r"error: training diverged: the loss after epoch \d is nan; lower --lr\n", err), err
    assert not list(out.glob("model.*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--programs", SPAM_PROGRAMS, "--data", "d.jsonl"],
        ["export", "--pseudolabels", "p.jsonl", "--data", "d.jsonl"],
        ["train", "--train-file", "t.jsonl"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "classes, reason",
    [
        ("a,,b", "--classes: class names must be non-empty strings"),
        ("a", "--classes: a class space needs at least 2 classes"),
        ("a,a", "--classes: classes must be unique strings, but entry 1 repeats 'a'"),
        ("sp\udcffam,ham", "argument 'sp\\udcffam,ham' holds the lone surrogate \\udcff, which UTF-8 cannot encode"),
    ],
    ids=["empty-name", "one-class", "duplicate", "lone-surrogate"],
)
def test_malformed_classes_rejected(argv, classes, reason, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([*argv, "--classes", classes, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, arg",
    [
        (["generate", "--task", "sms", "--mock", MOCK_OK, "--keywords", "\udcff"], "'\\udcff'"),
        (["generate", "--task", "sms", "--mock", MOCK_OK, "--model-name", "m\udcff"], "'m\\udcff'"),
        (["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "c\udcff.jsonl"], "'c\\udcff.jsonl'"),
    ],
    ids=["keywords", "model-name", "data-path"],
)
def test_argument_of_undecodable_bytes_rejected(argv, arg, tmp_path, capsys):
    # each was written into an output, which crashed on it
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == f"error: argument {arg} holds the lone surrogate \\udcff, which UTF-8 cannot encode\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["apply", "train"])
def test_class_name_of_undecodable_bytes_rejected(command, corpus_file, tmp_path):
    # argv bytes that are not UTF-8 reach Python as lone surrogates, which
    # no artifact can hold: apply wrote a 0-byte votes.json, and train a
    # model.json that eval refuses
    if command == "apply":
        progs = tmp_path / "progs"
        progs.mkdir()
        (progs / "ham.lf").write_text('rule: contains("lunch") -> ham;\n', encoding="utf-8")
        argv = ["apply", "--programs", str(progs), "--data", corpus_file]
    else:
        train = tmp_path / "train.jsonl"
        train.write_text(_jsonl({**_ROW, "label": 0}, {"id": "b", "text": "hi", "label": 1}))
        argv = ["train", "--train-file", str(train), "--epochs", "1", "--dims", "16"]
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "labelsmith", *argv, "--classes", b"sp\xffam,ham", "--out", str(out)],
        capture_output=True,
        env=_src_env(),
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr == (
        b"error: argument 'sp\\udcffam,ham' holds the lone surrogate \\udcff, which UTF-8 cannot encode\n"
    )
    assert not out.exists()
