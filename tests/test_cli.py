"""End-to-end CLI contract: subcommands, exit codes, artifacts, manifests."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from helpers import planted_confusion_votes

from labelsmith import models
from labelsmith.cli import main
from labelsmith.data import load_pseudolabels, load_votes, save_votes, serialize_records
from labelsmith.packs import load_pack
from labelsmith.prompting import (
    API_KEY_ENV,
    Pricing,
    build_prompt,
    estimate_cost,
    response_text,
)
from labelsmith.synth import make_spam_corpus

FIXTURES = Path(__file__).parent / "fixtures"
MOCK_OK = str(FIXTURES / "mock" / "ok_program.json")
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
        assert set(manifest["outputs"]) >= {"cost.json", "programs/slot_00.lf", "raw/0.json"}
        captured = capsys.readouterr()
        assert "extracted 10/10 programs" in captured.out
        assert "estimated cost: $" in captured.out

    def test_cost_matches_recomputation(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--task", "sms", "--mock", MOCK_OK, "--out", str(out)]) == 0
        saved = json.loads((out / "cost.json").read_text(encoding="utf-8"))
        prompt = build_prompt(load_pack("sms").prompt_spec())
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

    def test_retry_fixture_recovers(self, tmp_path):
        out = tmp_path / "gen"
        fixture = str(FIXTURES / "mock" / "retry_then_ok.json")
        code = main(
            ["generate", "--task", "sms", "--mock", fixture, "--n", "1", "--out", str(out)]
        )
        assert code == 0
        artifact = json.loads((out / "raw" / "0.json").read_text(encoding="utf-8"))
        assert artifact["attempts"] == 3
        assert len(list((out / "programs").glob("*.lf"))) == 1

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
        matrix, meta = load_votes(votes_dir / "votes.json")
        assert matrix.n == 300
        assert matrix.m == 10
        assert matrix.program_ids[0] == "01_prizes_vs_work"
        assert meta["classes"] == ["spam", "ham"]
        assert len(meta["gold"]) == 300
        assert set(meta["group"]) == {"standard", "adversarial"}
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
                "--modality", "text",
                "--data", corpus_file,
                "--out", str(out),
            ]
        )
        assert code == 0
        a, _ = load_votes(votes_dir / "votes.json")
        b, _ = load_votes(out / "votes.json")
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
        assert len(labels) == 300
        report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
        assert report["kind"] == params.kind
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
        report = json.loads((reused / "fit_report.json").read_text(encoding="utf-8"))
        assert report["loaded_from"] == str(fitted / "params.json")
        a = (fitted / "pseudolabels.jsonl").read_bytes()
        b = (reused / "pseudolabels.jsonl").read_bytes()
        assert a == b

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
            ("class-count", "fitted for 2 classes but the votes file has 3"),
            ("nan-priors", "priors must be non-negative and sum to 1"),
        ],
    )
    def test_malformed_params_rejected(self, case, message, tmp_path, capsys):
        # binary votes in a file that declares three classes
        matrix, _ = planted_confusion_votes(60, 3, 2, diag=0.8, seed=3)
        votes = save_votes(tmp_path / "votes.json", matrix, ["a", "b", "c"])
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


class TestExportTrainEval:
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
        covered = sum(1 for lab in labels if lab.covered)
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

        _, targets = load_training_set(out / "train.jsonl")
        assert targets.ndim == 2
        assert targets.shape[1] == 2
        np.testing.assert_allclose(targets.sum(axis=1), 1.0)

    def test_train_artifacts(self, trained, capsys):
        assert (trained / "model.json").is_file()
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
        assert (rerun / "model.json").read_bytes() == (trained / "model.json").read_bytes()
        assert (rerun / "metrics.csv").read_bytes() == (trained / "metrics.csv").read_bytes()

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
