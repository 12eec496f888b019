"""Top-level acceptance gate: one test per advertised guarantee.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) so a full run reads as a checklist. Tolerances and runtime
bounds are part of the contract and are asserted, not just reported.
"""

import itertools
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import gradient_check, planted_binary_votes, planted_confusion_votes
from test_diagnostics import naive_stats
from test_dsl import _random_expr

from labelsmith.cli import main
from labelsmith.concepts import EmbeddingTable, reject_spurious
from labelsmith.data import (
    ABSTAIN,
    ClassSpace,
    Record,
    VoteMatrix,
    load_pseudolabels,
    load_votes,
    serialize_records,
)
from labelsmith.diagnostics import analyze, group_metrics
from labelsmith.distill import Hyper, init_mlp, train_mlp
from labelsmith.dsl import DslError, Rule, RuleProgram, evaluate, format_program, parse_program
from labelsmith.models import FITTERS, fit_dawid_skene, fit_triplet, predict
from labelsmith.packs import load_pack
from labelsmith.prompting import Pricing, build_prompt, estimate_cost
from labelsmith.synth import make_spam_corpus

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number, summary):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d}: FAIL  {summary}")
            raise
        else:
            with capsys.disabled():
                print(f"criterion {number:2d}: PASS  {summary} ({time.monotonic() - start:.1f}s)")

    return run


def _accuracy(labels, truth):
    return float(np.mean(labels.hard == truth))


def test_01_confusion_em_recovers_planted_programs(criterion):
    with criterion(1, "confusion-matrix EM recovers planted reliabilities and beats plurality"):
        start = time.monotonic()
        matrix, truth = planted_confusion_votes(2000, 5, 3, diag=0.8, seed=117)
        params, report = fit_dawid_skene(matrix, 3)
        diag = params.confusion[:, np.arange(3), np.arange(3)]
        assert np.abs(diag - 0.8).max() <= 0.05
        em_acc = _accuracy(predict(params, matrix), truth)
        mv_params, _ = FITTERS["mv"](matrix, 3)
        mv_acc = _accuracy(predict(mv_params, matrix), truth)
        assert em_acc >= mv_acc
        assert em_acc > 0.94
        objective = np.array(report.objective)
        assert (np.diff(objective) >= -1e-8).all()
        assert report.converged
        assert time.monotonic() - start < 5.0


def test_02_pairwise_agreement_recovers_accuracies(criterion):
    with criterion(2, "agreement-based fitter recovers accuracies, zeroes a coin flip, converges in n"):
        start = time.monotonic()
        planted = (0.9, 0.8, 0.7)
        matrix, _ = planted_binary_votes(10_000, planted, seed=77)
        params, _ = fit_triplet(matrix, 2)
        assert np.abs(params.accuracies - np.array(planted)).max() <= 0.05

        coin, _ = planted_binary_votes(10_000, (0.9, 0.8, 0.7, 0.5), seed=60)
        coin_params, _ = fit_triplet(coin, 2)
        assert abs(coin_params.weights[3]) <= 0.1

        medians = []
        for n in (1000, 4000, 16000):
            errs = []
            for seed in range(20):
                m, _ = planted_binary_votes(n, planted, seed=3000 + seed)
                p, _ = fit_triplet(m, 2)
                errs.append(float(np.abs(p.accuracies - np.array(planted)).mean()))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]
        assert time.monotonic() - start < 10.0


def test_03_posteriors_match_brute_force_bayes(criterion):
    with criterion(3, "posteriors equal brute-force Bayes enumeration on every vote pattern"):
        from labelsmith.models import DAWID_SKENE, LabelModelParams, posterior_matrix

        rng = np.random.default_rng(8)
        confusion = rng.dirichlet(np.ones(2), size=(4, 2))
        params = LabelModelParams(
            kind=DAWID_SKENE,
            priors=np.array([0.5, 0.5]),
            program_ids=("p0", "p1", "p2", "p3"),
            confusion=confusion,
        )
        patterns = list(itertools.product([ABSTAIN, 0, 1], repeat=4))
        assert len(patterns) == 81
        matrix = VoteMatrix(
            votes=np.array(patterns, dtype=np.int64),
            program_ids=params.program_ids,
            record_ids=tuple(f"r{i}" for i in range(len(patterns))),
        )
        posteriors = posterior_matrix(params, matrix)
        for i, pattern in enumerate(patterns):
            if all(v == ABSTAIN for v in pattern):
                expected = np.array([0.5, 0.5])  # uncovered rows are uniform
            else:
                expected = params.priors.copy()
                for j, v in enumerate(pattern):
                    if v != ABSTAIN:
                        expected = expected * confusion[j][:, v]
                expected = expected / expected.sum()
            np.testing.assert_allclose(posteriors[i], expected, atol=1e-9)


def test_04_diagnostics_equal_naive_counting(criterion):
    with criterion(4, "per-program stats equal a naive double loop on 1,000 random matrices"):
        rng = np.random.default_rng(404)
        seen_flagged = seen_clean = 0
        for _ in range(1000):
            K = int(rng.integers(2, 5))
            abstain_p = rng.uniform(0.0, 0.8, size=6)
            abstain_p[int(rng.integers(6))] = rng.uniform(0.85, 0.95)
            votes = rng.integers(0, K, size=(200, 6))
            votes[rng.random((200, 6)) < abstain_p] = ABSTAIN
            matrix = VoteMatrix(
                votes=votes,
                program_ids=tuple(f"p{j}" for j in range(6)),
                record_ids=tuple(f"r{i}" for i in range(200)),
            )
            stats = analyze(matrix)
            expected = naive_stats(votes)
            for s, e in zip(stats, expected):
                assert s.coverage == e["coverage"]
                assert s.polarity == e["polarity"]
                assert s.overlap == e["overlap"]
                assert s.conflict == e["conflict"]
                assert s.conflict <= s.overlap <= s.coverage
                assert s.flagged_low_coverage == (s.coverage < 0.10) == e["flagged"]
                seen_flagged += s.flagged_low_coverage
                seen_clean += not s.flagged_low_coverage
        assert seen_flagged > 0 and seen_clean > 0


def test_05_group_gap_arithmetic(criterion):
    with criterion(5, "group metrics report average 0.820, worst 0.318, gap 0.502 exactly"):
        predictions = [1] * 2500
        gold = [1] * 1891 + [0] * 109 + [1] * 159 + [0] * 341
        groups = ["majority"] * 2000 + ["minority"] * 500
        report = group_metrics(predictions, gold, groups)
        assert report.average_accuracy == 0.820
        assert report.worst_group_accuracy == 0.318
        assert report.gap == 0.502


def test_06_cost_linear_in_points_constant_in_programs(criterion):
    with criterion(6, "annotation cost grows linearly with n; generation cost does not depend on n"):
        pricing = Pricing(0.0005, 0.0015)
        template = build_prompt(load_pack("sms").prompt_spec())
        pool = [r.text for r in make_spam_corpus(50, seed=11)[0]]
        ns = (100, 300, 1000, 3000, 10000)
        annotation, generation = [], []
        for n in ns:
            prompts = [f"{template}\nText: {pool[i % len(pool)]}" for i in range(n)]
            annotation.append(estimate_cost(prompts, ["spam"] * n, pricing).dollars)
            generation.append(
                estimate_cost(
                    [template] * 10, ['rule: contains("free") -> spam;'] * 10, pricing
                ).dollars
            )
        x = np.array(ns, dtype=float)
        y = np.array(annotation)
        slope, intercept = np.polyfit(x, y, 1)
        residual = y - (slope * x + intercept)
        r2 = 1.0 - (residual**2).sum() / ((y - y.mean()) ** 2).sum()
        assert r2 >= 0.999
        assert slope > 0
        assert len(set(generation)) == 1
        assert annotation[-1] > 100 * generation[-1]


def test_07_parser_survives_fuzz_and_round_trips(criterion):
    with criterion(7, "10k-input fuzz never crashes; 1k ASTs round-trip; fixture programs evaluate as documented"):
        spam_cs = ClassSpace(("spam", "ham"))
        tokens = [
            "rule", "default", ":", ";", "->", "and", "or", "not", "(", ")", "[", "]",
            ",", '"free"', "'x'", "0.5", "42", "-1", "contains", "contains_any",
            "matches", "length_at_least", "uppercase_ratio_at_least", "score", "spam",
            "ham", "ABSTAIN", '"', "\\", "#", "\n", " ", "=", ">=", "<", "true",
        ]
        rng = np.random.default_rng(7007)
        for trial in range(10_000):
            if trial % 3 == 0:
                n = rng.integers(1, 60)
                source = "".join(tokens[i] for i in rng.integers(0, len(tokens), size=n))
            else:
                n = rng.integers(1, 120)
                source = bytes(rng.integers(1, 256, size=n).tolist()).decode(
                    "utf-8", errors="replace"
                )
            try:
                parse_program(source, spam_cs)
            except DslError:
                pass

        k3 = ClassSpace(("red", "green", "blue"))
        for trial in range(1000):
            scores_mode = trial % 4 == 0
            concepts = ("wing shape", "beak len") if scores_mode else None
            rules = tuple(
                Rule(
                    guard=_random_expr(rng, depth=6, concepts=concepts),
                    target=int(rng.integers(-1, 3)),
                )
                for _ in range(rng.integers(1, 5))
            )
            program = RuleProgram(id=f"t{trial}", rules=rules, default=int(rng.integers(-1, 3)))
            printed = format_program(program, k3)
            assert parse_program(printed, k3, program_id=program.id) == program

        # regex- and keyword-style text programs, hand-checked record by record
        regex_program = parse_program(
            'rule: matches("(free|win|prize)") -> spam;\n'
            'rule: matches("(meeting|lunch)") -> ham;\n'
            "default -> ABSTAIN;",
            spam_cs,
        )
        for text, want in [
            ("you win a prize", 0),
            ("lunch at noon", 1),
            ("nothing here", ABSTAIN),
            ("win before lunch", 0),
        ]:
            assert evaluate(regex_program, Record(id="x", text=text)) == want

        cancer_cs = ClassSpace(("colon cancer", "lung cancer", "thyroid cancer"))
        keyword_program = parse_program(
            'rule: contains_any(["colonoscopy", "colorectal"]) -> "colon cancer";\n'
            'rule: contains_any(["lung", "pulmonary"]) -> "lung cancer";\n'
            'rule: contains("thyroid") -> "thyroid cancer";\n'
            "default -> ABSTAIN;",
            cancer_cs,
        )
        for text, want in [
            ("colorectal screening today", 0),
            ("pulmonary nodule found", 1),
            ("thyroid panel ordered", 2),
            ("no findings", ABSTAIN),
            ("colonoscopy after lung pain", 0),
        ]:
            assert evaluate(keyword_program, Record(id="x", text=text)) == want

        # score-threshold program over concept similarities
        bird_cs = ClassSpace(("landbird", "waterbird"))
        threshold_program = parse_program(
            'rule: score("has webbed feet") >= 0.7 -> waterbird;\n'
            'rule: score("perching foot shape") >= 0.7 -> landbird;\n'
            "default -> ABSTAIN;",
            bird_cs,
        )
        for scores, want in [
            ({"has webbed feet": 0.9, "perching foot shape": 0.2}, 1),
            ({"has webbed feet": 0.1, "perching foot shape": 0.8}, 0),
            ({"has webbed feet": 0.3, "perching foot shape": 0.4}, ABSTAIN),
            ({"has webbed feet": 0.8, "perching foot shape": 0.9}, 1),
        ]:
            assert evaluate(threshold_program, Record(id="x", scores=scores)) == want


def test_08_spurious_direction_removal(criterion):
    with criterion(8, "projection removal: idempotent, norm non-increasing, residual dots < 1e-10"):
        rng = np.random.default_rng(88)
        records = rng.normal(size=(1000, 64))
        directions = rng.normal(size=(2, 64))
        table = EmbeddingTable(
            records=records.copy(),
            concepts=directions,
            concept_names=("background", "lighting"),
            record_ids=tuple(f"r{i}" for i in range(1000)),
        )
        once = reject_spurious(table, ["background", "lighting"])
        twice = reject_spurious(once, ["background", "lighting"])
        assert np.abs(once.records @ directions.T).max() < 1e-10
        before = np.linalg.norm(records, axis=1)
        after = np.linalg.norm(once.records, axis=1)
        assert (after <= before + 1e-12).all()
        assert np.abs(twice.records - once.records).max() < 1e-12
        np.testing.assert_array_equal(once.concepts, table.concepts)


def test_09_distiller_gradients_and_training(criterion):
    with criterion(9, "gradient check <= 1e-4; XOR >= 0.95; initial loss = ln K; bitwise seed determinism"):
        rng = np.random.default_rng(1)
        model = init_mlp(12, 3, seed=1)
        X = rng.normal(size=(16, 12))
        y = rng.integers(0, 3, size=16)
        assert gradient_check(model, X, y) <= 1e-4

        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        xor_rng = np.random.default_rng(7)
        Xx = np.repeat(corners, 100, axis=0) + xor_rng.normal(scale=0.05, size=(400, 2))
        yx = np.repeat(np.array([0, 1, 1, 0]), 100)
        trained, metrics = train_mlp(Xx, yx, 2, Hyper(epochs=100, seed=7))
        assert metrics.train_accuracy[-1] >= 0.95
        assert abs(metrics.initial_loss - math.log(2)) <= 0.1

        again, metrics2 = train_mlp(Xx, yx, 2, Hyper(epochs=100, seed=7))
        for w1, w2 in zip(trained.weights, again.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(trained.biases, again.biases):
            np.testing.assert_array_equal(b1, b2)
        assert metrics.train_loss == metrics2.train_loss


def test_10_offline_pipeline_beats_its_parts(criterion, tmp_path):
    with criterion(10, "offline pipeline exits 0 in < 60s; aggregated labels beat best program and plurality"):
        start = time.monotonic()
        records, _ = make_spam_corpus(2000, seed=7)
        data = tmp_path / "corpus.jsonl"
        serialize_records(records, data)
        steps = [
            ["apply", "--programs", str(FIXTURES / "spam_programs"), "--task", "sms",
             "--data", str(data), "--out", str(tmp_path / "votes")],
            ["analyze", "--votes", str(tmp_path / "votes" / "votes.json"),
             "--out", str(tmp_path / "analysis")],
            ["aggregate", "--votes", str(tmp_path / "votes" / "votes.json"), "--model", "ds",
             "--out", str(tmp_path / "agg")],
            ["export", "--pseudolabels", str(tmp_path / "agg" / "pseudolabels.jsonl"),
             "--task", "sms", "--data", str(data), "--out", str(tmp_path / "export")],
            ["train", "--train-file", str(tmp_path / "export" / "train.jsonl"), "--task", "sms",
             "--epochs", "20", "--dims", "1024", "--out", str(tmp_path / "train")],
            ["eval", "--model", str(tmp_path / "train" / "model.json"), "--data", str(data),
             "--out", str(tmp_path / "eval")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv[0]
        assert time.monotonic() - start < 60.0

        matrix, meta = load_votes(tmp_path / "votes" / "votes.json")
        gold = np.array(meta["gold"])
        best_program = 0.0
        for j in range(matrix.m):
            col = matrix.votes[:, j]
            mask = col != ABSTAIN
            best_program = max(best_program, float((col[mask] == gold[mask]).mean()))
        em = load_pseudolabels(tmp_path / "agg" / "pseudolabels.jsonl").hard
        em_acc = float((em == gold).mean())
        mv_params, _ = FITTERS["mv"](matrix, 2)
        mv_acc = _accuracy(predict(mv_params, matrix), gold)
        assert em_acc >= best_program
        assert em_acc >= mv_acc
