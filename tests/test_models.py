import itertools
import json

import numpy as np
import pytest
from helpers import (
    planted_binary_votes,
    planted_confusion_votes,
    reference_alignment,
    reference_em,
)

from labelsmith.data import ABSTAIN, VoteMatrix
from labelsmith.models import (
    DAWID_SKENE,
    FITTERS,
    LabelModelParams,
    ModelError,
    empirical_accuracies,
    fit_dawid_skene,
    fit_snorkel_lite,
    fit_triplet,
    load_params,
    majority_vote,
    make_counting_params,
    posterior_matrix,
    predict,
    save_params,
)
from labelsmith.models import _align_permutation

PLANTED = (0.9, 0.8, 0.7)


def _accuracy(pseudolabels, truth):
    hard = np.array([p.hard for p in pseudolabels])
    return float((hard == np.asarray(truth)).mean())


def _naive_plurality(votes, K, weights=None):
    """Reference counting loop, ties to the smallest class index."""
    n, m = votes.shape
    w = [1.0] * m if weights is None else list(weights)
    out = []
    for i in range(n):
        mass = [0.0] * K
        any_vote = False
        for j in range(m):
            if votes[i, j] != ABSTAIN:
                mass[votes[i, j]] += w[j]
                any_vote = True
        best = max(range(K), key=lambda k: (mass[k], -k))
        out.append((best, any_vote, mass))
    return out


class TestMajorityVote:
    def test_weighted_row_follows_heavy_program(self, mk_matrix):
        matrix = mk_matrix([[1, 0, 0]])
        labels = majority_vote(matrix, 2, weights=(3.0, 1.0, 1.0))
        assert labels[0].hard == 1
        assert labels[0].posterior == (0.4, 0.6)

    def test_exhaustive_against_naive_counting(self, mk_matrix):
        for m, K in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]:
            patterns = list(itertools.product([ABSTAIN, *range(K)], repeat=m))
            matrix = mk_matrix(patterns)
            labels = majority_vote(matrix, K)
            expected = _naive_plurality(matrix.votes, K)
            for got, (best, any_vote, mass) in zip(labels, expected):
                assert got.hard == best
                assert got.covered == any_vote
                if not any_vote:
                    assert got.posterior == tuple([1.0 / K] * K)

    def test_wmv_uniform_weights_equal_plurality(self, mk_matrix):
        # no abstains: WMV with unit weights is plain plurality
        for m, K in [(3, 2), (4, 3)]:
            patterns = list(itertools.product(range(K), repeat=m))
            matrix = mk_matrix(patterns)
            params, _ = make_counting_params(matrix, K, kind="WMV")
            wmv = [p.hard for p in predict(params, matrix)]
            plain = [p.hard for p in majority_vote(matrix, K)]
            assert wmv == plain

    def test_rejects_bad_weights(self, mk_matrix):
        matrix = mk_matrix([[0, 1]])
        with pytest.raises(ModelError, match="positive"):
            majority_vote(matrix, 2, weights=(1.0, 0.0))
        with pytest.raises(ModelError):
            majority_vote(matrix, 2, weights=(1.0,))


class TestEmpiricalAccuracies:
    def test_hand_case_with_missing_gold(self, mk_matrix):
        matrix = mk_matrix([[0, 1], [1, 1], [ABSTAIN, 0], [0, ABSTAIN]])
        acc = empirical_accuracies(matrix, [0, 1, 0, None])
        # p0: rows 0,1 voted with gold -> correct on both
        # p1: rows 0,1,2 -> wrong on row 0, correct on rows 1 and 2
        assert acc[0] == 1.0
        assert acc[1] == pytest.approx(2 / 3)

    def test_program_without_gold_rows_is_nan(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]])
        acc = empirical_accuracies(matrix, [0, 1])
        assert np.isnan(acc[1])

    def test_length_mismatch(self, mk_matrix):
        matrix = mk_matrix([[0, 1]])
        with pytest.raises(ModelError, match="gold"):
            empirical_accuracies(matrix, [0, 1])


class TestCountingParams:
    def test_wmv_weights_are_logodds_of_accuracy(self, mk_matrix):
        matrix = mk_matrix([[0, 0], [1, 0], [0, 1], [1, 0]])
        gold = [0, 1, 0, 1]
        params, report = make_counting_params(matrix, 2, kind="WMV", gold=gold)
        # p0 accuracy 1.0 clamps to 0.95; p1 accuracy 1/4, log-odds negative,
        # floored at 0.01 so a bad program nearly vanishes but never flips votes
        assert params.accuracies[0] == pytest.approx(0.95)
        assert params.weights[0] == pytest.approx(np.log(0.95 / 0.05))
        assert params.weights[1] == pytest.approx(0.01)
        assert report.accuracy_by_program == pytest.approx((0.95, 0.25))

    def test_wmv_without_gold_uses_uniform_and_notes_it(self, mk_matrix):
        matrix = mk_matrix([[0, 1]])
        params, report = make_counting_params(matrix, 2, kind="WMV")
        assert np.array_equal(params.weights, np.ones(2))
        assert any("uniform" in note for note in report.notes)

    def test_wmv_chance_weight_when_program_lacks_gold(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN], [ABSTAIN, 0]])
        params, report = make_counting_params(matrix, 2, kind="WMV", gold=[0, 1, None])
        assert params.accuracies[1] == pytest.approx(0.5)
        assert any("p1" in note for note in report.notes)

    def test_zero_coverage_program_rejected(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]])
        with pytest.raises(ModelError, match="p1.*zero coverage"):
            make_counting_params(matrix, 2)


class TestDawidSkene:
    def test_planted_recovery(self):
        matrix, truth = planted_confusion_votes(2000, 5, 3, diag=0.8, seed=117)
        params, report = fit_dawid_skene(matrix, 3)
        diagonals = np.array([params.confusion[j].diagonal() for j in range(5)])
        assert np.abs(diagonals - 0.8).max() < 0.05
        ds_acc = _accuracy(predict(params, matrix), truth)
        mv_acc = _accuracy(majority_vote(matrix, 3), truth)
        assert ds_acc >= mv_acc
        assert ds_acc > 0.94
        assert report.converged

    def test_objective_non_decreasing(self):
        matrix, _ = planted_confusion_votes(500, 4, 3, diag=0.7, seed=11, abstain=0.3)
        _, report = fit_dawid_skene(matrix, 3)
        diffs = np.diff(np.array(report.objective))
        assert (diffs >= -1e-8).all()

    def test_two_identical_perfect_programs(self, mk_matrix):
        truth = [i % 2 for i in range(40)]
        matrix = mk_matrix([[t, t] for t in truth])
        params, _ = fit_dawid_skene(matrix, 2)
        for label, t in zip(predict(params, matrix), truth):
            assert label.covered
            assert label.posterior[t] >= 0.99

    def test_single_program_all_class_zero(self, mk_matrix):
        matrix = mk_matrix([[0]] * 10)
        params, report = fit_dawid_skene(matrix, 2)
        assert params.priors[0] > 0.9
        assert all(p.hard == 0 for p in predict(params, matrix))
        # label switching resolved: accuracy estimates at least chance
        assert all(a >= 0.5 for a in report.accuracy_by_program)

    def test_column_permutation_equivariance(self):
        matrix, _ = planted_confusion_votes(300, 4, 3, diag=0.75, seed=21, abstain=0.2)
        perm = [2, 0, 3, 1]
        permuted = VoteMatrix(
            votes=matrix.votes[:, perm],
            program_ids=tuple(matrix.program_ids[j] for j in perm),
            record_ids=matrix.record_ids,
        )
        p1, _ = fit_dawid_skene(matrix, 3)
        p2, _ = fit_dawid_skene(permuted, 3)
        np.testing.assert_allclose(
            posterior_matrix(p1, matrix), posterior_matrix(p2, permuted), atol=1e-9
        )

    def test_row_permutation_permutes_outputs(self):
        matrix, _ = planted_confusion_votes(200, 4, 3, diag=0.75, seed=22, abstain=0.2)
        order = np.random.default_rng(5).permutation(200)
        shuffled = VoteMatrix(
            votes=matrix.votes[order],
            program_ids=matrix.program_ids,
            record_ids=tuple(matrix.record_ids[i] for i in order),
        )
        params, _ = fit_dawid_skene(matrix, 3)
        np.testing.assert_allclose(
            posterior_matrix(params, matrix)[order],
            posterior_matrix(params, shuffled),
            atol=1e-12,
        )

    def test_zero_coverage_program_rejected(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]])
        with pytest.raises(ModelError, match="zero coverage"):
            fit_dawid_skene(matrix, 2)


class TestSnorkelLite:
    def test_planted_one_coin_recovery(self):
        matrix, _ = planted_confusion_votes(2000, 5, 3, diag=0.75, seed=202, abstain=0.25)
        params, report = fit_snorkel_lite(matrix, 3)
        assert np.abs(params.accuracies - 0.75).max() < 0.05
        diffs = np.diff(np.array(report.objective))
        assert (diffs >= -1e-8).all()

    def test_confusion_has_one_coin_form(self):
        matrix, _ = planted_confusion_votes(500, 3, 3, diag=0.8, seed=31)
        params, _ = fit_snorkel_lite(matrix, 3)
        for j in range(3):
            conf = params.confusion[j]
            a = params.accuracies[j]
            expected = a * np.eye(3) + (1 - a) / 2 * (np.ones((3, 3)) - np.eye(3))
            np.testing.assert_allclose(conf, expected, atol=1e-12)

    def test_close_to_dawid_skene_on_full_confusion_data(self):
        matrix, truth = planted_confusion_votes(2000, 5, 3, diag=0.8, seed=117)
        oc_params, _ = fit_snorkel_lite(matrix, 3)
        ds_params, _ = fit_dawid_skene(matrix, 3)
        oc_acc = _accuracy(predict(oc_params, matrix), truth)
        ds_acc = _accuracy(predict(ds_params, matrix), truth)
        assert abs(oc_acc - ds_acc) <= 0.03

    def test_two_identical_perfect_programs(self, mk_matrix):
        truth = [i % 2 for i in range(40)]
        matrix = mk_matrix([[t, t] for t in truth])
        params, _ = fit_snorkel_lite(matrix, 2)
        for label, t in zip(predict(params, matrix), truth):
            assert label.posterior[t] >= 0.99


class TestReferenceEM:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_fitters_match_naive_per_row_em(self, K):
        matrix, _ = planted_confusion_votes(150, 4, K, diag=0.75, seed=60 + K, abstain=0.3)
        for fit, one_coin in ((fit_dawid_skene, False), (fit_snorkel_lite, True)):
            params, report = fit(matrix, K)
            priors, confusion, iterations, objective, q = reference_em(matrix.votes, K, one_coin)
            # one-coin relabels classes only for K=2
            if one_coin and K > 2:
                perm = tuple(range(K))
            else:
                perm = reference_alignment(q, matrix.votes, K)
            assert report.permutation == perm
            aligned_priors, aligned_confusion = np.empty(K), np.empty_like(confusion)
            aligned_priors[list(perm)] = priors
            aligned_confusion[:, list(perm)] = confusion
            assert report.iterations == iterations
            np.testing.assert_allclose(report.objective, objective, rtol=1e-12, atol=0)
            np.testing.assert_allclose(params.priors, aligned_priors, rtol=0, atol=1e-10)
            np.testing.assert_allclose(params.confusion, aligned_confusion, rtol=0, atol=1e-10)
        # table scoring agrees with per-row scoring however q labels classes,
        # and on a flat q, where permutations tie and identity order decides
        candidates = [q[:, list(perm)] for perm in itertools.permutations(range(K))]
        for posteriors in candidates + [np.full_like(q, 1.0 / K)]:
            expected = reference_alignment(posteriors, matrix.votes, K)
            assert _align_permutation(posteriors, matrix.votes, K) == expected


class TestTriplet:
    def test_planted_recovery(self):
        matrix, _ = planted_binary_votes(10_000, PLANTED, seed=77)
        params, _ = fit_triplet(matrix, 2)
        assert np.abs(params.accuracies - np.array(PLANTED)).max() < 0.05

    def test_identical_perfect_programs_clamp_high(self, mk_matrix):
        truth = [i % 2 for i in range(100)]
        matrix = mk_matrix([[t, t, t] for t in truth])
        params, _ = fit_triplet(matrix, 2)
        assert np.all(params.accuracies == 0.95)

    def test_coin_flip_weight_near_zero(self):
        matrix, _ = planted_binary_votes(10_000, (0.9, 0.8, 0.7, 0.5), seed=60)
        params, _ = fit_triplet(matrix, 2)
        assert abs(params.weights[3]) <= 0.1

    def test_error_shrinks_with_n(self):
        medians = []
        for n in (1000, 4000, 16000):
            errs = []
            for seed in range(20):
                matrix, _ = planted_binary_votes(n, PLANTED, seed=3000 + seed)
                params, _ = fit_triplet(matrix, 2)
                errs.append(float(np.abs(params.accuracies - np.array(PLANTED)).mean()))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_nonbinary(self, mk_matrix):
        matrix = mk_matrix([[0, 1, 2]])
        with pytest.raises(ModelError, match="K=2"):
            fit_triplet(matrix, 3)

    def test_rejects_fewer_than_three_programs(self, mk_matrix):
        matrix = mk_matrix([[0, 1], [1, 0]])
        with pytest.raises(ModelError, match="at least 3"):
            fit_triplet(matrix, 2)

    def test_all_triplets_skipped_is_an_error(self, mk_matrix):
        # p0 and p2 never fire together, so p1's only triplet lacks E[s0 s2]
        rows = []
        for i in range(40):
            if i < 20:
                rows.append([i % 2, i % 2, ABSTAIN])
            else:
                rows.append([ABSTAIN, i % 2, i % 2])
        matrix = mk_matrix(rows)
        with pytest.raises(ModelError, match="triplet"):
            fit_triplet(matrix, 2)


def _bayes_oracle(priors, confusion, pattern, K):
    """Brute-force posterior; the all-abstain pattern follows the library's
    uncovered convention (uniform) rather than the bare prior."""
    if all(v == ABSTAIN for v in pattern):
        return np.full(K, 1.0 / K)
    post = np.array(priors, dtype=float).copy()
    for j, v in enumerate(pattern):
        if v != ABSTAIN:
            post *= confusion[j][:, v]
    return post / post.sum()


class TestPredict:
    def test_enumeration_oracle_all_patterns(self, mk_matrix):
        rng = np.random.default_rng(8)
        confusion = rng.dirichlet(np.ones(2), size=(4, 2))
        params = LabelModelParams(
            kind=DAWID_SKENE,
            priors=np.array([0.5, 0.5]),
            program_ids=("p0", "p1", "p2", "p3"),
            confusion=confusion,
        )
        patterns = list(itertools.product([ABSTAIN, 0, 1], repeat=4))
        matrix = mk_matrix(patterns)
        posteriors = posterior_matrix(params, matrix)
        for i, pattern in enumerate(patterns):
            expected = _bayes_oracle(params.priors, confusion, pattern, 2)
            np.testing.assert_allclose(posteriors[i], expected, atol=1e-9)

    def test_enumeration_oracle_fitted_params(self, mk_matrix):
        data, _ = planted_binary_votes(4000, (0.85, 0.75, 0.9, 0.65), seed=40)
        params, _ = fit_dawid_skene(data, 2)
        patterns = list(itertools.product([ABSTAIN, 0, 1], repeat=4))
        matrix = mk_matrix(patterns)
        posteriors = posterior_matrix(params, matrix)
        for i, pattern in enumerate(patterns):
            if all(v == ABSTAIN for v in pattern):
                continue  # uncovered convention checked elsewhere
            expected = _bayes_oracle(params.priors, params.confusion, pattern, 2)
            np.testing.assert_allclose(posteriors[i], expected, atol=1e-9)

    def test_perfect_params_agreeing_row(self, mk_matrix):
        conf = np.stack([0.99 * np.eye(3) + 0.005 * (np.ones((3, 3)) - np.eye(3))] * 2)
        params = LabelModelParams(
            kind=DAWID_SKENE,
            priors=np.full(3, 1 / 3),
            program_ids=("p0", "p1"),
            confusion=conf,
        )
        matrix = mk_matrix([[2, 2]])
        label = predict(params, matrix)[0]
        assert label.hard == 2 and label.posterior[2] >= 0.99

    def test_tie_breaks_to_smallest_index(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]), 2)
        label = predict(params, mk_matrix([[0, 1]]))[0]
        assert label.posterior == (0.5, 0.5)
        assert label.hard == 0

    def test_dimension_mismatch(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]), 2)
        with pytest.raises(ModelError, match="fitted for 2 programs"):
            predict(params, mk_matrix([[0, 1, 0]]))

    def test_vote_outside_class_range(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]), 2)
        with pytest.raises(ModelError, match="outside"):
            predict(params, mk_matrix([[0, 2]]))

    def test_uncovered_rows_uniform_and_flagged(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]), 2)
        label = predict(params, mk_matrix([[ABSTAIN, ABSTAIN]]))[0]
        assert not label.covered
        assert label.posterior == (0.5, 0.5)


class TestParamsIO:
    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_round_trip_all_kinds(self, tmp_path, name):
        if name == "triplet":
            matrix, _ = planted_binary_votes(500, PLANTED, seed=5)
            K = 2
        else:
            matrix, _ = planted_confusion_votes(300, 4, 3, diag=0.8, seed=5, abstain=0.2)
            K = 3
        params, _ = FITTERS[name](matrix, K, class_names=[f"c{k}" for k in range(K)])
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.kind == params.kind
        assert loaded.program_ids == params.program_ids
        assert loaded.class_names == params.class_names
        for field in ("priors", "confusion", "accuracies", "weights", "propensity"):
            a, b = getattr(params, field), getattr(loaded, field)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(
            posterior_matrix(params, matrix), posterior_matrix(loaded, matrix), atol=0
        )

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"kind": "Oracle", "priors": [0.5, 0.5], "program_ids": []}))
        with pytest.raises(ModelError, match="Oracle"):
            load_params(path)
