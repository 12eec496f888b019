import hashlib
import itertools
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    class_space,
    planted_binary_votes,
    planted_confusion_votes,
    reference_alignment,
    reference_em,
    reference_triplet,
    skip_unless_golden_math,
)

from labelsmith.cli import main
from labelsmith.data import ABSTAIN, ClassSpace, VoteMatrix, save_votes, serialize_records
from labelsmith.diagnostics import analyze
from labelsmith.models import (
    DAWID_SKENE,
    FITTERS,
    MIN_PAIRS,
    LabelModelParams,
    ModelError,
    fit_dawid_skene,
    fit_snorkel_lite,
    fit_triplet,
    load_params,
    make_counting_params,
    predict,
    save_params,
)
from labelsmith.models import MV, WMV, _align_permutation
from labelsmith.synth import make_spam_corpus

PLANTED = (0.9, 0.8, 0.7)


def _accuracy(pseudolabels, truth):
    return float((pseudolabels.hard == np.asarray(truth)).mean())


def _counting(matrix, weights=None):
    """Pseudolabels of (weighted) majority vote with the given weights."""
    params = LabelModelParams(
        kind=MV if weights is None else WMV,
        priors=np.full(matrix.K, 1.0 / matrix.K),
        program_ids=matrix.program_ids,
        weights=weights,
    )
    return predict(params, matrix)


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
        labels = _counting(matrix, weights=(3.0, 1.0, 1.0))
        assert labels.hard.tolist() == [1]
        assert labels.posterior.tolist() == [[0.4, 0.6]]

    def test_exhaustive_against_naive_counting(self, mk_matrix):
        for m, K in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]:
            patterns = list(itertools.product([ABSTAIN, *range(K)], repeat=m))
            matrix = mk_matrix(patterns, K)
            labels = _counting(matrix)
            expected = _naive_plurality(matrix.votes, K)
            for i, (best, any_vote, mass) in enumerate(expected):
                assert labels.hard[i] == best
                assert labels.covered[i] == any_vote
                if not any_vote:
                    assert labels.posterior[i].tolist() == [1.0 / K] * K

    def test_wmv_uniform_weights_equal_plurality(self, mk_matrix):
        # no abstains: WMV with unit weights is plain plurality
        for m, K in [(3, 2), (4, 3)]:
            patterns = list(itertools.product(range(K), repeat=m))
            matrix = mk_matrix(patterns, K)
            params, _ = make_counting_params(matrix, kind="WMV")
            wmv = predict(params, matrix).hard
            plain = _counting(matrix).hard
            np.testing.assert_array_equal(wmv, plain)

    def test_rejects_bad_weights(self, mk_matrix):
        matrix = mk_matrix([[0, 1]])
        for weights in [(1.0, 0.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf)]:
            with pytest.raises(ModelError, match="finite and positive"):
                _counting(matrix, weights=weights)
        with pytest.raises(ModelError):
            _counting(matrix, weights=(1.0,))


class TestEmpiricalAccuracies:
    """Per-program accuracy against gold is ``VoteMatrix.agreement`` of
    the matrix's gold: what WMV weighs programs by and ``analyze``
    reports."""

    def test_hand_case_with_missing_gold(self, mk_matrix):
        matrix = mk_matrix([[0, 1], [1, 1], [ABSTAIN, 0], [0, ABSTAIN]], gold=[0, 1, 0, None])
        acc = matrix.agreement(matrix.gold)
        # p0: rows 0,1 voted with gold -> correct on both
        # p1: rows 0,1,2 -> wrong on row 0, correct on rows 1 and 2
        assert acc[0] == 1.0
        assert acc[1] == 2 / 3

    def test_program_without_gold_rows_is_nan(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]], gold=[0, 1])
        acc = matrix.agreement(matrix.gold)
        assert acc[0] == 1.0 and np.isnan(acc[1])

    @pytest.mark.parametrize("gold", [None, [None, None, None]], ids=["no-gold", "all-null"])
    def test_no_labelled_row_is_all_nan(self, mk_matrix, gold):
        matrix = mk_matrix([[0, 1], [1, ABSTAIN], [ABSTAIN, 0]], gold=gold)
        acc = matrix.agreement(matrix.gold)
        assert acc.shape == (2,) and np.isnan(acc).all()

    def test_class_127_of_128_is_the_last_uint8_bin(self, mk_matrix):
        matrix = mk_matrix([[127, 0], [127, 127], [126, ABSTAIN]], K=128, gold=[127, 127, 126])
        assert matrix.bins.dtype == np.uint8 and matrix.bins.max() == 128
        assert matrix.agreement(matrix.gold).tolist() == [1.0, 0.5]

    def test_labels_on_every_row_count_every_vote(self, mk_matrix):
        # the triplet's sign: agreement with majority vote, a label per row
        matrix = mk_matrix([[0, 1, 1], [1, 1, ABSTAIN], [ABSTAIN, 0, 0], [ABSTAIN] * 3])
        labels = np.argmax(matrix.vote_mass(), axis=1)
        assert labels.tolist() == [1, 1, 0, 0]
        assert matrix.agreement(labels).tolist() == [0.5, 1.0, 1.0]
        assert (matrix.agreement(labels) * matrix.program_votes).tolist() == [1, 3, 2]

    def test_length_mismatch(self, mk_matrix):
        with pytest.raises(ValueError, match="gold"):
            mk_matrix([[0, 1]], gold=[0, 1])


class TestCountingParams:
    def test_wmv_weights_are_logodds_of_accuracy(self, mk_matrix):
        matrix = mk_matrix([[0, 0], [1, 0], [0, 1], [1, 0]], gold=[0, 1, 0, 1])
        params, report = make_counting_params(matrix, kind="WMV")
        # p0 accuracy 1.0 clamps to 0.95; p1 accuracy 1/4, log-odds negative,
        # floored at 0.01 so a bad program nearly vanishes but never flips votes
        assert params.accuracies[0] == pytest.approx(0.95)
        assert params.weights[0] == pytest.approx(np.log(0.95 / 0.05))
        assert params.weights[1] == pytest.approx(0.01)
        assert report.accuracy_by_program == pytest.approx((0.95, 0.25))

    def test_wmv_without_gold_uses_uniform_and_notes_it(self, mk_matrix):
        matrix = mk_matrix([[0, 1]])
        params, report = make_counting_params(matrix, kind="WMV")
        assert np.array_equal(params.weights, np.ones(2))
        assert any("uniform" in note for note in report.notes)

    def test_wmv_chance_weight_when_program_lacks_gold(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN], [ABSTAIN, 0]], gold=[0, 1, None])
        params, report = make_counting_params(matrix, kind="WMV")
        assert params.accuracies[1] == pytest.approx(0.5)
        assert any("p1" in note for note in report.notes)

    def test_zero_coverage_program_rejected(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]])
        with pytest.raises(ModelError, match="p1.*zero coverage"):
            make_counting_params(matrix)


class TestDawidSkene:
    def test_planted_recovery(self):
        matrix, truth = planted_confusion_votes(2000, 5, 3, diag=0.8, seed=117)
        params, report = fit_dawid_skene(matrix)
        diagonals = np.array([params.confusion[j].diagonal() for j in range(5)])
        assert np.abs(diagonals - 0.8).max() < 0.05
        ds_acc = _accuracy(predict(params, matrix), truth)
        mv_acc = _accuracy(_counting(matrix), truth)
        assert ds_acc >= mv_acc
        assert ds_acc > 0.94
        assert report.converged

    def test_objective_non_decreasing(self):
        matrix, _ = planted_confusion_votes(500, 4, 3, diag=0.7, seed=11, abstain=0.3)
        _, report = fit_dawid_skene(matrix)
        diffs = np.diff(np.array(report.objective))
        assert (diffs >= -1e-8).all()

    def test_two_identical_perfect_programs(self, mk_matrix):
        truth = [i % 2 for i in range(40)]
        matrix = mk_matrix([[t, t] for t in truth])
        params, _ = fit_dawid_skene(matrix)
        labels = predict(params, matrix)
        assert labels.covered.all()
        assert (labels.posterior[np.arange(40), truth] >= 0.99).all()

    def test_single_program_all_class_zero(self, mk_matrix):
        matrix = mk_matrix([[0]] * 10)
        params, report = fit_dawid_skene(matrix)
        assert params.priors[0] > 0.9
        assert (predict(params, matrix).hard == 0).all()
        # label switching resolved: accuracy estimates at least chance
        assert all(a >= 0.5 for a in report.accuracy_by_program)

    def test_zero_coverage_program_rejected(self, mk_matrix):
        matrix = mk_matrix([[0, ABSTAIN], [1, ABSTAIN]])
        with pytest.raises(ModelError, match="zero coverage"):
            fit_dawid_skene(matrix)


def _planted_with_gold(name: str, n: int, seed: int) -> VoteMatrix:
    """Planted votes that carry their truth as gold: binary for wmv, which
    weighs programs by gold, and for triplet, which is binary only; three
    classes for the other fitters."""
    if name in ("wmv", "triplet"):
        matrix, truth = planted_binary_votes(n, (0.9, 0.8, 0.7, 0.65), seed=seed)
    else:
        matrix, truth = planted_confusion_votes(n, 4, 3, diag=0.75, seed=seed, abstain=0.2)
    return replace(matrix, gold=[int(t) for t in truth])


class TestPermutationProperties:
    """Every fitter's pseudolabels follow its programs and records when
    either is reordered: the fit on the reordered matrix gives the same
    posteriors, to summation order, the same hard labels and the same
    iteration count."""

    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_column_permutation_equivariance(self, name):
        matrix = _planted_with_gold(name, 300, seed=21)
        perm = [2, 0, 3, 1]
        permuted = replace(
            matrix, votes=matrix.votes[:, perm], program_ids=tuple(matrix.program_ids[j] for j in perm)
        )
        p1, r1 = FITTERS[name](matrix)
        p2, r2 = FITTERS[name](permuted)
        a, b = predict(p1, matrix), predict(p2, permuted)
        np.testing.assert_allclose(a.posterior, b.posterior, rtol=0, atol=1e-12)
        assert np.array_equal(a.hard, b.hard)
        assert r1.iterations == r2.iterations
        stats = analyze(matrix)
        assert analyze(permuted) == [stats[j] for j in perm]

    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_row_permutation_permutes_outputs(self, name):
        matrix = _planted_with_gold(name, 200, seed=22)
        order = np.random.default_rng(5).permutation(200)
        shuffled = replace(
            matrix,
            votes=matrix.votes[order],
            record_ids=tuple(matrix.record_ids[i] for i in order),
            gold=[matrix.gold[i] for i in order],
        )
        p1, r1 = FITTERS[name](matrix)
        p2, r2 = FITTERS[name](shuffled)
        a, b = predict(p1, matrix), predict(p2, shuffled)
        # the params fitted on the original rows label the shuffled ones alike
        np.testing.assert_allclose(a.posterior[order], predict(p1, shuffled).posterior, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.posterior[order], b.posterior, rtol=0, atol=1e-12)
        assert np.array_equal(a.hard[order], b.hard)
        assert r1.iterations == r2.iterations
        assert analyze(shuffled) == analyze(matrix)


class TestSnorkelLite:
    def test_planted_one_coin_recovery(self):
        matrix, _ = planted_confusion_votes(2000, 5, 3, diag=0.75, seed=202, abstain=0.25)
        params, report = fit_snorkel_lite(matrix)
        assert np.abs(params.accuracies - 0.75).max() < 0.05
        diffs = np.diff(np.array(report.objective))
        assert (diffs >= -1e-8).all()

    def test_confusion_has_one_coin_form(self):
        matrix, _ = planted_confusion_votes(500, 3, 3, diag=0.8, seed=31)
        params, _ = fit_snorkel_lite(matrix)
        for j in range(3):
            conf = params.confusion[j]
            a = params.accuracies[j]
            expected = a * np.eye(3) + (1 - a) / 2 * (np.ones((3, 3)) - np.eye(3))
            np.testing.assert_allclose(conf, expected, atol=1e-12)

    def test_close_to_dawid_skene_on_full_confusion_data(self):
        matrix, truth = planted_confusion_votes(2000, 5, 3, diag=0.8, seed=117)
        oc_params, _ = fit_snorkel_lite(matrix)
        ds_params, _ = fit_dawid_skene(matrix)
        oc_acc = _accuracy(predict(oc_params, matrix), truth)
        ds_acc = _accuracy(predict(ds_params, matrix), truth)
        assert abs(oc_acc - ds_acc) <= 0.03

    def test_two_identical_perfect_programs(self, mk_matrix):
        truth = [i % 2 for i in range(40)]
        matrix = mk_matrix([[t, t] for t in truth])
        params, _ = fit_snorkel_lite(matrix)
        labels = predict(params, matrix)
        assert (labels.posterior[np.arange(40), truth] >= 0.99).all()


class TestReferenceEM:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_fitters_match_naive_per_row_em(self, K):
        matrix, _ = planted_confusion_votes(150, 4, K, diag=0.75, seed=60 + K, abstain=0.3)
        for fit, one_coin in ((fit_dawid_skene, False), (fit_snorkel_lite, True)):
            params, report = fit(matrix)
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
            assert _align_permutation(posteriors, matrix) == expected


@st.composite
def _alignment_cases(draw):
    """K and (model class, majority class or ABSTAIN) rows: few rows over
    many cells, so the count table is mostly ties."""
    K = draw(st.integers(2, 7))
    cls = st.integers(0, K - 1)
    return K, draw(st.lists(st.tuples(cls, st.one_of(st.just(ABSTAIN), cls)), min_size=1, max_size=20))


class TestAlignment:
    @settings(max_examples=150, deadline=None)
    @given(_alignment_cases())
    @example((3, [(0, ABSTAIN)]))  # every permutation ties at 0
    @example((3, [(0, 1), (0, 2), (1, 0)]))  # (1, 0, 2) and (2, 0, 1) tie above identity
    @example((4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)]))
    def test_matches_brute_force(self, case):
        K, rows = case
        votes = np.array([[v] for _, v in rows])
        q = np.eye(K)[[a for a, _ in rows]]
        matrix = VoteMatrix(
            votes=votes, program_ids=("p0",), record_ids=tuple(f"r{i}" for i in range(len(rows))),
            classes=class_space(K),
        )
        assert _align_permutation(q, matrix) == reference_alignment(q, votes, K)

    @pytest.mark.parametrize("K", [12, 64])
    def test_undoes_a_shuffle_of_many_classes(self, K):
        matrix, truth = planted_confusion_votes(40 * K, 6, K, diag=0.9, seed=K)
        shuffle = np.random.default_rng(K).permutation(K)
        perm = _align_permutation(np.eye(K)[shuffle[truth]], matrix)
        # new = perm[old], so class shuffle[t] goes back to t
        assert [perm[shuffle[t]] for t in range(K)] == list(range(K))


class TestTriplet:
    def test_planted_recovery(self):
        matrix, _ = planted_binary_votes(10_000, PLANTED, seed=77)
        params, _ = fit_triplet(matrix)
        assert np.abs(params.accuracies - np.array(PLANTED)).max() < 0.05

    def test_identical_perfect_programs_clamp_high(self, mk_matrix):
        truth = [i % 2 for i in range(100)]
        matrix = mk_matrix([[t, t, t] for t in truth])
        params, _ = fit_triplet(matrix)
        assert np.all(params.accuracies == 0.95)

    def test_coin_flip_weight_near_zero(self):
        matrix, _ = planted_binary_votes(10_000, (0.9, 0.8, 0.7, 0.5), seed=60)
        params, _ = fit_triplet(matrix)
        assert abs(params.weights[3]) <= 0.1

    def test_error_shrinks_with_n(self):
        medians = []
        for n in (1000, 4000, 16000):
            errs = []
            for seed in range(20):
                matrix, _ = planted_binary_votes(n, PLANTED, seed=3000 + seed)
                params, _ = fit_triplet(matrix)
                errs.append(float(np.abs(params.accuracies - np.array(PLANTED)).mean()))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_nonbinary(self, mk_matrix):
        matrix = mk_matrix([[0, 1, 2]], 3)
        with pytest.raises(ModelError, match="K=2"):
            fit_triplet(matrix)

    def test_rejects_fewer_than_three_programs(self, mk_matrix):
        matrix = mk_matrix([[0, 1], [1, 0]])
        with pytest.raises(ModelError, match="at least 3"):
            fit_triplet(matrix)

    @pytest.mark.parametrize("seed, abstain", [(5, 0.0), (6, 0.3), (7, 0.8)])
    def test_matches_the_pair_loop_bit_for_bit(self, seed, abstain):
        matrix, _ = planted_binary_votes(3000, (0.9, 0.8, 0.65, 0.55, 0.3), seed=seed, abstain=abstain)
        params, _ = fit_triplet(matrix)
        accuracies, weights = reference_triplet(matrix.votes)
        assert params.accuracies.tobytes() == accuracies.tobytes()
        assert params.weights.tobytes() == weights.tobytes()

    def test_pairs_at_the_min_pairs_edge(self, mk_matrix):
        # p3 meets p0 and p2 on MIN_PAIRS rows and p1 on one fewer, so
        # only its (p0, p2) triplet counts
        rng = np.random.default_rng(12)
        truth = rng.integers(0, 2, size=300)
        votes = np.where(rng.random((300, 4)) < [0.9, 0.8, 0.75, 0.85], truth[:, None], 1 - truth[:, None])
        votes[:, 3] = ABSTAIN
        votes[:MIN_PAIRS, 1] = ABSTAIN
        votes[:MIN_PAIRS, 3] = truth[:MIN_PAIRS]
        edge = slice(MIN_PAIRS, 2 * MIN_PAIRS - 1)
        votes[edge, [0, 2]] = ABSTAIN
        votes[edge, 3] = 1 - truth[edge]
        matrix = mk_matrix(votes)
        voted = (votes != ABSTAIN).astype(int)
        assert (voted.T @ voted)[3].tolist() == [MIN_PAIRS, MIN_PAIRS - 1, MIN_PAIRS, 2 * MIN_PAIRS - 1]
        params, _ = fit_triplet(matrix)
        accuracies, weights = reference_triplet(matrix.votes)
        assert params.accuracies.tobytes() == accuracies.tobytes()
        assert params.weights.tobytes() == weights.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(3, 13),
        n=st.integers(1, 200),
        coverage=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_triplet_loop(self, m, n, coverage, seed):
        # low coverage leaves pairs under MIN_PAIRS, so whole programs
        # lose every triplet and both must refuse them alike
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 2, size=n)
        right = rng.random((n, m)) < rng.uniform(0.2, 0.95, size=m)
        votes = np.where(right, truth[:, None], 1 - truth[:, None])
        votes[rng.random((n, m)) >= coverage] = ABSTAIN
        # every program votes somewhere, as fitting requires
        rows = np.arange(m) % n
        votes[rows, np.arange(m)] = truth[rows]
        matrix = VoteMatrix(
            votes=votes,
            program_ids=tuple(f"p{j}" for j in range(m)),
            record_ids=tuple(f"r{i}" for i in range(n)),
            classes=class_space(2),
        )
        try:
            accuracies, weights = reference_triplet(votes)
        except ModelError as exc:
            with pytest.raises(ModelError) as refused:
                fit_triplet(matrix)
            assert str(refused.value) == str(exc)
            return
        params, _ = fit_triplet(matrix)
        assert params.accuracies.tobytes() == accuracies.tobytes()
        assert params.weights.tobytes() == weights.tobytes()

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
            fit_triplet(matrix)


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
        posteriors = predict(params, matrix).posterior
        for i, pattern in enumerate(patterns):
            expected = _bayes_oracle(params.priors, confusion, pattern, 2)
            np.testing.assert_allclose(posteriors[i], expected, atol=1e-9)

    def test_enumeration_oracle_fitted_params(self, mk_matrix):
        data, _ = planted_binary_votes(4000, (0.85, 0.75, 0.9, 0.65), seed=40)
        params, _ = fit_dawid_skene(data)
        patterns = list(itertools.product([ABSTAIN, 0, 1], repeat=4))
        matrix = mk_matrix(patterns)
        posteriors = predict(params, matrix).posterior
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
        matrix = mk_matrix([[2, 2]], 3)
        labels = predict(params, matrix)
        assert labels.hard[0] == 2 and labels.posterior[0, 2] >= 0.99

    def test_tie_breaks_to_smallest_index(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]))
        labels = predict(params, mk_matrix([[0, 1]]))
        assert labels.posterior.tolist() == [[0.5, 0.5]]
        assert labels.hard.tolist() == [0]

    def test_dimension_mismatch(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]))
        with pytest.raises(ModelError, match="fitted for 2 programs"):
            predict(params, mk_matrix([[0, 1, 0]]))

    def test_vote_outside_class_range(self, mk_matrix):
        # the matrix refuses it before any params see it
        with pytest.raises(ValueError, match="outside"):
            mk_matrix([[0, 2]])

    @pytest.mark.parametrize(
        "K, program_ids, match",
        [
            (3, ("p0", "p1"), "fitted for 2 classes but the vote matrix has 3"),
            (2, ("p1", "p0"), "fitted for program 'p0' in column 0, but the vote matrix has 'p1'"),
            (2, ("p0", "q1"), "fitted for program 'p1' in column 1, but the vote matrix has 'q1'"),
        ],
    )
    def test_params_for_other_classes_or_programs_refused(self, mk_matrix, K, program_ids, match):
        params, _ = make_counting_params(mk_matrix([[0, 1]]))
        with pytest.raises(ModelError, match=match):
            predict(params, replace(mk_matrix([[0, 1]], K), program_ids=program_ids))

    def test_uncovered_rows_uniform_and_flagged(self, mk_matrix):
        params, _ = make_counting_params(mk_matrix([[0, 1]]))
        labels = predict(params, mk_matrix([[ABSTAIN, ABSTAIN]]))
        assert labels.covered.tolist() == [False]
        assert labels.posterior.tolist() == [[0.5, 0.5]]


class TestParamsIO:
    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_round_trip_all_kinds(self, tmp_path, name):
        if name == "triplet":
            matrix, _ = planted_binary_votes(500, PLANTED, seed=5)
        else:
            matrix, _ = planted_confusion_votes(300, 4, 3, diag=0.8, seed=5, abstain=0.2)
        params, _ = FITTERS[name](matrix)
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.kind == params.kind
        assert loaded.program_ids == params.program_ids
        for field in ("priors", "confusion", "accuracies", "weights"):
            a, b = getattr(params, field), getattr(loaded, field)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(
            predict(params, matrix).posterior, predict(loaded, matrix).posterior, atol=0
        )

    def test_weights_whose_total_overflows_rejected(self, tmp_path):
        # each weight is finite, but a row's vote mass would not be
        path = tmp_path / "params.json"
        doc = {"kind": "MV", "priors": [0.5, 0.5], "program_ids": ["a", "b"], "weights": [1e308, 1e308]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=re.escape(f"{path}: weights must have a finite total")):
            load_params(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"kind": "Oracle", "priors": [0.5, 0.5], "program_ids": []}))
        with pytest.raises(ModelError, match="Oracle"):
            load_params(path)


# sha256 of every artifact of `analyze`, of `aggregate --model <name>` for
# each fitter and of a predict-only `aggregate --params`, taken before the
# vote path became whole-array code. A change in any EM's summation
# order, in the analyze counts or in the pseudolabel row bytes changes a
# hash; TestReferenceEM's 1e-10 tolerance would not see it. The mv and
# wmv fit reports were taken again when their log_likelihood, the only
# field that changed, went from a bare NaN to null.
GOLDEN = {
    "analyze/analysis.json": "80be3eda23257e0dbb6637bbfa19a251473f2a30181105b5584934735ffaf2ee",
    "ds/fit_report.json": "d1abf3383dce036228c36dc79add36cbfd4d81b4d590063e1a57783cb8b451ad",
    "ds/params.json": "8ad7d58c9e0a0933e2aca221548c64502551b8b4952aafdff7b622eea6ca45f8",
    "ds/pseudolabels.jsonl": "39c3bc0df2b547cc914be213d6f62105310a5f0f3c7bf1e7cab908674f87df3c",
    "snorkel-lite/fit_report.json": "e063f11caa6a090246ff99bbf0477ccdd9ee5abfdbffb56d08dd2cbb4901b073",
    "snorkel-lite/params.json": "33a858a11caf270f027a7d75a1c2664ac3bbde299e8026df19b816185fec1c90",
    "snorkel-lite/pseudolabels.jsonl": "370c58545b806b13fd014057aecdae93a2e213ef97bfcdf0bd8e4948981da196",
    "mv/fit_report.json": "a0b3361ad55c1d7293c9dfc2a4b38af67ade7e9aece4c4c43c77376143c2bafc",
    "mv/params.json": "3bf36e30fc71bca24e15071f1efe35a9d6b3d6405b90ab1b85420af55a61700c",
    "mv/pseudolabels.jsonl": "28ee36df11e04ae29a3537b20e04e4d85cde9f3ab608d4e612180b94c4b19a33",
    "wmv/fit_report.json": "018934662a4df0de9df181bb3d13401e60eee1442cb7b33e56de4bf67fe46c15",
    "wmv/params.json": "c225476fafc16ed170278c9116e4f9f6033095702bb60d74df2091870738bf90",
    "wmv/pseudolabels.jsonl": "2f5597cda28453d982904fac23c6556a9c3cd1494e547598af97e0f658bfac1f",
    "triplet/fit_report.json": "68c65ac9ff7755319ee1e2a394e5d1868c16184ede266abe2dbd29b4fb1572ab",
    "triplet/params.json": "a15ffd994b2dd89ae5ddff19f89e65b9f4cea3cb1a686e6673b5e438752e7885",
    "triplet/pseudolabels.jsonl": "bced068ebcf04cac89931c5a1e65f4eb07cf9bbef30b24b49aaccecf6c05904c",
    "reuse/params.json": "8ad7d58c9e0a0933e2aca221548c64502551b8b4952aafdff7b622eea6ca45f8",
    "reuse/pseudolabels.jsonl": "39c3bc0df2b547cc914be213d6f62105310a5f0f3c7bf1e7cab908674f87df3c",
}
# sha256 of `apply`'s votes file and `analyze`'s report on a seeded spam
# corpus, taken before the vote matrix carried its classes, gold and groups.
# Neither involves exp or log, so no probe guards them.
GOLDEN_APPLY = {
    "apply/votes.json": "58351f0bc995be84d55a2072d9ed3f18cc6913083f61a1481286cebc05c1e9f9",
    "analyze/analysis.json": "e7609fb82af8ce333d5b3e24b7a53e05c16b6621e01f3187c632b8081355907a",
}
SPAM_PROGRAMS = Path(__file__).parent / "fixtures" / "spam_programs"


def _golden_artifacts(tmp_path) -> dict:
    matrix, truth = planted_confusion_votes(800, 6, 3, diag=0.7, seed=2024, abstain=0.35)
    gold = [None if i % 9 == 0 else int(t) for i, t in enumerate(truth)]
    binary, _ = planted_binary_votes(800, (0.9, 0.8, 0.7, 0.65), seed=2025, abstain=0.3)
    votes, votes2 = tmp_path / "votes.json", tmp_path / "votes2.json"
    save_votes(votes, replace(matrix, classes=ClassSpace(("a", "b", "c")), task="golden", gold=gold))
    save_votes(votes2, replace(binary, classes=ClassSpace(("no", "yes"))))
    runs = {"analyze": ["analyze", "--votes", str(votes)]}
    for name in ("ds", "snorkel-lite", "mv", "wmv"):
        runs[name] = ["aggregate", "--votes", str(votes), "--model", name]
    runs["triplet"] = ["aggregate", "--votes", str(votes2), "--model", "triplet"]
    runs["reuse"] = ["aggregate", "--votes", str(votes), "--params", str(tmp_path / "ds" / "params.json")]
    hashes = {}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        for path in sorted((tmp_path / name).iterdir()):
            # the manifest holds its creation time, and the reuse report the params path
            if path.name == "run_manifest.json" or (name == "reuse" and path.name == "fit_report.json"):
                continue
            hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


class TestGoldenOutputs:
    def test_artifacts_match_pinned_hashes(self, tmp_path):
        skip_unless_golden_math()
        assert _golden_artifacts(tmp_path) == GOLDEN

    def test_apply_and_analyze_match_pinned_hashes(self, tmp_path):
        records, _ = make_spam_corpus(500, seed=13)
        corpus = serialize_records(records, tmp_path / "corpus.jsonl")
        votes = tmp_path / "apply" / "votes.json"
        apply = ["apply", "--programs", str(SPAM_PROGRAMS), "--task", "sms", "--data", str(corpus)]
        assert main(apply + ["--out", str(votes.parent)]) == 0
        assert main(["analyze", "--votes", str(votes), "--out", str(tmp_path / "analyze")]) == 0
        hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_APPLY}
        assert hashes == GOLDEN_APPLY
