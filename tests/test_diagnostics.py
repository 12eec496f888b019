import numpy as np
import pytest

from labelsmith.data import ABSTAIN, Pseudolabels, VoteMatrix
from labelsmith.diagnostics import (
    DiagnosticsError,
    GroupReport,
    ProgramStats,
    analyze,
    coverage_of_label_model,
    group_metrics,
    low_coverage,
    render_stats_table,
    save_stats,
    stats_to_json,
)


def naive_stats(votes, threshold=0.10):
    """Reference double-loop implementation of the per-program stats."""
    n, m = votes.shape
    out = []
    for j in range(m):
        covered = overlapped = conflicted = 0
        seen = set()
        for i in range(n):
            if votes[i, j] == ABSTAIN:
                continue
            covered += 1
            seen.add(int(votes[i, j]))
            others = [votes[i, jj] for jj in range(m) if jj != j and votes[i, jj] != ABSTAIN]
            if others:
                overlapped += 1
            if any(v != votes[i, j] for v in others):
                conflicted += 1
        out.append(
            dict(
                coverage=covered / n,
                overlap=overlapped / n,
                conflict=conflicted / n,
                polarity=tuple(sorted(seen)),
                flagged=covered / n < threshold,
            )
        )
    return out


class TestAnalyzeOracle:
    def test_random_matrices_match_naive_loop_exactly(self, mk_matrix):
        rng = np.random.default_rng(606)
        for _ in range(150):
            K = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            votes = rng.integers(-1, K, size=(200, m))
            # all-abstain rows, and now and then an all-abstain column
            votes[rng.random(200) < 0.1] = ABSTAIN
            if rng.random() < 0.3:
                votes[:, rng.integers(m)] = ABSTAIN
            matrix = mk_matrix(votes, K)
            stats = analyze(matrix)
            expected = naive_stats(votes)
            for s, e in zip(stats, expected):
                assert s.coverage == e["coverage"]
                assert s.overlap == e["overlap"]
                assert s.conflict == e["conflict"]
                assert s.polarity == e["polarity"]
                assert s.flagged_low_coverage == e["flagged"]
                assert s.conflict <= s.overlap <= s.coverage
            assert low_coverage(matrix).tolist() == [s.flagged_low_coverage for s in stats]

    def test_hand_worked_matrix(self, mk_matrix):
        A = ABSTAIN
        matrix = mk_matrix(
            [[0, 1, A], [0, A, A], [A, A, A], [1, 1, 1], [A, 0, 0]], gold=[0, 0, 1, 1, 0]
        )
        stats = analyze(matrix)
        p0, p1, p2 = stats
        assert (p0.coverage, p0.overlap, p0.conflict) == (0.6, 0.4, 0.2)
        assert (p1.coverage, p1.overlap, p1.conflict) == (0.6, 0.6, 0.2)
        assert (p2.coverage, p2.overlap, p2.conflict) == (0.4, 0.4, 0.0)
        assert p0.polarity == (0, 1) and p2.polarity == (0, 1)
        assert p0.empirical_accuracy == 1.0
        assert p1.empirical_accuracy == pytest.approx(2 / 3)
        assert p2.empirical_accuracy == 1.0
        assert not any(s.flagged_low_coverage for s in stats)

    def test_flag_threshold_is_strict(self, mk_matrix):
        votes = np.full((100, 2), ABSTAIN, dtype=np.int64)
        votes[:10, 0] = 0  # exactly 10 percent
        votes[:9, 1] = 0  # just under
        stats = analyze(mk_matrix(votes))
        assert not stats[0].flagged_low_coverage
        assert stats[1].flagged_low_coverage

    def test_custom_threshold(self, mk_matrix):
        A = ABSTAIN
        matrix = mk_matrix([[0, 0], [0, A], [0, A], [0, A]])
        stats = analyze(matrix, coverage_threshold=0.5)
        assert not stats[0].flagged_low_coverage
        assert stats[1].flagged_low_coverage

    def test_bad_threshold_rejected(self, mk_matrix):
        with pytest.raises(DiagnosticsError, match="threshold"):
            analyze(mk_matrix([[0]]), coverage_threshold=1.5)

    def test_gold_length_mismatch(self, mk_matrix):
        with pytest.raises(ValueError, match="gold"):
            mk_matrix([[0], [1]], gold=[0])

    def test_accuracy_none_without_gold_rows(self, mk_matrix):
        stats = analyze(mk_matrix([[0], [1]], gold=[None, None]))
        assert stats[0].empirical_accuracy is None

    def test_zero_coverage_program_reported_not_crashed(self, mk_matrix):
        stats = analyze(mk_matrix([[0, ABSTAIN], [1, ABSTAIN]]))
        assert stats[1].coverage == 0.0
        assert stats[1].polarity == ()
        assert stats[1].flagged_low_coverage


class TestGroupMetrics:
    def test_worked_gap_fixture(self):
        # majority group: 1891/2000 correct; minority group: 159/500 correct
        # record-weighted average = 2050/2500 = 0.820, worst = 0.318
        predictions = [1] * 2500
        gold = [1] * 1891 + [0] * 109 + [1] * 159 + [0] * 341
        groups = ["majority"] * 2000 + ["minority"] * 500
        report = group_metrics(predictions, gold, groups)
        assert report.per_group["majority"] == 1891 / 2000
        assert report.average_accuracy == 0.820
        assert report.worst_group_accuracy == 0.318
        assert report.gap == 0.502

    def test_gap_identity_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            predictions = rng.integers(0, 3, size=n).tolist()
            gold = rng.integers(0, 3, size=n).tolist()
            groups = [f"g{int(x)}" for x in rng.integers(0, 4, size=n)]
            report = group_metrics(predictions, gold, groups)
            assert report.gap == report.average_accuracy - report.worst_group_accuracy
            assert report.worst_group_accuracy == min(report.per_group.values())
            assert 0.0 <= report.worst_group_accuracy <= report.average_accuracy or (
                report.average_accuracy < report.worst_group_accuracy
            ) is False

    def test_average_is_record_weighted(self):
        # 3 records in "a" (all right), 1 in "b" (wrong): average 0.75, macro 0.5
        report = group_metrics([1, 1, 1, 1], [1, 1, 1, 0], ["a", "a", "a", "b"])
        assert report.average_accuracy == 0.75
        assert report.per_group == {"a": 1.0, "b": 0.0}

    def test_length_mismatch(self):
        with pytest.raises(DiagnosticsError, match="mismatch"):
            group_metrics([0], [0, 1], ["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(DiagnosticsError):
            group_metrics([], [], [])


class TestReports:
    def test_render_table_rows_and_flag(self, mk_matrix):
        votes = np.full((20, 2), ABSTAIN, dtype=np.int64)
        votes[:, 0] = 0
        votes[0, 1] = 1
        table = render_stats_table(analyze(mk_matrix(votes)))
        lines = table.strip().splitlines()
        assert lines[0].split()[:2] == ["program", "coverage"]
        assert len(lines) == 4  # header, rule, two programs
        assert "LOW-COVERAGE" in lines[3]
        assert "LOW-COVERAGE" not in lines[2]

    def test_json_schema_and_flag_list(self, mk_matrix, tmp_path):
        votes = np.full((20, 2), ABSTAIN, dtype=np.int64)
        votes[:, 0] = 0
        votes[0, 1] = 1
        stats = analyze(mk_matrix(votes))
        doc = stats_to_json(stats, 0.10)
        assert doc["coverage_threshold"] == 0.10
        assert doc["flagged"] == ["p1"]
        assert {
            "program_id",
            "coverage",
            "polarity",
            "overlap",
            "conflict",
            "empirical_accuracy",
            "flagged_low_coverage",
        } <= set(doc["programs"][0])
        path = save_stats(tmp_path / "analysis.json", stats, 0.10)
        assert path.exists()
        import json

        assert json.loads(path.read_text())["flagged"] == ["p1"]

    def test_coverage_of_label_model(self):
        labels = Pseudolabels(("a", "b"), [[0.9, 0.1], [0.5, 0.5]], [True, False])
        assert coverage_of_label_model(labels) == 0.5
        with pytest.raises(DiagnosticsError):
            coverage_of_label_model(Pseudolabels((), np.empty((0, 2)), np.empty(0, dtype=bool)))
