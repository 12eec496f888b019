"""Program-quality diagnostics and group-robustness metrics.

Per-program stats over a vote matrix: coverage (how often it votes),
polarity (which classes it emits), overlap and conflict with other
programs, and empirical accuracy when the matrix carries gold labels.
The counts come from the matrix's own vote bins and class counts, the
ones the label models read. Programs whose
coverage falls below a threshold (default 10%) get flagged; the CLI
refuses to aggregate flagged programs unless told otherwise.

All fractions are over the whole dataset, not conditioned on coverage,
so conflict <= overlap <= coverage always holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import LabelsmithError, Pseudolabels, VoteMatrix, write_json

DEFAULT_COVERAGE_THRESHOLD = 0.10


class DiagnosticsError(LabelsmithError):
    """Bad inputs to a diagnostics computation."""


@dataclass(frozen=True)
class ProgramStats:
    program_id: str
    coverage: float
    polarity: tuple[int, ...]
    overlap: float
    conflict: float
    empirical_accuracy: float | None
    flagged_low_coverage: bool


@dataclass(frozen=True)
class GroupReport:
    """Overall accuracy, the weakest group, and the gap between them.

    ``average_accuracy`` is record-weighted (not macro over groups);
    ``gap`` is computed from the two reported fields, so the identity
    gap = average - worst holds in exact float arithmetic.
    """

    average_accuracy: float
    worst_group_accuracy: float
    gap: float
    per_group: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "per_group", dict(self.per_group))


def low_coverage(matrix: VoteMatrix, coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD) -> np.ndarray:
    """(m,) whether each program votes on fewer than ``coverage_threshold``
    of the rows: ``analyze``'s flags, from the matrix's vote counts alone."""
    if not (0.0 <= coverage_threshold <= 1.0):
        raise DiagnosticsError(f"coverage threshold must be in [0, 1], got {coverage_threshold}")
    if matrix.n == 0:
        raise DiagnosticsError("cannot analyze an empty vote matrix")
    return matrix.program_votes / matrix.n < coverage_threshold


def analyze(
    matrix: VoteMatrix, coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD
) -> list[ProgramStats]:
    """Stats for every program (column) of the matrix.

    coverage: fraction of rows with a non-abstain vote. overlap: fraction
    where this program and at least one other both vote. conflict:
    fraction where some other voting program disagrees. polarity: the
    distinct classes emitted. empirical_accuracy: agreement with the
    matrix's gold over rows where both exist (None where there are none).
    """
    flagged = low_coverage(matrix, coverage_threshold).tolist()
    n, m, K = matrix.n, matrix.m, matrix.K
    coverage = (matrix.program_votes / n).tolist()
    bins = matrix.bins
    counts = matrix.vote_mass()
    row_votes = matrix.record_votes
    shared = row_votes >= 2
    # program j conflicts on row i when fewer programs voted its class than
    # voted at all; column 0, read through ABSTAIN's bin, never conflicts
    split = np.zeros((n, K + 1), dtype=bool)
    np.less(counts, row_votes[:, None], out=split[:, 1:])
    split = split.reshape(-1)
    rows = np.arange(0, n * (K + 1), K + 1)
    accuracies = matrix.agreement(matrix.gold)
    stats = []
    for j in range(m):
        overlap = np.count_nonzero(bins[j][shared]) / n
        conflict = float(split[rows + bins[j]].mean())
        polarity = tuple(np.flatnonzero(np.bincount(bins[j], minlength=K + 1)[1:]).tolist())
        accuracy = None if np.isnan(accuracies[j]) else float(accuracies[j])
        stats.append(
            ProgramStats(
                program_id=matrix.program_ids[j],
                coverage=coverage[j],
                polarity=polarity,
                overlap=overlap,
                conflict=conflict,
                empirical_accuracy=accuracy,
                flagged_low_coverage=flagged[j],
            )
        )
    return stats


def coverage_of_label_model(pseudolabels: Pseudolabels) -> float:
    """Fraction of records the aggregate actually labeled."""
    if not pseudolabels.n:
        raise DiagnosticsError("no pseudolabels given")
    return float(pseudolabels.covered.mean())


def group_metrics(
    predictions: Sequence[int],
    gold: Sequence[int],
    groups: Sequence[str],
) -> GroupReport:
    """Record-weighted overall accuracy, per-group accuracies, the worst
    group, and the gap (average minus worst, exact on the reported floats)."""
    n = len(predictions)
    if not (n == len(gold) == len(groups)):
        raise DiagnosticsError(
            f"length mismatch: {n} predictions, {len(gold)} gold, {len(groups)} groups"
        )
    if n == 0:
        raise DiagnosticsError("no records to evaluate")
    pred = np.asarray(predictions, dtype=np.int64)
    gold_arr = np.asarray(gold, dtype=np.int64)
    correct = pred == gold_arr
    per_group: dict[str, float] = {}
    for g in sorted(set(groups)):
        mask = np.array([x == g for x in groups])
        per_group[g] = float(correct[mask].sum() / mask.sum())
    average = float(correct.sum() / n)
    worst = min(per_group.values())
    return GroupReport(
        average_accuracy=average,
        worst_group_accuracy=worst,
        gap=average - worst,
        per_group=per_group,
    )


def render_stats_table(stats: Sequence[ProgramStats]) -> str:
    """Fixed-width table for terminals; one row per program."""
    headers = ["program", "coverage", "polarity", "overlap", "conflict", "emp_acc", "flag"]
    rows = []
    for s in stats:
        rows.append(
            [
                s.program_id,
                f"{s.coverage:.3f}",
                ",".join(str(c) for c in s.polarity) or "-",
                f"{s.overlap:.3f}",
                f"{s.conflict:.3f}",
                "-" if s.empirical_accuracy is None else f"{s.empirical_accuracy:.3f}",
                "LOW-COVERAGE" if s.flagged_low_coverage else "",
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def stats_to_json(
    stats: Sequence[ProgramStats], coverage_threshold: float
) -> dict:
    """Machine-readable analyze report (schema documented in docs)."""
    return {
        "coverage_threshold": coverage_threshold,
        "programs": [asdict(s) for s in stats],
        "flagged": [s.program_id for s in stats if s.flagged_low_coverage],
    }


def save_stats(path, stats: Sequence[ProgramStats], coverage_threshold: float):
    return write_json(path, stats_to_json(stats, coverage_threshold))
