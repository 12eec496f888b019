"""Program diagnostics: coverage, polarity, overlap, conflict, and the
low-coverage flag.

Ten bundled programs of deliberately mixed quality run over a seeded
synthetic spam corpus. The stats table is what `labelsmith analyze`
prints; a program covering under 10% of records gets flagged and the
CLI exits with code 2 so pipelines notice.
"""

from pathlib import Path

from labelsmith.records import Dataset, assemble_votes
from labelsmith.diagnostics import analyze, group_metrics, render_stats_table
from labelsmith.dsl import parse_program
from labelsmith.synth import make_spam_corpus

records, classes = make_spam_corpus(1000, seed=7)
print(f"corpus: {len(records)} records, classes {classes.names}")

fixture_dir = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "spam_programs"
programs = [
    parse_program(p.read_text(encoding="utf-8"), classes, program_id=p.stem)
    for p in sorted(fixture_dir.glob("*.lf"))
]
# the matrix carries the records' gold labels and groups along with the votes
matrix = assemble_votes(Dataset.from_records(records, classes.K), programs, classes)
stats = analyze(matrix)
print()
print(render_stats_table(stats))

# conflict <= overlap <= coverage holds by construction: a conflicting
# vote is an overlapping vote is a vote
worst = max(stats, key=lambda s: s.conflict)
print(f"\nmost conflicted program: {worst.program_id} "
      f"(conflict {worst.conflict:.3f} of overlap {worst.overlap:.3f})")

# per-group accuracy of a single program, to see where it breaks down:
# the adversarial group obfuscates keywords, so keyword rules miss there
col = matrix.votes[:, 0]
covered = col != -1
report = group_metrics(
    [int(v) for v in col[covered]],
    [g for g, c in zip(matrix.gold, covered) if c],
    [g for g, c in zip(matrix.groups, covered) if c],
)
print(f"\n{matrix.program_ids[0]} on its covered records:")
print(f"  average accuracy {report.average_accuracy:.3f}")
print(f"  worst group      {report.worst_group_accuracy:.3f} (gap {report.gap:.3f})")
for group, acc in sorted(report.per_group.items()):
    print(f"    {group}: {acc:.3f}")
