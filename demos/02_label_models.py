"""Aggregating noisy votes into pseudolabels with five label models.

We plant a known confusion matrix (diagonal 0.8, three classes, five
programs), sample votes from it, and watch each model try to recover
the truth. The EM models estimate per-program reliability and weigh
votes accordingly, which is where they beat plain counting.
"""

import numpy as np

from labelsmith.data import ClassSpace, VoteMatrix
from labelsmith.models import FITTERS, predict

rng = np.random.default_rng(42)
n, m, K, diag = 3000, 5, 3, 0.8

truth = rng.choice(K, size=n)
confusion = np.full((K, K), (1 - diag) / (K - 1))
np.fill_diagonal(confusion, diag)

# each program votes from the planted confusion row of the true class;
# a fifth of the time it abstains instead
votes = np.full((n, m), -1, dtype=np.int64)
for j in range(m):
    fires = rng.random(n) >= 0.2
    cum = confusion[truth].cumsum(axis=1)
    draws = (rng.random(n)[:, None] < cum).argmax(axis=1)
    votes[fires, j] = draws[fires]

matrix = VoteMatrix(
    votes=votes,
    program_ids=tuple(f"p{j}" for j in range(m)),
    record_ids=tuple(f"r{i}" for i in range(n)),
    classes=ClassSpace(("red", "green", "blue")),
)

print(f"{n} records, {m} programs, K={K}, planted diagonal {diag}")
print(f"{'model':12} {'accuracy':>8}  notes")
for name in ("mv", "wmv", "ds", "snorkel-lite"):
    params, report = FITTERS[name](matrix)
    labels = predict(params, matrix)
    acc = float(np.mean(labels.hard == truth))
    extra = f"converged in {report.iterations} iters" if report.iterations else ""
    print(f"{name:12} {acc:8.4f}  {extra}")

# the EM fit exposes the recovered confusion matrices
params, _ = FITTERS["ds"](matrix)
recovered = params.confusion[:, np.arange(K), np.arange(K)]
print("\nrecovered diagonals per program (planted 0.8):")
for pid, row in zip(matrix.program_ids, recovered):
    print(f"  {pid}: " + " ".join(f"{v:.3f}" for v in row))

# the triplet method solves pairwise agreement equations instead of EM;
# it is binary-only, so rerun on a two-class instance with a coin flip
accs = (0.9, 0.8, 0.7, 0.5)
truth2 = rng.integers(0, 2, size=8000)
votes2 = np.full((8000, 4), -1, dtype=np.int64)
for j, a in enumerate(accs):
    fires = rng.random(8000) >= 0.2
    correct = rng.random(8000) < a
    col = np.where(correct, truth2, 1 - truth2)
    votes2[fires, j] = col[fires]
matrix2 = VoteMatrix(
    votes=votes2,
    program_ids=("good", "fair", "poor", "coin"),
    record_ids=tuple(f"r{i}" for i in range(8000)),
    classes=ClassSpace(("no", "yes")),
)
params2, _ = FITTERS["triplet"](matrix2)
print("\ntriplet accuracy estimates (planted 0.9/0.8/0.7/0.5):")
for pid, a, w in zip(matrix2.program_ids, params2.accuracies, params2.weights):
    print(f"  {pid}: accuracy {a:.3f}, log-odds weight {w:+.3f}")
print("the coin flip gets a weight near zero, so counting ignores it")
