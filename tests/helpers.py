"""Shared synthetic-vote generators and naive reference label models for
the test suite.

Both samplers draw from the conditional-independence model the label
models assume, so planted parameters are the recovery oracle. The
reference EM and alignment are per-row loops that the vectorized fitters
are compared against.
"""

import itertools
import math

import numpy as np

from labelsmith.data import ABSTAIN, VoteMatrix


def planted_confusion_votes(n, m, K, diag, seed, abstain=0.0):
    """Votes from m identical programs with confusion diag*I + (1-diag)/(K-1)
    off the diagonal, uniform priors. Returns (VoteMatrix, truth array)."""
    rng = np.random.default_rng(seed)
    truth = rng.choice(K, size=n)
    conf = np.full((K, K), (1 - diag) / (K - 1))
    np.fill_diagonal(conf, diag)
    votes = np.full((n, m), ABSTAIN, dtype=np.int64)
    for j in range(m):
        fires = rng.random(n) >= abstain
        cum = conf[truth].cumsum(axis=1)
        draws = (rng.random(n)[:, None] < cum).argmax(axis=1)
        votes[fires, j] = draws[fires]
    matrix = VoteMatrix(
        votes=votes,
        program_ids=tuple(f"p{j}" for j in range(m)),
        record_ids=tuple(f"r{i}" for i in range(n)),
    )
    return matrix, truth


def planted_binary_votes(n, accuracies, seed, abstain=0.2):
    """Binary votes with per-program planted accuracies, balanced classes."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=n)
    m = len(accuracies)
    votes = np.full((n, m), ABSTAIN, dtype=np.int64)
    for j, acc in enumerate(accuracies):
        fires = rng.random(n) >= abstain
        correct = rng.random(n) < acc
        v = np.where(correct, truth, 1 - truth)
        votes[fires, j] = v[fires]
    matrix = VoteMatrix(
        votes=votes,
        program_ids=tuple(f"p{j}" for j in range(m)),
        record_ids=tuple(f"r{i}" for i in range(n)),
    )
    return matrix, truth


def _plurality(row, K):
    """Unweighted plurality of one row of votes, ties to the smaller
    class index; None when every program abstained."""
    mass = [0] * K
    for v in row:
        if v != ABSTAIN:
            mass[v] += 1
    if not any(mass):
        return None
    return max(range(K), key=lambda k: (mass[k], -k))


def reference_em(votes, K, one_coin, max_iter=200, tol=1e-6, smoothing=0.01, clamp=(0.05, 0.95)):
    """Naive per-row EM, loops over rows and programs only. Dawid-Skene
    when ``one_coin`` is false, otherwise one accuracy per program with
    errors uniform over the wrong classes. Same initialization, smoothing,
    objective and stopping rule as the library. Returns (priors,
    confusion, iterations, objective, q) before any class alignment."""
    n, m = votes.shape
    q = []
    for i in range(n):
        mass = [0.0] * K
        for j in range(m):
            if votes[i, j] != ABSTAIN:
                mass[votes[i, j]] += 1.0
        q.append([(mass[k] + smoothing) / (sum(mass) + K * smoothing) for k in range(K)])
    objective = []
    for iterations in range(1, max_iter + 1):
        priors = [(sum(q[i][k] for i in range(n)) + smoothing) / (n + K * smoothing) for k in range(K)]
        confusion, penalty = [], 0.0
        for j in range(m):
            counts = [[0.0] * K for _ in range(K)]
            voted = 0
            for i in range(n):
                c = votes[i, j]
                if c != ABSTAIN:
                    voted += 1
                    for k in range(K):
                        counts[k][c] += q[i][k]
            if one_coin:
                correct = sum(counts[k][k] for k in range(K))
                a = min(max((correct + smoothing) / (voted + 2 * smoothing), clamp[0]), clamp[1])
                rows = [[a if c == k else (1 - a) / (K - 1) for c in range(K)] for k in range(K)]
                penalty += smoothing * (math.log(a) + math.log(1 - a))
            else:
                rows = [
                    [(counts[k][c] + smoothing) / (sum(counts[k]) + K * smoothing) for c in range(K)]
                    for k in range(K)
                ]
                penalty += smoothing * sum(math.log(x) for row in rows for x in row)
            confusion.append(rows)
        log_likelihood, q_new = 0.0, []
        for i in range(n):
            joint = []
            for k in range(K):
                value = math.log(priors[k])
                for j in range(m):
                    if votes[i, j] != ABSTAIN:
                        value += math.log(confusion[j][k][votes[i, j]])
                joint.append(value)
            peak = max(joint)
            z = peak + math.log(sum(math.exp(x - peak) for x in joint))
            log_likelihood += z
            q_new.append([math.exp(x - z) for x in joint])
        objective.append(log_likelihood + smoothing * sum(math.log(p) for p in priors) + penalty)
        delta = max(abs(q_new[i][k] - q[i][k]) for i in range(n) for k in range(K))
        q = q_new
        if delta < tol:
            break
    return np.array(priors), np.array(confusion), iterations, objective, np.array(q)


def reference_alignment(q, votes, K):
    """Brute force: score every class permutation by a pass over the
    covered rows, counting rows where the relabeled model argmax equals
    plurality. The first best permutation (identity first) wins."""
    best, best_score = None, -1
    for perm in itertools.permutations(range(K)):
        score = 0
        for i in range(votes.shape[0]):
            mv = _plurality(votes[i], K)
            if mv is not None and perm[int(np.argmax(q[i]))] == mv:
                score += 1
        if score > best_score:
            best, best_score = perm, score
    return best
