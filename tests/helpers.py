"""Shared synthetic-vote generators and naive reference label models for
the test suite.

Both samplers draw from the conditional-independence model the label
models assume, so planted parameters are the recovery oracle. The
reference EM and alignment are per-row loops that the vectorized fitters
are compared against, and the reference pseudolabel writer is the
per-row formula the array writer must match byte for byte. The
reference triplet estimator is the float loop over program pairs and
triplets that the integer products and the array moments in
``fit_triplet`` replaced; it refuses a program whose every triplet was
skipped with the same ``ModelError``. The
reference Pike VM is the per-character regex loop that the lazy DFA in
``labelsmith.dsl.rex`` replaced. The reference scanner is the
per-character DSL scanner, with its own escape table, that the token
pattern in ``labelsmith.dsl.parser`` replaced. The reference evaluator is the
evaluation that counts every regex step of every record, which
``dsl.evaluate`` skips where the budget cannot run out; its votes and its
budget warnings must be the same. The reference featurizer and trainer
are the dense (n, dims) versions that the row-compressed ones in
``labelsmith.distill`` replaced; with ``lazy`` the trainer computes what
the block trainer does, up to summation order. The reference block
trainer is the block training loop with per-layer Adam moments, the
first layer's as wide as the model, that the flat buffers and the
stored-bucket moments of ``train_mlp`` replaced; it must give the same
bits. ``dense`` turns row-compressed features back into an array, and
``cross_entropy`` is the loss on a dense array that the reference
trainer and ``gradient_check`` read; ``gradient_check`` compares
analytic gradients with central differences. ``nested_guard`` builds
the rule guards that the parsers' nesting limits bound.
``skip_unless_golden_math`` skips a test of pinned hashes where numpy's
exp and log round differently from where the hashes were taken.
"""

import hashlib
import itertools
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from labelsmith.data import ABSTAIN, ClassSpace, VoteMatrix
from labelsmith.distill import (
    TOKEN_RE,
    DistillError,
    Hyper,
    TrainMetrics,
    _as_features,
    _as_soft,
    _hash_token,
    _log_softmax,
    _loss_and_predictions,
    gradients,
    init_mlp,
    logger,
)
from labelsmith.dsl import (
    DEFAULT_BUDGET_STEPS,
    And,
    ContainsAny,
    DslEvaluationError,
    DslParseError,
    LengthAtLeast,
    Matches,
    Not,
    Or,
    ScoreCmp,
    UppercaseRatioAtLeast,
    rex,
)
from labelsmith.dsl.parser import _PUNCT, _Token
from labelsmith.models import ModelError


def class_space(K):
    """K classes named c0, c1, ..."""
    return ClassSpace(tuple(f"c{k}" for k in range(K)))


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
        classes=class_space(K),
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
        classes=class_space(2),
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


def reference_triplet(votes, min_pairs=10, min_denominator=0.05, clamp=(0.05, 0.95)):
    """The triplet estimator over an (n, m) binary vote array, one pass
    over the rows per program pair: each pair's mean sign product over its
    jointly covered rows, the median triplet moment per program, its sign
    from agreement with plurality. Returns (accuracies, weights). A
    refusal names the programs p0, p1, ..., as ``mk_matrix`` does."""
    votes = np.asarray(votes, dtype=np.int64)
    m = votes.shape[1]
    signs = np.where(votes == ABSTAIN, 0, 2 * votes - 1).astype(float)
    nonabstain = votes != ABSTAIN
    pair_mean = np.full((m, m), np.nan)
    for a in range(m):
        for b in range(a + 1, m):
            both = nonabstain[:, a] & nonabstain[:, b]
            if both.sum() >= min_pairs:
                value = float((signs[both, a] * signs[both, b]).mean())
                pair_mean[a, b] = pair_mean[b, a] = value
    # an uncovered row's plurality is never read
    mv = np.array([_plurality(row, 2) or 0 for row in votes])
    accuracies = np.empty(m)
    for j in range(m):
        moments = []
        for a, b in itertools.combinations([x for x in range(m) if x != j], 2):
            e_ja, e_jb, e_ab = pair_mean[j, a], pair_mean[j, b], pair_mean[a, b]
            if math.isnan(e_ja) or math.isnan(e_jb) or math.isnan(e_ab) or abs(e_ab) < min_denominator:
                continue
            moments.append(e_ja * e_jb / e_ab)
        if not moments:
            raise ModelError(
                f"program 'p{j}': every triplet was skipped "
                f"(fewer than {min_pairs} jointly covered rows, or degenerate "
                "pair agreements); cannot estimate its accuracy"
            )
        med = float(np.clip(np.median(moments), 0.0, 1.0))
        voted = nonabstain[:, j]
        agree = float((votes[voted, j] == mv[voted]).mean())
        sign = 1.0 if agree >= 0.5 else -1.0
        accuracies[j] = (1.0 + sign * math.sqrt(med)) / 2.0
    accuracies = np.clip(accuracies, *clamp)
    return accuracies, np.log(accuracies / (1 - accuracies))


def reference_pseudolabel_bytes(record_ids, posterior, covered) -> bytes:
    """A pseudolabels file written one row at a time: each posterior's
    floats, its argmax (ties to the smallest index) and the covered flag,
    one ``json.dumps`` per row."""
    lines = []
    for record_id, post, cov in zip(record_ids, posterior, covered):
        post = np.asarray(post, dtype=float)
        row = {
            "record_id": record_id,
            "posterior": [float(p) for p in post],
            "hard": int(np.argmax(post)),
            "covered": bool(cov),
        }
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode("utf-8")


def reference_pike_vm(compiled, text):
    """Run ``compiled`` (a ``rex.Rex``) over ``text`` one position at a
    time, with no DFA cache: close the carried threads plus a fresh start
    thread at each position and step them over the next character.
    Returns (matched, steps), steps being the live threads summed over the
    positions scanned up to the first match, the charge the engine bills."""
    prog = compiled.prog
    n = len(text)
    carried = []
    steps = 0
    for i in range(n + 1):
        prev = text[i - 1] if i > 0 else None
        nxt = text[i] if i < n else None
        # the context an assertion reads: the previous character's
        # word-ness, position 0 or not, and the key the engine reads here
        key = rex.FINAL_NEWLINE if i == n - 1 and nxt == "\n" else nxt
        active = compiled._close([0, *carried], (rex._is_word(prev), i == 0, key))
        steps += len(active)
        carried = []
        for pc in active:
            op = prog[pc]
            if op[0] == "match":
                return True, steps
            if nxt is None:
                continue
            if op[0] == "any":
                if nxt != "\n":
                    carried.append(pc + 1)
            elif op[1].matches(nxt):
                carried.append(pc + 1)
    return False, steps


def reference_scan(source: str) -> list[_Token]:
    """The character-at-a-time scanner that ``dsl.parser._scan``'s token
    pattern replaced, with its own escape table: no ``\\b`` or ``\\f``,
    and a ``\\u`` escape is one character, so a surrogate pair gives two."""
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def err(message: str):
        raise DslParseError(message, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "-":
            if i + 1 < n and source[i + 1] == ">":
                tokens.append(_Token("ARROW", "->", line, col))
                i += 2
                col += 2
                continue
            if i + 1 < n and (source[i + 1] in "0123456789" or source[i + 1] == "."):
                pass  # negative number, falls through to the digit branch
            else:
                err("expected '->' or a number after '-'")
        if ch == ">" or ch == "<":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(_Token("CMP", ch + "=", line, col))
                i += 2
                col += 2
            else:
                tokens.append(_Token("CMP", ch, line, col))
                i += 1
                col += 1
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            col += 1
            out = []
            while True:
                if i >= n or source[i] == "\n":
                    raise DslParseError("unterminated string", line, start_col)
                c = source[i]
                if c == quote:
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise DslParseError("unterminated string", line, start_col)
                    esc = source[i + 1]
                    mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\", "/": "/"}.get(esc)
                    if mapped is not None:
                        out.append(mapped)
                        i += 2
                        col += 2
                    elif esc == "u":
                        digits = source[i + 2 : i + 6]
                        if len(digits) != 4 or any(d not in "0123456789abcdefABCDEF" for d in digits):
                            raise DslParseError("bad \\u escape", line, col)
                        out.append(chr(int(digits, 16)))
                        i += 6
                        col += 6
                    else:
                        raise DslParseError(f"unknown escape \\{esc}", line, col)
                else:
                    out.append(c)
                    i += 1
                    col += 1
            tokens.append(_Token("STRING", "".join(out), line, start_col))
            continue
        if ch in "0123456789" or ch == "." or ch == "-":
            j = i
            if source[j] == "-":
                j += 1
            while j < n and source[j] in "0123456789":
                j += 1
            is_float = False
            if j < n and source[j] == ".":
                is_float = True
                j += 1
                while j < n and source[j] in "0123456789":
                    j += 1
            lexeme = source[i:j]
            if lexeme in ("-", ".", "-."):
                err(f"bad number {lexeme!r}")
            value = float(lexeme) if is_float else int(lexeme)
            tokens.append(_Token("NUMBER", value, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", None, line, col))
    return tokens


def reference_evaluate(program, record, budget_steps=DEFAULT_BUDGET_STEPS):
    """``dsl.evaluate`` with every regex step counted: each record gets a
    StepBudget, each ``matches`` leaf reached scans its whole text on the
    DFA and draws on it, and the search that overdraws it makes the
    program vote ABSTAIN and log the same warning."""
    if record.modality != program.modality:
        raise DslEvaluationError(
            f"program {program.id!r} expects {program.modality} records, "
            f"record {record.id!r} is {record.modality}"
        )
    budget = rex.StepBudget(budget_steps)
    try:
        for rule in program.rules:
            if _reference_eval(rule.guard, record, program, budget):
                return rule.target
        return program.default
    except rex.RexBudgetExceeded:
        logging.getLogger("labelsmith.dsl").warning(
            "program %s timed out on record %s (budget %d regex steps); voting ABSTAIN",
            program.id,
            record.id,
            budget_steps,
        )
        return ABSTAIN


def _reference_eval(expr, record, program, budget) -> bool:
    if isinstance(expr, And):
        return all(_reference_eval(c, record, program, budget) for c in expr.children)
    if isinstance(expr, Or):
        return any(_reference_eval(c, record, program, budget) for c in expr.children)
    if isinstance(expr, Not):
        return not _reference_eval(expr.child, record, program, budget)
    if isinstance(expr, ContainsAny):
        return any(_reference_contains(record.text, n, expr.case_sensitive) for n in expr.needles)
    if isinstance(expr, Matches):
        return rex.Rex(expr.pattern).search(record.text, budget)
    if isinstance(expr, LengthAtLeast):
        return len(record.text) >= expr.n
    if isinstance(expr, UppercaseRatioAtLeast):
        return reference_uppercase_ratio(record.text) >= expr.ratio
    if isinstance(expr, ScoreCmp):
        try:
            value = record.scores[expr.concept]
        except KeyError:
            raise DslEvaluationError(
                f"program {program.id!r}: record {record.id!r} has no score "
                f"for concept {expr.concept!r}"
            ) from None
        if expr.op == ">=":
            return value >= expr.threshold
        if expr.op == ">":
            return value > expr.threshold
        if expr.op == "<=":
            return value <= expr.threshold
        return value < expr.threshold
    raise TypeError(f"not a DSL expression: {expr!r}")


def _reference_contains(text, needle, case_sensitive) -> bool:
    if case_sensitive:
        return needle in text
    return needle.casefold() in text.casefold()


def reference_uppercase_ratio(text) -> float:
    """Uppercase letters over all letters, one character at a time."""
    letters = upper = 0
    for ch in text:
        if ch.isalpha():
            letters += 1
            if ch.isupper():
                upper += 1
    return upper / letters if letters else 0.0


NESTED_GUARD_FORMS = ("nots", "parentheses", "regex-groups")


def nested_guard(form, depth):
    """A guard that nests ``depth`` levels of one form: ``not``s,
    parentheses, or groups in a ``matches()`` pattern."""
    if form == "nots":
        return "not " * depth + 'contains("a")'
    if form == "parentheses":
        return "(" * depth + 'contains("a")' + ")" * depth
    return 'matches("' + "(" * depth + "a" + ")" * depth + '")'


def reference_featurize(records, dims, concepts=None):
    """The dense (n, dims) float64 feature matrix, one row at a time:
    signed-hashed text buckets, each row divided by its L2 norm, or the
    concept scores in the given order."""
    if concepts is not None:
        return np.array([[rec.scores[c] for c in concepts] for rec in records], dtype=float).reshape(
            len(records), dims
        )
    out = np.zeros((len(records), dims))
    for i, rec in enumerate(records):
        for token in TOKEN_RE.findall(rec.text.lower()):
            h = _hash_token(token)
            sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
            out[i, h % dims] += sign
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def dense(X, rows=None) -> np.ndarray:
    """The (len(rows), dims) float64 array of the given rows of
    ``Features`` X; all rows when ``rows`` is None."""
    part = X if rows is None else X.take(rows)
    out = np.zeros((len(part), X.dims))
    out[np.repeat(np.arange(len(part)), np.diff(part.indptr)), part.indices] = part.values
    return out


def cross_entropy(model, X, T) -> float:
    """Mean soft cross-entropy of the model on dense X, computed from
    logits for stability. Hard label vectors are accepted and treated as
    one-hot."""
    T = _as_soft(T, model.sizes[-1])
    _, acts = model.forward(X)
    return float(-np.sum(T * _log_softmax(acts[-1])) / len(X))


def reference_train_mlp(X, targets, classes, hyper, X_val=None, y_val=None, lazy=False):
    """Adam over dense batches of a dense X, with the loss and accuracy
    of each epoch from two forward passes over all of X at once. With
    ``lazy``, a first-layer row whose column of the batch is all zero
    keeps its weights and Adam moments through the step (lazy Adam)."""
    X = np.asarray(X, dtype=float)
    T = _as_soft(targets, classes.K)
    hard = np.argmax(T, axis=1)
    model = init_mlp(X.shape[1], classes, hyper.seed)
    metrics = TrainMetrics(initial_loss=cross_entropy(model, X, T))
    rng = np.random.default_rng(hyper.seed + 1)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), hyper.batch):
            batch = order[start : start + hyper.batch]
            grads_w, grads_b = gradients(model, X[batch], T[batch])
            idle = ~(X[batch] != 0).any(axis=0) if lazy else np.zeros(X.shape[1], dtype=bool)
            kept = [a[idle] for a in (model.weights[0], m_w[0], v_w[0])]
            step += 1
            correction = np.sqrt(1 - beta2**step) / (1 - beta1**step)
            for i in range(len(model.weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                model.weights[i] -= hyper.lr * correction * m_w[i] / (np.sqrt(v_w[i]) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                model.biases[i] -= hyper.lr * correction * m_b[i] / (np.sqrt(v_b[i]) + eps)
            model.weights[0][idle], m_w[0][idle], v_w[0][idle] = kept
        metrics.train_loss.append(cross_entropy(model, X, T))
        metrics.train_accuracy.append(float((np.argmax(model.forward(X)[0], axis=1) == hard).mean()))
        if X_val is not None and y_val is not None:
            val_preds = np.argmax(model.forward(np.asarray(X_val, dtype=float))[0], axis=1)
            metrics.val_accuracy.append(float((val_preds == np.asarray(y_val)).mean()))
    return model, metrics


def reference_block_train_mlp(X, targets, classes, hyper=Hyper(), X_val=None, y_val=None):
    """Block training with one Adam moment pair per weight and bias
    array, the first layer's (dims, 32) wide, each updated by its own
    array expressions."""
    X = _as_features(X)
    if len(X) == 0:
        raise DistillError("training set is empty")
    T = _as_soft(targets, classes.K)
    hard = np.argmax(T, axis=1)
    if len(np.unique(hard)) < 2:
        logger.warning(
            "training data has a single class (%d); the model will be a constant predictor",
            int(hard[0]),
        )
    model = replace(init_mlp(X.dims, classes, hyper.seed), concepts=X.concepts)
    metrics = TrainMetrics(initial_loss=_loss_and_predictions(model, X, T)[0])
    rng = np.random.default_rng(hyper.seed + 1)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), hyper.batch):
            batch = order[start : start + hyper.batch]
            block, cols = X.block(batch)
            grads_w, grads_b = gradients(model, block, T[batch], cols)
            step += 1
            correction = np.sqrt(1 - beta2**step) / (1 - beta1**step)
            for i, rows in enumerate([cols] + [slice(None)] * (len(model.weights) - 1)):
                m = beta1 * m_w[i][rows] + (1 - beta1) * grads_w[i]
                v = beta2 * v_w[i][rows] + (1 - beta2) * grads_w[i] ** 2
                m_w[i][rows], v_w[i][rows] = m, v
                model.weights[i][rows] -= hyper.lr * correction * m / (np.sqrt(v) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                model.biases[i] -= hyper.lr * correction * m_b[i] / (np.sqrt(v_b[i]) + eps)
        loss, preds = _loss_and_predictions(model, X, T)
        metrics.train_loss.append(loss)
        metrics.train_accuracy.append(float((preds == hard).mean()))
        if X_val is not None and y_val is not None:
            metrics.val_accuracy.append(float((model.predict(X_val) == np.asarray(y_val)).mean()))
    return model, metrics


def gradient_check(model, X, T, *, h=1e-5, n_samples=200, seed=0):
    """Max relative error between analytic and central-difference gradients
    over a random sample of parameters."""
    if len(X) == 0:
        raise ValueError("gradient check needs a non-empty batch")
    T = _as_soft(T, model.sizes[-1])
    grads_w, grads_b = gradients(model, X, T)
    params = [(w, g) for w, g in zip(model.weights, grads_w)]
    params += [(b, g) for b, g in zip(model.biases, grads_b)]
    rng = np.random.default_rng(seed)
    total = sum(p.size for p, _ in params)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum([0] + [p.size for p, _ in params])
    worst = 0.0
    for flat_idx in picks:
        which = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        param, grad = params[which]
        local = int(flat_idx - offsets[which])
        idx = np.unravel_index(local, param.shape)
        keep = param[idx]
        param[idx] = keep + h
        up = cross_entropy(model, X, T)
        param[idx] = keep - h
        down = cross_entropy(model, X, T)
        param[idx] = keep
        numeric = (up - down) / (2 * h)
        analytic = grad[idx]
        denom = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


# Pinned hashes of files holding exp and log results also pin how this
# numpy build rounds float64 exp and log, which its SIMD loops do
# differently on different CPUs. Where this probe reads otherwise the
# pinned hashes cannot hold, and the test is skipped.
GOLDEN_MATH_PROBE = "8b0ddbc70e76c9095e4320b5260778556c117637b4e55b35aaf932c3d732c543"


def skip_unless_golden_math():
    x = np.linspace(-40.0, 5.0, 4001)
    probe = hashlib.sha256(np.exp(x).tobytes() + np.log(np.exp(x) + 1.0).tobytes()).hexdigest()
    if probe != GOLDEN_MATH_PROBE:
        pytest.skip("numpy's float64 exp/log round differently here than where the hashes were taken")
