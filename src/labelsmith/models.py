"""Label models: turn a vote matrix into pseudolabels.

Five aggregators over the same VoteMatrix:

- majority vote and weighted majority vote (counting),
- Dawid-Skene EM with full per-program confusion matrices,
- a one-coin EM ("snorkel_lite") where each program has a single accuracy
  and errors spread uniformly over wrong classes,
- a moment-based triplet estimator for binary tasks (no EM; latent
  accuracies from products of pairwise agreement rates).

Dawid-Skene and one-coin share one EM driver (``_em``) and differ only in
the M-step: Dawid-Skene fits smoothed full confusion rows, one-coin ties
each program's rows to a single accuracy.

Abstains are treated as missing at random: they never enter a likelihood,
and each program's abstain propensity is recorded separately. All fits are
deterministic; EM initializes from smoothed majority vote.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ABSTAIN, LabelsmithError, PseudoLabel, VoteMatrix

MV = "MV"
WMV = "WMV"
DAWID_SKENE = "DawidSkene"
TRIPLET = "Triplet"
SNORKEL_LITE = "SnorkelLite"

KINDS = (MV, WMV, DAWID_SKENE, TRIPLET, SNORKEL_LITE)

DEFAULT_SMOOTHING = 0.01
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200
DEFAULT_CLAMP = (0.05, 0.95)
DEFAULT_MIN_PAIRS = 10

# pairwise agreement rates below this magnitude carry no usable signal
# as triplet denominators; such triplets are skipped
_MIN_DENOMINATOR = 0.05


class ModelError(LabelsmithError):
    """A label model cannot be fitted or applied to the given votes."""


@dataclass(frozen=True)
class LabelModelParams:
    """Fitted reliability parameters, one container for every model kind.

    ``confusion[j][k, c]`` is P(program j votes c | true class k), rows
    conditioned on a non-abstain vote. ``accuracies`` is set for the
    scalar-parameter kinds; ``weights`` is what vote counting uses for
    WMV/Triplet. ``propensity[j]`` is the empirical non-abstain rate,
    recorded for reporting and never used in posteriors.
    """

    kind: str
    priors: np.ndarray
    program_ids: tuple[str, ...]
    confusion: np.ndarray | None = None
    accuracies: np.ndarray | None = None
    weights: np.ndarray | None = None
    propensity: np.ndarray | None = None
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "priors", np.asarray(self.priors, dtype=float))
        object.__setattr__(self, "program_ids", tuple(self.program_ids))
        for name in ("confusion", "accuracies", "weights", "propensity"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.priors.ndim != 1:
            raise ModelError(f"priors must be a list, got shape {self.priors.shape}")
        m, K = self.m, self.K
        if self.confusion is not None and self.confusion.shape != (m, K, K):
            raise ModelError(
                f"confusion has shape {self.confusion.shape}, expected {(m, K, K)} "
                f"for {m} programs and {K} classes"
            )
        for name in ("accuracies", "weights", "propensity"):
            value = getattr(self, name)
            if value is not None and value.shape != (m,):
                raise ModelError(f"{name} has shape {value.shape}, expected ({m},)")
        # phrased so that a NaN entry fails the check
        if not ((self.priors >= 0).all() and abs(self.priors.sum() - 1.0) <= 1e-9):
            raise ModelError("priors must be non-negative and sum to 1")
        if self.confusion is not None:
            rows = self.confusion.sum(axis=2)
            if not ((self.confusion >= 0).all() and np.allclose(rows, 1.0, atol=1e-9)):
                raise ModelError("confusion rows must be non-negative and sum to 1")

    @property
    def K(self) -> int:
        return len(self.priors)

    @property
    def m(self) -> int:
        return len(self.program_ids)

    def to_dict(self) -> dict:
        def arr(x):
            return None if x is None else np.asarray(x).tolist()

        return {
            "kind": self.kind,
            "priors": arr(self.priors),
            "program_ids": list(self.program_ids),
            "confusion": arr(self.confusion),
            "accuracies": arr(self.accuracies),
            "weights": arr(self.weights),
            "propensity": arr(self.propensity),
            "class_names": list(self.class_names) if self.class_names else None,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LabelModelParams":
        def arr(x):
            return None if x is None else np.asarray(x, dtype=float)

        return cls(
            kind=doc["kind"],
            priors=np.asarray(doc["priors"], dtype=float),
            program_ids=tuple(doc["program_ids"]),
            confusion=arr(doc.get("confusion")),
            accuracies=arr(doc.get("accuracies")),
            weights=arr(doc.get("weights")),
            propensity=arr(doc.get("propensity")),
            class_names=tuple(doc["class_names"]) if doc.get("class_names") else None,
        )


def save_params(path: str | Path, params: LabelModelParams) -> Path:
    path = Path(path)
    path.write_text(json.dumps(params.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_params(path: str | Path) -> LabelModelParams:
    """Read a params file; any malformed content raises ModelError naming
    the path."""
    path = Path(path)
    try:
        return LabelModelParams.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise ModelError(f"{path}: missing field {exc}") from exc
    except (ModelError, ValueError, TypeError) as exc:
        raise ModelError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class FitReport:
    """How a fit went. ``objective`` is the penalized (smoothed) data
    log-likelihood after each M-step; with additive smoothing this is the
    quantity EM provably does not decrease. ``log_likelihood`` is the
    plain observed-data value at the final parameters."""

    kind: str
    iterations: int
    converged: bool
    log_likelihood: float
    objective: tuple[float, ...] = ()
    accuracy_by_program: tuple[float, ...] = ()
    permutation: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


def _check_coverage(matrix: VoteMatrix):
    covered = (matrix.votes != ABSTAIN).sum(axis=0)
    for j, count in enumerate(covered):
        if count == 0:
            raise ModelError(
                f"program {matrix.program_ids[j]!r} has zero coverage; remove it "
                "before fitting (the diagnostics report flags such programs)"
            )


def _propensity(matrix: VoteMatrix) -> np.ndarray:
    return (matrix.votes != ABSTAIN).mean(axis=0)


def _covered(votes: np.ndarray) -> np.ndarray:
    """Rows where at least one program voted."""
    return (votes != ABSTAIN).any(axis=1)


def _vote_mass(votes: np.ndarray, K: int, weights: np.ndarray | None = None) -> np.ndarray:
    """mass[i, c] = summed weight of the programs voting c on row i. The
    buffer has a spare column K that ABSTAIN (-1) indexes, so every vote
    lands somewhere and abstains are sliced off at the end."""
    n, m = votes.shape
    mass = np.zeros((n, K + 1))
    rows = np.arange(n)
    w = np.ones(m) if weights is None else weights
    for j in range(m):
        mass[rows, votes[:, j]] += w[j]
    return mass[:, :K]


def _posteriors_to_pseudolabels(
    matrix: VoteMatrix, posteriors: np.ndarray
) -> list[PseudoLabel]:
    covered = _covered(matrix.votes)
    return [
        PseudoLabel.from_posterior(rid, post, covered=bool(c))
        for rid, post, c in zip(matrix.record_ids, posteriors, covered)
    ]


def majority_vote(
    matrix: VoteMatrix, K: int, weights: Sequence[float] | None = None
) -> list[PseudoLabel]:
    """(Weighted) majority vote. Posterior is the weight mass per class,
    normalized over non-abstain votes; all-abstain rows come back with
    covered=false and a uniform posterior."""
    params = LabelModelParams(
        kind=MV if weights is None else WMV,
        priors=np.full(K, 1.0 / K),
        program_ids=matrix.program_ids,
        weights=weights,
    )
    if params.weights is not None and (params.weights <= 0).any():
        bad = int(np.argmax(params.weights <= 0))
        raise ModelError(
            f"weights must be positive; weight for program "
            f"{matrix.program_ids[bad]!r} is {params.weights[bad]}"
        )
    return _posteriors_to_pseudolabels(matrix, posterior_matrix(params, matrix))


def _mv_hard(votes: np.ndarray, K: int) -> np.ndarray:
    """Unweighted plurality labels; ties go to the smaller class index."""
    return np.argmax(_vote_mass(votes, K), axis=1)


def empirical_accuracies(
    matrix: VoteMatrix, gold: Sequence[int | None]
) -> np.ndarray:
    """Per-program accuracy over rows where the program votes and gold is
    present; NaN where a program has no such rows."""
    gold_arr = np.array([ABSTAIN if g is None else g for g in gold], dtype=np.int64)
    if gold_arr.shape[0] != matrix.n:
        raise ModelError(f"expected {matrix.n} gold labels, got {gold_arr.shape[0]}")
    out = np.full(matrix.m, np.nan)
    for j in range(matrix.m):
        v = matrix.votes[:, j]
        mask = (v != ABSTAIN) & (gold_arr != ABSTAIN)
        if mask.any():
            out[j] = float((v[mask] == gold_arr[mask]).mean())
    return out


def make_counting_params(
    matrix: VoteMatrix,
    K: int,
    kind: str = MV,
    gold: Sequence[int | None] | None = None,
    clamp: tuple[float, float] = DEFAULT_CLAMP,
    class_names: Sequence[str] | None = None,
) -> tuple[LabelModelParams, FitReport]:
    """Params for the counting kinds. WMV weights come from empirical
    accuracies when gold is given (log-odds, floored at a small positive
    value so an at-chance program nearly vanishes but never flips votes);
    without gold, WMV falls back to uniform weights with a note."""
    if kind not in (MV, WMV):
        raise ModelError(f"make_counting_params handles MV/WMV, not {kind!r}")
    _check_coverage(matrix)
    notes: list[str] = []
    accuracies = None
    weights = np.ones(matrix.m)
    if kind == WMV:
        if gold is not None and any(g is not None for g in gold):
            acc = empirical_accuracies(matrix, gold)
            if np.isnan(acc).any():
                j = int(np.argmax(np.isnan(acc)))
                notes.append(
                    f"program {matrix.program_ids[j]} has no gold-covered rows; weight set to chance"
                )
            acc = np.where(np.isnan(acc), 1.0 / K, acc)
            accuracies = np.clip(acc, clamp[0], clamp[1])
            weights = np.maximum(np.log(accuracies / (1 - accuracies)), 0.01)
        else:
            notes.append("no gold labels available; WMV using uniform weights")
    params = LabelModelParams(
        kind=kind,
        priors=np.full(K, 1.0 / K),
        program_ids=matrix.program_ids,
        accuracies=accuracies,
        weights=weights,
        propensity=_propensity(matrix),
        class_names=tuple(class_names) if class_names else None,
    )
    report = FitReport(
        kind=kind,
        iterations=0,
        converged=True,
        log_likelihood=float("nan"),
        accuracy_by_program=tuple(accuracies.tolist()) if accuracies is not None else (),
        notes=tuple(notes),
    )
    return params, report


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def _log_joint(votes: np.ndarray, priors: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """(n, K) log prior_k plus the sum over non-abstain votes of
    log Conf_j[k, vote_ij]. Each program's log-confusion is read through a
    (K+1, K) table whose last row is zero, so ABSTAIN (-1) adds exactly
    0.0 and the sums equal those over the voting programs alone."""
    n, m = votes.shape
    K = len(priors)
    log_joint = np.tile(np.log(priors), (n, 1))
    log_conf = np.log(confusion)
    table = np.zeros((K + 1, K))
    for j in range(m):
        table[:K] = log_conf[j].T
        log_joint += table[votes[:, j]]
    return log_joint


def _e_step(votes: np.ndarray, priors: np.ndarray, confusion: np.ndarray):
    """Posterior over true classes per row and each row's log evidence."""
    log_joint = _log_joint(votes, priors, confusion)
    log_evidence = _logsumexp(log_joint, axis=1)
    log_joint -= log_evidence[:, None]
    return np.exp(log_joint, out=log_joint), log_evidence


def _confusion_counts(votes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """counts[j][k, c] = total posterior mass of class k among rows where
    program j voted c. np.bincount adds each bin's weights in row order; a
    one-hot matrix product would sum in an order that depends on BLAS."""
    m = votes.shape[1]
    K = q.shape[1]
    q_cols = np.ascontiguousarray(q.T)
    counts = np.empty((m, K, K))
    for j in range(m):
        bins = votes[:, j] + 1  # bin 0 collects ABSTAIN
        for k in range(K):
            counts[j, k] = np.bincount(bins, weights=q_cols[k], minlength=K + 1)[1:]
    return counts


def _em(matrix: VoteMatrix, K: int, m_step, *, max_iter: int, tol: float, smoothing: float):
    """The EM loop both iterative fitters share. ``m_step(counts)`` turns
    the expected counts from ``_confusion_counts`` into ``(confusion,
    penalty)``, penalty being the smoothing term the confusion adds to the
    objective. Priors get the same additive smoothing for every model.
    Returns ``(q, priors, confusion, iterations, converged, objective)``."""
    _check_coverage(matrix)
    votes = matrix.votes
    mass = _vote_mass(votes, K)
    q = (mass + smoothing) / (mass.sum(axis=1, keepdims=True) + K * smoothing)
    objective: list[float] = []
    converged = False
    iterations = 0
    priors = confusion = None
    for iterations in range(1, max_iter + 1):
        priors = (q.sum(axis=0) + smoothing) / (matrix.n + K * smoothing)
        confusion, penalty = m_step(_confusion_counts(votes, q))
        q_new, log_evidence = _e_step(votes, priors, confusion)
        objective.append(
            float(log_evidence.sum()) + smoothing * float(np.log(priors).sum()) + penalty
        )
        delta = float(np.abs(q_new - q).max())
        q = q_new
        if delta < tol:
            converged = True
            break
    return q, priors, confusion, iterations, converged, objective


def _align_permutation(q: np.ndarray, votes: np.ndarray, K: int) -> tuple[int, ...]:
    """Class permutation (new = perm[old]) that best matches majority vote
    on covered rows. Every permutation is scored from one K x K table of
    (model class, majority class) row counts; identity wins ties."""
    covered = _covered(votes)
    mv = _mv_hard(votes, K)[covered]
    model = np.argmax(q, axis=1)[covered]
    table = np.bincount(model * K + mv, minlength=K * K).reshape(K, K)
    best, best_score = tuple(range(K)), -1
    for perm in itertools.permutations(range(K)):
        score = int(table[range(K), perm].sum())
        if score > best_score:
            best, best_score = perm, score
    return best


def _apply_permutation(priors: np.ndarray, confusion: np.ndarray, perm: tuple[int, ...]):
    """Relabel latent classes: new class perm[k] gets old class k's prior
    and confusion row. Observed vote columns stay put."""
    old = np.argsort(perm)  # old[perm[k]] == k
    return priors[old], confusion[:, old, :]


def _one_coin(accuracies: np.ndarray, K: int) -> np.ndarray:
    """Confusions with accuracy a_j on the diagonal and 1 - a_j spread
    evenly over the K-1 wrong classes; the diagonal is a_j exactly."""
    eye = np.eye(K)
    off = (np.ones((K, K)) - eye) / max(K - 1, 1)
    return accuracies[:, None, None] * eye + (1 - accuracies)[:, None, None] * off


def fit_dawid_skene(
    matrix: VoteMatrix,
    K: int,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    smoothing: float = DEFAULT_SMOOTHING,
    class_names: Sequence[str] | None = None,
) -> tuple[LabelModelParams, FitReport]:
    """EM for the classic per-program confusion-matrix model, abstains
    excluded from the likelihood. Deterministic: initialization is smoothed
    majority vote, and any residual label switching is undone by aligning
    classes to majority vote."""

    def m_step(counts):
        confusion = (counts + smoothing) / (counts.sum(axis=2, keepdims=True) + K * smoothing)
        return confusion, smoothing * float(np.log(confusion).sum())

    votes = matrix.votes
    q, priors, confusion, iterations, converged, objective = _em(
        matrix, K, m_step, max_iter=max_iter, tol=tol, smoothing=smoothing
    )
    perm = _align_permutation(q, votes, K)
    priors, confusion = _apply_permutation(priors, confusion, perm)
    params = LabelModelParams(
        kind=DAWID_SKENE,
        priors=priors,
        program_ids=matrix.program_ids,
        confusion=confusion,
        propensity=_propensity(matrix),
        class_names=tuple(class_names) if class_names else None,
    )
    acc = np.einsum("k,jkk->j", priors, confusion)
    report = FitReport(
        kind=DAWID_SKENE,
        iterations=iterations,
        converged=converged,
        log_likelihood=float(_e_step(votes, priors, confusion)[1].sum()),
        objective=tuple(objective),
        accuracy_by_program=tuple(acc.tolist()),
        permutation=perm,
    )
    return params, report


def fit_snorkel_lite(
    matrix: VoteMatrix,
    K: int,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    smoothing: float = DEFAULT_SMOOTHING,
    clamp: tuple[float, float] = DEFAULT_CLAMP,
    class_names: Sequence[str] | None = None,
) -> tuple[LabelModelParams, FitReport]:
    """One-coin EM: each program has one accuracy a_j, errors uniform over
    the K-1 wrong classes. A documented stand-in for the Snorkel label
    model; same contract as fit_dawid_skene otherwise."""
    votes = matrix.votes
    total = (votes != ABSTAIN).sum(axis=0)

    def m_step(counts):
        correct = np.trace(counts, axis1=1, axis2=2)
        acc = np.clip((correct + smoothing) / (total + 2 * smoothing), clamp[0], clamp[1])
        return _one_coin(acc, K), smoothing * float(np.log(acc).sum() + np.log(1 - acc).sum())

    q, priors, confusion, iterations, converged, objective = _em(
        matrix, K, m_step, max_iter=max_iter, tol=tol, smoothing=smoothing
    )
    accuracies = confusion[:, 0, 0].copy()
    # one-coin confusions are only closed under relabeling for K=2
    # (swap maps a to 1-a); for larger K the identity is the only
    # candidate that keeps the parametrization
    perm = _align_permutation(q, votes, K) if K == 2 else tuple(range(K))
    if perm != tuple(range(K)):
        priors = priors[::-1].copy()
        accuracies = 1 - accuracies
        confusion = _one_coin(accuracies, K)
    params = LabelModelParams(
        kind=SNORKEL_LITE,
        priors=priors,
        program_ids=matrix.program_ids,
        confusion=confusion,
        accuracies=accuracies,
        propensity=_propensity(matrix),
        class_names=tuple(class_names) if class_names else None,
    )
    report = FitReport(
        kind=SNORKEL_LITE,
        iterations=iterations,
        converged=converged,
        log_likelihood=float(_e_step(votes, priors, confusion)[1].sum()),
        objective=tuple(objective),
        accuracy_by_program=tuple(accuracies.tolist()),
        permutation=perm,
    )
    return params, report


def fit_triplet(
    matrix: VoteMatrix,
    K: int,
    *,
    clamp: tuple[float, float] = DEFAULT_CLAMP,
    min_pairs: int = DEFAULT_MIN_PAIRS,
    class_names: Sequence[str] | None = None,
) -> tuple[LabelModelParams, FitReport]:
    """Moment-based accuracy estimation for binary tasks.

    Votes map to -1/+1 (abstain drops out pairwise). For conditionally
    independent programs, E[s_a s_b] = (2a_a-1)(2a_b-1) under balanced
    classes, so E[s_j s_a] E[s_j s_b] / E[s_a s_b] = (2a_j-1)^2. The median
    of that moment over all usable triplets, sign-resolved by agreement
    with majority vote, gives a_j. Aggregation weight is log(a/(1-a)).
    """
    if K != 2:
        raise ModelError(f"the triplet estimator supports binary tasks only (K=2, got K={K})")
    if matrix.m < 3:
        raise ModelError(f"the triplet estimator needs at least 3 programs, got {matrix.m}")
    _check_coverage(matrix)
    votes = matrix.votes
    m = matrix.m
    signs = np.where(votes == ABSTAIN, 0, 2 * votes - 1).astype(float)
    nonabstain = votes != ABSTAIN

    pair_mean = np.full((m, m), np.nan)
    for a in range(m):
        for b in range(a + 1, m):
            both = nonabstain[:, a] & nonabstain[:, b]
            if both.sum() >= min_pairs:
                value = float((signs[both, a] * signs[both, b]).mean())
                pair_mean[a, b] = pair_mean[b, a] = value

    mv = _mv_hard(votes, 2)
    accuracies = np.empty(m)
    for j in range(m):
        moments = []
        for a, b in itertools.combinations([x for x in range(m) if x != j], 2):
            e_ja, e_jb, e_ab = pair_mean[j, a], pair_mean[j, b], pair_mean[a, b]
            if math.isnan(e_ja) or math.isnan(e_jb) or math.isnan(e_ab):
                continue
            if abs(e_ab) < _MIN_DENOMINATOR:
                continue
            moments.append(e_ja * e_jb / e_ab)
        if not moments:
            raise ModelError(
                f"program {matrix.program_ids[j]!r}: every triplet was skipped "
                f"(fewer than {min_pairs} jointly covered rows, or degenerate "
                "pair agreements); cannot estimate its accuracy"
            )
        med = float(np.clip(np.median(moments), 0.0, 1.0))
        voted = nonabstain[:, j]
        agree = float((votes[voted, j] == mv[voted]).mean()) if voted.any() else 0.5
        sign = 1.0 if agree >= 0.5 else -1.0
        accuracies[j] = (1.0 + sign * math.sqrt(med)) / 2.0
    accuracies = np.clip(accuracies, clamp[0], clamp[1])
    weights = np.log(accuracies / (1 - accuracies))
    params = LabelModelParams(
        kind=TRIPLET,
        priors=np.array([0.5, 0.5]),
        program_ids=matrix.program_ids,
        confusion=_one_coin(accuracies, 2),
        accuracies=accuracies,
        weights=weights,
        propensity=_propensity(matrix),
        class_names=tuple(class_names) if class_names else None,
    )
    report = FitReport(
        kind=TRIPLET,
        iterations=1,
        converged=True,
        log_likelihood=float(_e_step(votes, params.priors, params.confusion)[1].sum()),
        accuracy_by_program=tuple(accuracies.tolist()),
    )
    return params, report


def posterior_matrix(params: LabelModelParams, matrix: VoteMatrix) -> np.ndarray:
    """(n, K) posteriors for covered rows; uncovered rows get uniform."""
    if params.m != matrix.m:
        raise ModelError(
            f"params were fitted for {params.m} programs but the vote matrix has {matrix.m}"
        )
    K = params.K
    if matrix.votes.size and matrix.votes.max() >= K:
        raise ModelError(f"votes contain class indices outside 0..{K - 1}")
    if params.kind in (MV, WMV):
        mass = _vote_mass(matrix.votes, K, params.weights)
        totals = mass.sum(axis=1, keepdims=True)
        posteriors = np.where(totals > 0, mass / np.where(totals == 0, 1, totals), 1.0 / K)
    else:
        posteriors = _e_step(matrix.votes, params.priors, params.confusion)[0]
    posteriors[~_covered(matrix.votes)] = 1.0 / K
    return posteriors


def predict(params: LabelModelParams, matrix: VoteMatrix) -> list[PseudoLabel]:
    """Aggregate votes into pseudolabels under fitted params. Ties in the
    posterior break toward the smallest class index."""
    return _posteriors_to_pseudolabels(matrix, posterior_matrix(params, matrix))


FITTERS = {
    "mv": lambda matrix, K, **kw: make_counting_params(matrix, K, kind=MV, **kw),
    "wmv": lambda matrix, K, **kw: make_counting_params(matrix, K, kind=WMV, **kw),
    "ds": fit_dawid_skene,
    "triplet": fit_triplet,
    "snorkel-lite": fit_snorkel_lite,
}
