"""Label models: turn a vote matrix into pseudolabels.

Five aggregators, each taking a VoteMatrix alone: the matrix carries its
class count, its gold labels (which WMV weighs programs by) and the vote
bins every loop reads, built once per matrix.

- majority vote and weighted majority vote (counting),
- Dawid-Skene EM with full per-program confusion matrices,
- a one-coin EM ("snorkel_lite") where each program has a single accuracy
  and errors spread uniformly over wrong classes,
- a moment-based triplet estimator for binary tasks (no EM; latent
  accuracies from products of pairwise agreement rates).

Dawid-Skene and one-coin share one EM driver (``_em``) and differ only in
the M-step: Dawid-Skene fits smoothed full confusion rows, one-coin ties
each program's rows to a single accuracy.

Abstains are treated as missing at random: they never enter a likelihood.
All fits are deterministic; EM initializes from smoothed majority vote.
``predict`` refuses params fitted for other programs, in another order,
or for another class count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    LabelsmithError,
    Pseudolabels,
    VoteMatrix,
    json_field,
    json_numbers,
    read_json,
    write_json,
)

MV = "MV"
WMV = "WMV"
DAWID_SKENE = "DawidSkene"
TRIPLET = "Triplet"
SNORKEL_LITE = "SnorkelLite"

KINDS = (MV, WMV, DAWID_SKENE, TRIPLET, SNORKEL_LITE)

# EM smooths priors and confusions additively by SMOOTHING and stops once
# no posterior moves by TOL, or after MAX_ITER iterations. Accuracy
# estimates are clamped to CLAMP; a triplet pair needs MIN_PAIRS jointly
# covered rows.
SMOOTHING = 0.01
TOL = 1e-6
MAX_ITER = 200
CLAMP = (0.05, 0.95)
MIN_PAIRS = 10

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
    scalar-parameter kinds. ``weights`` is what MV/WMV posteriors count
    votes with; Triplet also records its log-odds weights but predicts
    from its one-coin ``confusion``, like the EM kinds.
    """

    kind: str
    priors: np.ndarray
    program_ids: tuple[str, ...]
    confusion: np.ndarray | None = None
    accuracies: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "priors", np.asarray(self.priors, dtype=float))
        object.__setattr__(self, "program_ids", tuple(self.program_ids))
        for name in ("confusion", "accuracies", "weights"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))
        if self.priors.ndim != 1:
            raise ModelError(f"priors must be a list, got shape {self.priors.shape}")
        if self.kind not in (MV, WMV) and self.confusion is None:
            raise ModelError(f"{self.kind} params need a confusion array")
        m, K = self.m, self.K
        if self.confusion is not None and self.confusion.shape != (m, K, K):
            raise ModelError(
                f"confusion has shape {self.confusion.shape}, expected {(m, K, K)} "
                f"for {m} programs and {K} classes"
            )
        for name in ("accuracies", "weights"):
            value = getattr(self, name)
            if value is not None and value.shape != (m,):
                raise ModelError(f"{name} has shape {value.shape}, expected ({m},)")
        # phrased so that a NaN entry fails the check
        if not ((self.priors >= 0).all() and abs(self.priors.sum() - 1.0) <= 1e-9):
            raise ModelError("priors must be non-negative and sum to 1")
        # a zero confusion entry makes some vote pattern impossible under
        # every class, so its posterior would be 0/0; every fitter smooths
        # or clamps its confusions away from 0
        if self.confusion is not None:
            rows = self.confusion.sum(axis=2)
            if not ((self.confusion > 0).all() and np.allclose(rows, 1.0, atol=1e-9)):
                raise ModelError("confusion rows must be positive and sum to 1")
        # MV/WMV posteriors count votes with these weights; Triplet's
        # log-odds weights may be negative but never reach a posterior
        if self.kind in (MV, WMV) and self.weights is not None:
            bad = ~(np.isfinite(self.weights) & (self.weights > 0))
            if bad.any():
                j = int(np.argmax(bad))
                raise ModelError(
                    f"weights must be finite and positive; weight for program "
                    f"{self.program_ids[j]!r} is {self.weights[j]}"
                )

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
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LabelModelParams":
        def arr(key):
            return json_numbers(doc, key, type(None), default=None)

        return cls(
            kind=json_field(doc, "kind", str),
            priors=json_numbers(doc, "priors"),
            program_ids=tuple(json_field(doc, "program_ids", list)),
            confusion=arr("confusion"),
            accuracies=arr("accuracies"),
            weights=arr("weights"),
        )


def save_params(path: str | Path, params: LabelModelParams) -> Path:
    return write_json(path, params.to_dict())


def load_params(path: str | Path) -> LabelModelParams:
    """Read a params file; any malformed content raises ModelError naming
    the path."""
    return read_json(path, LabelModelParams.from_dict, error=ModelError)


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


def _check_coverage(matrix: VoteMatrix) -> None:
    """Refuse to fit a matrix in which some program never votes."""
    silent = matrix.program_votes == 0
    if silent.any():
        raise ModelError(
            f"program {matrix.program_ids[int(np.argmax(silent))]!r} has zero coverage; remove it "
            "before fitting (the diagnostics report flags such programs)"
        )


def _mv_hard(matrix: VoteMatrix) -> np.ndarray:
    """Unweighted plurality labels; ties go to the smaller class index."""
    return np.argmax(matrix.vote_mass(), axis=1)


def empirical_accuracies(matrix: VoteMatrix) -> np.ndarray:
    """Per-program accuracy over rows where the program votes and the
    matrix has a gold label; NaN where a program has no such rows."""
    out = np.full(matrix.m, np.nan)
    if matrix.gold is None:
        return out
    # gold in the bins' coding: class c is c + 1, no label is 0
    gold = np.array([0 if g is None else g + 1 for g in matrix.gold], dtype=matrix.bins.dtype)
    for j, col in enumerate(matrix.bins):
        scored = (col != 0) & (gold != 0)
        total = np.count_nonzero(scored)
        if total:
            out[j] = np.count_nonzero(scored & (col == gold)) / total
    return out


def make_counting_params(matrix: VoteMatrix, kind: str = MV) -> tuple[LabelModelParams, FitReport]:
    """Params for the counting kinds. WMV weights come from empirical
    accuracies when the matrix has gold labels (log-odds, floored at a
    small positive value so an at-chance program nearly vanishes but never
    flips votes); without gold, WMV falls back to uniform weights with a
    note."""
    if kind not in (MV, WMV):
        raise ModelError(f"make_counting_params handles MV/WMV, not {kind!r}")
    _check_coverage(matrix)
    K = matrix.K
    notes: list[str] = []
    accuracies = None
    weights = np.ones(matrix.m)
    if kind == WMV:
        if matrix.gold is not None and any(g is not None for g in matrix.gold):
            acc = empirical_accuracies(matrix)
            if np.isnan(acc).any():
                j = int(np.argmax(np.isnan(acc)))
                notes.append(
                    f"program {matrix.program_ids[j]} has no gold-covered rows; weight set to chance"
                )
            acc = np.where(np.isnan(acc), 1.0 / K, acc)
            accuracies = np.clip(acc, *CLAMP)
            weights = np.maximum(np.log(accuracies / (1 - accuracies)), 0.01)
        else:
            notes.append("no gold labels available; WMV using uniform weights")
    params = LabelModelParams(
        kind=kind,
        priors=np.full(K, 1.0 / K),
        program_ids=matrix.program_ids,
        accuracies=accuracies,
        weights=weights,
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


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    # the row maxima, taken column by column: a maximum is exact in any
    # order, and a reduction along a short axis is far slower
    peak = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        np.maximum(peak, a[:, k], out=peak)
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def _log_joint(bins: np.ndarray, priors: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """(n, K) log prior_k plus the sum over non-abstain votes of
    log Conf_j[k, vote_ij], added in program order. Each program's
    log-confusion is read through a (K+1, K) table whose row 0 is zero, so
    ABSTAIN adds exactly 0.0 and the sums equal those over the voting
    programs alone."""
    m, n = bins.shape
    K = len(priors)
    log_joint = np.tile(np.log(priors), (n, 1))
    log_conf = np.log(confusion)
    table = np.zeros((K + 1, K))
    for j in range(m):
        table[1:] = log_conf[j].T
        log_joint += table.take(bins[j], axis=0)
    return log_joint


def _e_step(bins: np.ndarray, priors: np.ndarray, confusion: np.ndarray):
    """Posterior over true classes per row and each row's log evidence."""
    log_joint = _log_joint(bins, priors, confusion)
    log_evidence = _logsumexp_rows(log_joint)
    log_joint -= log_evidence[:, None]
    return np.exp(log_joint, out=log_joint), log_evidence


def _confusion_counts(bins: np.ndarray, q: np.ndarray) -> np.ndarray:
    """counts[j][k, c] = total posterior mass of class k among rows where
    program j voted c. np.bincount adds each bin's weights in row order; a
    one-hot matrix product would sum in an order that depends on BLAS."""
    m = bins.shape[0]
    K = q.shape[1]
    q_cols = np.ascontiguousarray(q.T)
    counts = np.empty((m, K, K))
    for j in range(m):
        col = bins[j].astype(np.intp)  # cast once, not in each bincount
        for k in range(K):
            # bin 0 collects ABSTAIN
            counts[j, k] = np.bincount(col, weights=q_cols[k], minlength=K + 1)[1:]
    return counts


def _em(matrix: VoteMatrix, m_step):
    """The EM loop both iterative fitters share, over the matrix's vote
    bins. ``m_step(counts)`` turns the expected counts from
    ``_confusion_counts`` into ``(confusion, penalty)``, penalty being the
    smoothing term the confusion adds to the objective. Priors get the
    same additive smoothing for every model. Returns ``(q, priors,
    confusion, iterations, converged, objective)``."""
    bins, n, K = matrix.bins, matrix.n, matrix.K
    mass = matrix.vote_mass()
    q = (mass + SMOOTHING) / (mass.sum(axis=1, keepdims=True) + K * SMOOTHING)
    objective: list[float] = []
    converged = False
    iterations = 0
    priors = confusion = None
    for iterations in range(1, MAX_ITER + 1):
        priors = (q.sum(axis=0) + SMOOTHING) / (n + K * SMOOTHING)
        confusion, penalty = m_step(_confusion_counts(bins, q))
        q_new, log_evidence = _e_step(bins, priors, confusion)
        objective.append(
            float(log_evidence.sum()) + SMOOTHING * float(np.log(priors).sum()) + penalty
        )
        delta = float(np.abs(q_new - q).max())
        q = q_new
        if delta < TOL:
            converged = True
            break
    return q, priors, confusion, iterations, converged, objective


def _align_permutation(q: np.ndarray, matrix: VoteMatrix) -> tuple[int, ...]:
    """Class permutation (new = perm[old]) that best matches majority vote
    on covered rows. Every permutation is scored from one K x K table of
    (model class, majority class) row counts; identity wins ties."""
    K = matrix.K
    covered = matrix.record_votes > 0
    mv = _mv_hard(matrix)[covered]
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


def fit_dawid_skene(matrix: VoteMatrix) -> tuple[LabelModelParams, FitReport]:
    """EM for the classic per-program confusion-matrix model, abstains
    excluded from the likelihood. Deterministic: initialization is smoothed
    majority vote, and any residual label switching is undone by aligning
    classes to majority vote."""
    K = matrix.K

    def m_step(counts):
        confusion = (counts + SMOOTHING) / (counts.sum(axis=2, keepdims=True) + K * SMOOTHING)
        return confusion, SMOOTHING * float(np.log(confusion).sum())

    _check_coverage(matrix)
    q, priors, confusion, iterations, converged, objective = _em(matrix, m_step)
    perm = _align_permutation(q, matrix)
    priors, confusion = _apply_permutation(priors, confusion, perm)
    params = LabelModelParams(
        kind=DAWID_SKENE,
        priors=priors,
        program_ids=matrix.program_ids,
        confusion=confusion,
    )
    acc = np.einsum("k,jkk->j", priors, confusion)
    report = FitReport(
        kind=DAWID_SKENE,
        iterations=iterations,
        converged=converged,
        log_likelihood=float(_e_step(matrix.bins, priors, confusion)[1].sum()),
        objective=tuple(objective),
        accuracy_by_program=tuple(acc.tolist()),
        permutation=perm,
    )
    return params, report


def fit_snorkel_lite(matrix: VoteMatrix) -> tuple[LabelModelParams, FitReport]:
    """One-coin EM: each program has one accuracy a_j, errors uniform over
    the K-1 wrong classes. A documented stand-in for the Snorkel label
    model; same contract as fit_dawid_skene otherwise."""
    _check_coverage(matrix)
    K = matrix.K
    total = matrix.program_votes

    def m_step(counts):
        correct = np.trace(counts, axis1=1, axis2=2)
        acc = np.clip((correct + SMOOTHING) / (total + 2 * SMOOTHING), *CLAMP)
        return _one_coin(acc, K), SMOOTHING * float(np.log(acc).sum() + np.log(1 - acc).sum())

    q, priors, confusion, iterations, converged, objective = _em(matrix, m_step)
    accuracies = confusion[:, 0, 0].copy()
    # one-coin confusions are only closed under relabeling for K=2
    # (swap maps a to 1-a); for larger K the identity is the only
    # candidate that keeps the parametrization
    perm = _align_permutation(q, matrix) if K == 2 else tuple(range(K))
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
    )
    report = FitReport(
        kind=SNORKEL_LITE,
        iterations=iterations,
        converged=converged,
        log_likelihood=float(_e_step(matrix.bins, priors, confusion)[1].sum()),
        objective=tuple(objective),
        accuracy_by_program=tuple(accuracies.tolist()),
        permutation=perm,
    )
    return params, report


def fit_triplet(matrix: VoteMatrix) -> tuple[LabelModelParams, FitReport]:
    """Moment-based accuracy estimation for binary tasks.

    Votes map to -1/+1 (abstain drops out pairwise). For conditionally
    independent programs, E[s_a s_b] = (2a_a-1)(2a_b-1) under balanced
    classes, so E[s_j s_a] E[s_j s_b] / E[s_a s_b] = (2a_j-1)^2. The median
    of that moment over all usable triplets, sign-resolved by agreement
    with majority vote, gives a_j. Aggregation weight is log(a/(1-a)).
    """
    if matrix.K != 2:
        raise ModelError(f"the triplet estimator supports binary tasks only (K=2, got K={matrix.K})")
    if matrix.m < 3:
        raise ModelError(f"the triplet estimator needs at least 3 programs, got {matrix.m}")
    _check_coverage(matrix)
    bins, m = matrix.bins, matrix.m
    # each pair's summed sign products and jointly covered rows: integer
    # products summed in int64, exact in any order; ABSTAIN's sign is 0
    signs = np.array([0, -1, 1], dtype=np.int8)[bins]
    sums = np.einsum("an,bn->ab", signs, signs, dtype=np.int64)
    voted = bins != 0
    counts = np.einsum("an,bn->ab", voted, voted, dtype=np.int64)
    pair_mean = np.divide(sums, counts, out=np.full((m, m), np.nan), where=counts >= MIN_PAIRS)

    mv_bins = _mv_hard(matrix) + 1
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
                f"(fewer than {MIN_PAIRS} jointly covered rows, or degenerate "
                "pair agreements); cannot estimate its accuracy"
            )
        med = float(np.clip(np.median(moments), 0.0, 1.0))
        # every program votes somewhere: _check_coverage refused the rest
        agree = np.count_nonzero(bins[j] == mv_bins) / matrix.program_votes[j]
        sign = 1.0 if agree >= 0.5 else -1.0
        accuracies[j] = (1.0 + sign * math.sqrt(med)) / 2.0
    accuracies = np.clip(accuracies, *CLAMP)
    weights = np.log(accuracies / (1 - accuracies))
    params = LabelModelParams(
        kind=TRIPLET,
        priors=np.array([0.5, 0.5]),
        program_ids=matrix.program_ids,
        confusion=_one_coin(accuracies, 2),
        accuracies=accuracies,
        weights=weights,
    )
    report = FitReport(
        kind=TRIPLET,
        iterations=1,
        converged=True,
        log_likelihood=float(_e_step(matrix.bins, params.priors, params.confusion)[1].sum()),
        accuracy_by_program=tuple(accuracies.tolist()),
    )
    return params, report


def predict(params: LabelModelParams, matrix: VoteMatrix) -> Pseudolabels:
    """Aggregate votes into pseudolabels under fitted params: (n, K)
    posteriors, uniform on rows where every program abstained. Params
    fitted for other programs, in another order or for another class
    count are refused."""
    if params.m != matrix.m:
        raise ModelError(
            f"params were fitted for {params.m} programs but the vote matrix has {matrix.m}"
        )
    if params.program_ids != matrix.program_ids:
        j = next(j for j, (a, b) in enumerate(zip(params.program_ids, matrix.program_ids)) if a != b)
        raise ModelError(
            f"params were fitted for program {params.program_ids[j]!r} in column {j}, "
            f"but the vote matrix has {matrix.program_ids[j]!r} there"
        )
    K = matrix.K
    if params.K != K:
        raise ModelError(f"params were fitted for {params.K} classes but the vote matrix has {K}")
    covered = matrix.record_votes > 0
    if params.kind in (MV, WMV):
        # the weights are positive, so only a row without votes has no mass
        mass = matrix.vote_mass(params.weights)
        posteriors = mass / np.where(covered, mass.sum(axis=1), 1)[:, None]
    else:
        posteriors = _e_step(matrix.bins, params.priors, params.confusion)[0]
    posteriors[~covered] = 1.0 / K
    return Pseudolabels(matrix.record_ids, posteriors, covered)


FITTERS = {
    "mv": partial(make_counting_params, kind=MV),
    "wmv": partial(make_counting_params, kind=WMV),
    "ds": fit_dawid_skene,
    "triplet": fit_triplet,
    "snorkel-lite": fit_snorkel_lite,
}
