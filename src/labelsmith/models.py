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
each program's rows to a single accuracy. Every fitter ends in
``_fit_result``, which builds its params and its report.

Abstains are treated as missing at random: they never enter a likelihood.
All fits are deterministic; EM initializes from smoothed majority vote.
``predict`` refuses params fitted for other programs, in another order,
or for another class count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    LabelsmithError,
    Pseudolabels,
    VoteMatrix,
    json_field,
    json_type,
    read_json,
    unique_strings,
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
        object.__setattr__(self, "program_ids", unique_strings(self.program_ids, "program_ids"))
        object.__setattr__(self, "priors", _floats(self.priors, "priors", "a list of numbers"))
        if self.priors.ndim != 1:
            raise ModelError(f"priors must be a list, got shape {self.priors.shape}")
        if self.kind not in (MV, WMV) and self.confusion is None:
            raise ModelError(f"{self.kind} params need a confusion array")
        m, K = self.m, self.K
        for name, shape in (("confusion", (m, K, K)), ("accuracies", (m,)), ("weights", (m,))):
            value = getattr(self, name)
            if value is not None:
                expected = f"{shape} for {m} programs and {K} classes"
                value = _floats(value, name, f"shape {expected}")
                object.__setattr__(self, name, value)
                if value.shape != shape:
                    raise ModelError(f"{name} has shape {value.shape}, expected {expected}")
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
            # a row's vote mass adds up to at most this total
            with np.errstate(over="ignore"):
                total = self.weights.sum()
            if not np.isfinite(total):
                raise ModelError(f"weights must have a finite total; they add up to {total}")

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
        def numbers(key: str, required: bool = False):
            """``doc[key]``, a list (or null, unless ``required``) whose
            entries, and those of the lists nested in it, are numbers:
            ``true`` is not 1.0 and ``"1"`` names the field, not a failed
            conversion."""
            value = json_field(doc, key, list) if required else json_field(doc, key, list, type(None), default=None)
            # a stack, not recursion: lists nest as deep as the JSON parser allows
            stack = [value] if type(value) is list else []
            while stack:
                for entry in stack.pop():
                    if type(entry) is list:
                        stack.append(entry)
                    elif type(entry) not in (int, float):
                        raise DatasetError(f"{key!r} must hold numbers, got {json_type(entry)}")
            return value

        return cls(
            kind=json_field(doc, "kind", str),
            priors=numbers("priors", required=True),
            program_ids=json_field(doc, "program_ids", list),
            confusion=numbers("confusion"),
            accuracies=numbers("accuracies"),
            weights=numbers("weights"),
        )


def _floats(value, name: str, expected: str) -> np.ndarray:
    """``value`` as a float array; nested lists of unequal lengths, which
    numpy refuses in its own words, name the field and ``expected``."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ModelError(f"{name!r} is ragged, expected {expected}") from None


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
    plain observed-data value at the final parameters, None for the
    counting kinds, which have no likelihood."""

    kind: str
    iterations: int
    converged: bool
    log_likelihood: float | None
    objective: tuple[float, ...] = ()
    accuracy_by_program: tuple[float, ...] = ()
    permutation: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


def save_report(path: str | Path, report: FitReport, program_ids: tuple[str, ...]) -> Path:
    """Write ``report`` as ``fit_report.json``: each program's accuracy
    keyed by its id, and no permutation."""
    doc = asdict(report)
    del doc["permutation"]
    doc["accuracy_by_program"] = dict(zip(program_ids, report.accuracy_by_program))
    return write_json(path, doc)


def _fit_result(
    matrix: VoteMatrix,
    kind: str,
    priors: np.ndarray,
    trace: tuple[int, bool, Sequence[float]],
    *,
    confusion: np.ndarray | None = None,
    accuracies: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    permutation: tuple[int, ...] = (),
    notes: Sequence[str] = (),
) -> tuple[LabelModelParams, FitReport]:
    """The end of every fit: its params for ``matrix``'s programs and its
    report, ``trace`` being ``(iterations, converged, objective)``. Only
    params with a confusion array have a log-likelihood; each program's
    accuracy is its fitted one or else its prior-weighted diagonal."""
    params = LabelModelParams(kind, priors, matrix.program_ids, confusion, accuracies, weights)
    log_likelihood, accuracy = None, params.accuracies
    if params.confusion is not None:
        log_likelihood = float(_e_step(matrix.bins, params.priors, params.confusion)[1].sum())
        if accuracy is None:
            accuracy = np.einsum("k,jkk->j", params.priors, params.confusion)
    iterations, converged, objective = trace
    accuracy = () if accuracy is None else tuple(accuracy.tolist())
    report = FitReport(
        kind, iterations, converged, log_likelihood, tuple(objective), accuracy, permutation, tuple(notes)
    )
    return params, report


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
            acc = matrix.agreement(matrix.gold)
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
    return _fit_result(
        matrix, kind, np.full(K, 1.0 / K), (0, True, ()), accuracies=accuracies, weights=weights, notes=notes
    )


def _e_step(bins: np.ndarray, priors: np.ndarray, confusion: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None):
    """Posterior over true classes per row and each row's log evidence.
    The posterior is written into ``out`` and ``work`` is scratch, both
    (n, K) float64 buffers, allocated here when not given.

    Row i's log joint is log prior_k plus the sum over non-abstain votes
    of log Conf_j[k, vote_ij], added in program order. Each program's
    log-confusion is read through a (K+1, K) table whose row 0 is zero, so
    ABSTAIN adds exactly 0.0 and the sums equal those over the voting
    programs alone."""
    m, n = bins.shape
    K = len(priors)
    log_joint = np.empty((n, K)) if out is None else out
    work = np.empty((n, K)) if work is None else work
    log_joint[...] = np.log(priors)
    log_conf = np.log(confusion)
    table = np.zeros((K + 1, K))
    for j in range(m):
        table[1:] = log_conf[j].T
        # mode="raise" would buffer ``out``; every bin is in 0..K
        np.take(table, bins[j], axis=0, out=work, mode="clip")
        log_joint += work
    # the row maxima, taken column by column: a maximum is exact in any
    # order, and a reduction along a short axis is far slower
    peak = log_joint[:, 0].copy()
    for k in range(1, K):
        np.maximum(peak, log_joint[:, k], out=peak)
    np.subtract(log_joint, peak[:, None], out=work)
    log_evidence = np.exp(work, out=work).sum(axis=1)
    np.log(log_evidence, out=log_evidence)
    log_evidence += peak
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
    confusion, trace)``, ``trace`` being ``(iterations, converged,
    objective)``."""
    bins, n, K = matrix.bins, matrix.n, matrix.K
    mass = matrix.vote_mass()
    q = (mass + SMOOTHING) / (mass.sum(axis=1, keepdims=True) + K * SMOOTHING)
    del mass  # an (n, K + 1) buffer the iterations never read
    # the next posterior and the E-step's scratch; q and q_new swap
    q_new, work = np.empty_like(q), np.empty_like(q)
    objective: list[float] = []
    converged = False
    iterations = 0
    priors = confusion = None
    for iterations in range(1, MAX_ITER + 1):
        priors = (q.sum(axis=0) + SMOOTHING) / (n + K * SMOOTHING)
        confusion, penalty = m_step(_confusion_counts(bins, q))
        log_evidence = _e_step(bins, priors, confusion, out=q_new, work=work)[1]
        objective.append(
            float(log_evidence.sum()) + SMOOTHING * float(np.log(priors).sum()) + penalty
        )
        delta = float(np.abs(np.subtract(q_new, q, out=work), out=work).max())
        q, q_new = q_new, q
        if delta < TOL:
            converged = True
            break
    return q, priors, confusion, (iterations, converged, objective)


def _align_permutation(q: np.ndarray, matrix: VoteMatrix) -> tuple[int, ...]:
    """Class permutation (new = perm[old]) that best matches majority vote
    on covered rows: the maximum-weight assignment on one K x K table of
    (model class, majority class) row counts. Of the best permutations the
    lexicographically first wins, so identity wins ties."""
    K = matrix.K
    covered = matrix.record_votes > 0
    mv = _mv_hard(matrix)[covered]
    model = np.argmax(q, axis=1)[covered]
    table = np.bincount(model * K + mv, minlength=K * K).reshape(K, K)
    if (np.diagonal(table) == table.max(axis=1)).all():
        return tuple(range(K))  # every row's best entry: nothing scores more
    # imported here: loaded with this module, it raised aggregate's peak
    # RSS on a 40 000-row votes file by 0.2-1 MiB, as it shifts the heap
    # that load_votes leaves
    from .assignment import first_best_assignment
    return first_best_assignment(table)


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
    q, priors, confusion, trace = _em(matrix, m_step)
    perm = _align_permutation(q, matrix)
    priors, confusion = _apply_permutation(priors, confusion, perm)
    return _fit_result(matrix, DAWID_SKENE, priors, trace, confusion=confusion, permutation=perm)


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

    q, priors, confusion, trace = _em(matrix, m_step)
    accuracies = confusion[:, 0, 0].copy()
    # one-coin confusions are only closed under relabeling for K=2
    # (swap maps a to 1-a); for larger K the identity is the only
    # candidate that keeps the parametrization
    perm = _align_permutation(q, matrix) if K == 2 else tuple(range(K))
    if perm != tuple(range(K)):
        priors = priors[::-1].copy()
        accuracies = 1 - accuracies
        confusion = _one_coin(accuracies, K)
    return _fit_result(
        matrix, SNORKEL_LITE, priors, trace, confusion=confusion, accuracies=accuracies, permutation=perm
    )


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

    # the pairs (a, b), a < b, whose E[s_a s_b] may divide a moment; NaN
    # fails the test
    a, b = np.triu_indices(m, 1)
    usable = np.abs(pair_mean[a, b]) >= _MIN_DENOMINATOR
    a, b = a[usable], b[usable]
    # no NaN: every program votes somewhere, as _check_coverage refused the rest
    agree = matrix.agreement(_mv_hard(matrix))
    accuracies = np.empty(m)
    for j in range(m):
        keep = (a != j) & (b != j)
        moments = pair_mean[j, a[keep]] * pair_mean[j, b[keep]] / pair_mean[a[keep], b[keep]]
        # NaN where j meets a or b on too few rows
        moments = moments[~np.isnan(moments)]
        if not moments.size:
            raise ModelError(
                f"program {matrix.program_ids[j]!r}: every triplet was skipped "
                f"(fewer than {MIN_PAIRS} jointly covered rows, or degenerate "
                "pair agreements); cannot estimate its accuracy"
            )
        med = float(np.clip(np.median(moments), 0.0, 1.0))
        sign = 1.0 if agree[j] >= 0.5 else -1.0
        accuracies[j] = (1.0 + sign * math.sqrt(med)) / 2.0
    accuracies = np.clip(accuracies, *CLAMP)
    weights = np.log(accuracies / (1 - accuracies))
    return _fit_result(
        matrix, TRIPLET, np.array([0.5, 0.5]), (1, True, ()),
        confusion=_one_coin(accuracies, 2), accuracies=accuracies, weights=weights,
    )


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
