"""Independent references the benchmark checks labelsmith's outputs against.

Nothing here calls labelsmith's evaluator, label models or IO code. The
vote evaluator walks the parsed AST with the stdlib ``re`` module and
``str.casefold``, following docs/dsl.md. That is safe here because the
benchmark's patterns are fixed and none of them backtracks badly.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

ABSTAIN = -1


class Leaves:
    """Evaluates one record's predicate leaves, folding its text once."""

    def __init__(self, text: str):
        self.text = text
        self.folded = text.casefold()

    def holds(self, expr) -> bool:
        kind = type(expr).__name__
        if kind == "And":
            return all(self.holds(c) for c in expr.children)
        if kind == "Or":
            return any(self.holds(c) for c in expr.children)
        if kind == "Not":
            return not self.holds(expr.child)
        if kind == "Contains":
            return self._contains(expr.needle, expr.case_sensitive)
        if kind == "ContainsAny":
            return any(self._contains(n, expr.case_sensitive) for n in expr.needles)
        if kind == "Matches":
            return _pattern(expr.pattern).search(self.text) is not None
        if kind == "LengthAtLeast":
            return len(self.text) >= expr.n
        if kind == "UppercaseRatioAtLeast":
            letters = [ch for ch in self.text if ch.isalpha()]
            ratio = sum(ch.isupper() for ch in letters) / len(letters) if letters else 0.0
            return ratio >= expr.ratio
        raise ValueError(f"no reference for predicate {kind}")

    def _contains(self, needle: str, case_sensitive: bool) -> bool:
        if case_sensitive:
            return needle in self.text
        return needle.casefold() in self.folded


_PATTERNS: dict[str, re.Pattern] = {}


def _pattern(source: str) -> re.Pattern:
    if source not in _PATTERNS:
        _PATTERNS[source] = re.compile(source)
    return _PATTERNS[source]


def reference_votes(programs, texts) -> np.ndarray:
    """(n, m) first-match votes of parsed ``programs`` on ``texts``."""
    votes = np.full((len(texts), len(programs)), ABSTAIN, dtype=np.int64)
    for i, text in enumerate(texts):
        leaves = Leaves(text)
        for j, prog in enumerate(programs):
            vote = prog.default
            for rule in prog.rules:
                if leaves.holds(rule.guard):
                    vote = rule.target
                    break
            votes[i, j] = vote
    return votes


def compare_votes(doc: dict, expected: np.ndarray, program_ids, record_ids, timed_out=()) -> tuple[float, list[str]]:
    """Share of (record, program) votes in a votes.json document that equal
    the reference and did not run out of time, plus the problems found.
    ``timed_out`` holds (program id, record id) pairs whose evaluation
    blew its budget. Those must be ABSTAIN, which is what a blown budget
    produces; every other vote must equal the reference."""
    problems = []
    if doc.get("program_ids") != list(program_ids) or doc.get("record_ids") != list(record_ids):
        return 0.0, ["votes.json program or record ids differ from the inputs"]
    got = np.asarray(doc["votes"], dtype=np.int64)
    if got.shape != expected.shape:
        return 0.0, [f"votes.json has shape {got.shape}, expected {expected.shape}"]
    excused = np.zeros(got.shape, dtype=bool)
    column = {p: j for j, p in enumerate(program_ids)}
    row = {r: i for i, r in enumerate(record_ids)}
    for pid, rid in timed_out:
        if pid not in column or rid not in row:
            problems.append(f"a timeout names program {pid} on record {rid}, which the inputs lack")
        elif got[row[rid], column[pid]] != ABSTAIN:
            problems.append(f"program {pid} timed out on record {rid} but did not abstain")
        else:
            excused[row[rid], column[pid]] = True
    differ = got != expected
    unexplained = differ & ~excused
    if unexplained.any():
        i, j = map(int, np.argwhere(unexplained)[0])
        problems.append(
            f"{int(unexplained.sum())} vote(s) differ from the reference without a logged timeout, "
            f"first: record {record_ids[i]} program {program_ids[j]} "
            f"voted {got[i, j]}, expected {expected[i, j]}"
        )
    return 1.0 - float((differ | excused).mean()), problems


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reference_posteriors(params: dict, votes: np.ndarray) -> np.ndarray:
    """Posteriors under a confusion-matrix label model (Dawid-Skene and its
    one-coin variant): prior times the product of each non-abstaining
    program's confusion entry, normalized; rows with no vote are uniform."""
    priors = np.asarray(params["priors"], dtype=float)
    confusion = np.asarray(params["confusion"], dtype=float)
    n, m = votes.shape
    K = len(priors)
    log_post = np.tile(np.log(priors), (n, 1))
    for j in range(m):
        voted = votes[:, j] != ABSTAIN
        log_post[voted] += np.log(confusion[j][:, votes[voted, j]]).T
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=1, keepdims=True)
    post[~(votes != ABSTAIN).any(axis=1)] = 1.0 / K
    return post


def compare_pseudolabels(rows: list[dict], expected: np.ndarray, votes: np.ndarray, record_ids) -> list[str]:
    """Pseudolabel rows against reference posteriors: same records in order,
    posteriors within 1e-9, the argmax (smallest index on ties) as hard
    label wherever the top two posteriors are further apart than that, and
    ``covered`` true exactly where some program voted."""
    if [r.get("record_id") for r in rows] != list(record_ids):
        return ["pseudolabel record ids differ from the votes file"]
    got = np.asarray([r["posterior"] for r in rows], dtype=float)
    problems = []
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=0, atol=1e-9):
        problems.append("posteriors differ from the reference label model")
        return problems
    hard = np.asarray([r["hard"] for r in rows])
    top2 = np.sort(expected, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > 1e-9
    bad = clear & (hard != expected.argmax(axis=1))
    if bad.any():
        problems.append(f"{int(bad.sum())} hard label(s) are not the posterior argmax")
    covered = np.asarray([r["covered"] for r in rows], dtype=bool)
    if (covered != (votes != ABSTAIN).any(axis=1)).any():
        problems.append("covered flags differ from the votes")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path) -> list[str]:
    """Every file in a step's output directory is listed in its
    run_manifest.json with its sha256, and nothing else is listed."""
    manifest = out / "run_manifest.json"
    if not manifest.is_file():
        return [f"{out.name}: no run_manifest.json"]
    listed = json.loads(manifest.read_text(encoding="utf-8")).get("outputs", {})
    present = {
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p != manifest
    }
    problems = []
    if set(listed) != present:
        problems.append(f"{out.name}: manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for rel in sorted(set(listed) & present):
        if sha256(out / rel) != listed[rel]:
            problems.append(f"{out.name}: sha256 of {rel} differs from its manifest")
    return problems


def accuracy(pred, gold) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(gold)))


def worst_group_accuracy(pred, gold, groups) -> float:
    pred, gold, groups = np.asarray(pred), np.asarray(gold), np.asarray(groups)
    return min(accuracy(pred[groups == g], gold[groups == g]) for g in np.unique(groups))
