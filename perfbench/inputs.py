"""Seeded input generators for the three workloads.

Each generator writes everything a workload's command chain reads into one
directory and returns what the output checks need. The same seed gives
byte-identical files. The program under test only ever sees these files.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PROGRAMS = HERE / "programs"

# --- sms-walkthrough: the README walkthrough's corpus, programs and mock ---


def make_sms(out: Path, seed: int, n: int) -> dict:
    """``make_spam_corpus(n, seed)`` as corpus.jsonl, plus the walkthrough's
    ten programs and mock responses copied next to it."""
    from labelsmith.data import serialize_records
    from labelsmith.synth import make_spam_corpus

    records, _ = make_spam_corpus(n, seed=seed)
    serialize_records(records, out / "corpus.jsonl")
    shutil.copytree(PROGRAMS / "sms", out / "programs")
    shutil.copy(PROGRAMS / "sms_mock.json", out / "mock.json")
    return {}


# --- review-long: review-length texts under the imdb pack ---------------

_FILLER = (
    "The story follows a family through one long winter in a small northern town.",
    "Most of the film takes place in a kitchen, a bus station and a hospital corridor.",
    "The director lets every scene run a little longer than you expect.",
    "There is a subplot about a missing letter that the script returns to twice.",
    "The second act moves the action to the coast and introduces a new cast of neighbours.",
    "The soundtrack leans on strings and a single recurring piano figure.",
    "Several scenes were shot at night with only the light of passing cars.",
    "The older brother works at the harbour and says very little.",
    "A title card at the start explains when and where the events happened.",
    "The runtime is a little over two hours including the credits.",
    "The camera mostly stays at eye level and rarely cuts away.",
    "Some of the dialogue is in a regional dialect with subtitles.",
    "The final third is told from the point of view of the youngest daughter.",
    "The production design recreates the period down to the wallpaper.",
    "I watched it on a weeknight with two friends who had read the novel.",
    "The trailer suggests a thriller but the film is closer to a family drama.",
)
_CUES = (
    (  # positive
        "The acting was wonderful from the whole cast.",
        "I loved it from start to finish.",
        "It is a quiet masterpiece of a film.",
        "The final scene is stunning and earned.",
        "The photography is beautifully composed throughout.",
    ),
    (  # negative
        "It was boring and far too long.",
        "What a waste of two hours.",
        "The dialogue was terrible in almost every scene.",
        "The pacing is awful and the ending makes no sense.",
        "Everything about the middle hour is dull.",
    ),
)
_SPACED = (
    ("g r e a t", "l o v e d", "b r i l l i a n t", "s u p e r b", "m o v i n g"),
    ("a w f u l", "b o r i n g", "w a s t e", "t e r r i b l e", "d r e a d f u l"),
)
_PHRASES = (
    ("I would highly recommend it.", "I strongly recommend seeing it in a theatre."),
    ("Half the audience walked out.", "I fell asleep before the end.", "I want my money back."),
)
_VERDICTS = (
    ("Overall I would recommend it.", "It is worth your time."),
    ("Skip this one.", "Avoid it if you can."),
)


def _review_text(rng: np.random.Generator, gold: int, length: int) -> str:
    def pick(pools, correct_p):
        cls = gold if rng.random() < correct_p else 1 - gold
        pool = pools[cls]
        return pool[int(rng.integers(len(pool)))]

    cues = [pick(_CUES, 0.92) for _ in range(int(rng.integers(2, 5)))]
    if rng.random() < 0.4:
        cues.append(pick(_PHRASES, 0.9))
    if rng.random() < 0.45:
        cues.append(f"It was {pick(_SPACED, 0.9)}.")
    if length >= 4000 and rng.random() < 0.9:
        cues.append(pick(_VERDICTS, 0.9))
    body = []
    size = sum(len(s) + 1 for s in cues)
    while size < length:
        sentence = _FILLER[int(rng.integers(len(_FILLER)))]
        body.append(sentence)
        size += len(sentence) + 1
    # the verdict closes the review, so a regex scans nearly the whole text
    # whether or not it matches, and the work depends on length alone
    body += [cues[i] for i in rng.permutation(len(cues))]
    text = " ".join(body)
    if rng.random() < 0.5:
        if rng.random() < 0.9:
            score = int(rng.integers(6, 11)) if gold == 0 else int(rng.integers(1, 5))
        else:
            score = 5
        text += f" Rating: {score}/10"
    if rng.random() < (0.4 if gold == 1 else 0.1):
        text = text.upper()
    return text


def make_review(out: Path, seed: int, n: int, long_fraction: float = 0.3) -> dict:
    """``n`` reviews: a ``long_fraction`` share of 4-12k characters, the
    rest 0.5-1.5k, half of each gold class, group "long"/"short"; plus the
    fixed review programs. The lengths are evenly spaced over their ranges
    and only their order is random, so every seed has as many characters
    to scan."""
    rng = np.random.default_rng([seed, 1])
    n_long = round(n * long_fraction)
    lengths = np.concatenate(
        [np.linspace(4000, 12000, n_long), np.linspace(500, 1500, n - n_long)]
    ).round().astype(int)
    order = rng.permutation(n)
    gold = rng.permutation(np.arange(n) % 2)
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i, k in enumerate(order):
            row = {
                "id": f"r{i:05d}",
                "text": _review_text(rng, int(gold[i]), int(lengths[k])),
                "gold": int(gold[i]),
                "group": "long" if k < n_long else "short",
            }
            fh.write(json.dumps(row) + "\n")
    shutil.copytree(PROGRAMS / "review", out / "programs")
    return {}


# --- vote-matrix: a Dawid-Skene sample written as votes.json ------------

VOTE_CLASSES = ("a", "b", "c")
VOTE_PRIORS = (0.5, 0.3, 0.2)


def make_votes(out: Path, seed: int, n: int, m: int = 20) -> dict:
    """Votes drawn from the Dawid-Skene model: class priors 0.5/0.3/0.2,
    per-program class-conditional accuracies in 0.55-0.9 with errors
    uniform over the wrong classes, and coverage in 0.2-0.6. Rows in the
    "sparse" group (a fifth) are covered at half the rate. Returns the
    generating accuracies P(vote correct | vote) per program."""
    rng = np.random.default_rng([seed, 2])
    K = len(VOTE_CLASSES)
    priors = np.array(VOTE_PRIORS)
    # evenly spaced parameters in random order, so that EM has the same
    # amount of work whatever the seed
    base = rng.permutation(np.linspace(0.6, 0.85, m))
    tilt = 0.05 * ((np.arange(m)[:, None] + np.arange(K)[None, :]) % 3 - 1)
    acc = np.clip(base[:, None] + tilt, 0.55, 0.9)
    coverage = rng.permutation(np.linspace(0.2, 0.6, m))
    gold = rng.choice(K, size=n, p=priors)
    sparse = rng.permutation(np.arange(n) < n // 5)
    rate = np.where(sparse, 0.5, 1.0)[:, None] * coverage[None, :]
    votes_on = rng.random((n, m)) < rate
    correct = rng.random((n, m)) < acc[np.arange(m)[None, :], gold[:, None]]
    wrong = (gold[:, None] + rng.integers(1, K, size=(n, m))) % K
    votes = np.where(votes_on, np.where(correct, gold[:, None], wrong), -1)
    doc = {
        "classes": list(VOTE_CLASSES),
        "gold": gold.tolist(),
        "group": np.where(sparse, "sparse", "dense").tolist(),
        "program_ids": [f"p{j:02d}" for j in range(m)],
        "record_ids": [f"v{i:06d}" for i in range(n)],
        "task": None,
        "votes": votes.tolist(),
    }
    (out / "votes.json").write_text(json.dumps(doc), encoding="utf-8")
    return {"accuracy": (acc @ priors).tolist()}
