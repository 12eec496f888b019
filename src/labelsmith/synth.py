"""Seeded synthetic spam corpus for offline end-to-end runs.

Every message is assembled from fixed word pools, so keyword rules have
knowable coverage and accuracy. Gold labels always ship with the records;
the "adversarial" group obfuscates spam keywords and plants decoy words
in ham, which is what gives diagnostics a worst-group gap to find.
"""

from __future__ import annotations

import numpy as np

from .data import ClassSpace, Record

CLASSES = ("spam", "ham")

_SPAM_POOLS = (
    ("winner", "jackpot", "prize"),
    ("free", "bonus"),
    ("click", "subscribe", "link"),
    ("cash", "loan", "credit"),
    ("urgent", "limited", "act now"),
)

_SPAM_FILLER = (
    "you have been selected",
    "reply to this message",
    "your account needs verification",
    "dont miss this chance",
    "exclusive deal for you",
    "text stop to opt out",
    "call the number below",
    "congratulations",
)

_HAM_FILLER = (
    "are we still on for the meeting",
    "see you at lunch",
    "the project notes are attached",
    "how was your weekend",
    "the family photos turned out great",
    "dinner at eight works for me",
    "the weather looks good for the trip",
    "thanks for the coffee",
    "the movie starts at nine",
    "can you send the notes",
)

_GREETINGS = ("hey", "hello", "hi")

# share of records whose spam words are spaced out and whose ham carries
# decoys and stray promotional words
ADVERSARIAL_FRACTION = 0.2

_DECOY = "offer"
_RARE_MARKER = "jackpot bonanza"


def _obfuscate(word: str) -> str:
    return " ".join(word)


def make_spam_corpus(n: int = 2000, seed: int = 7) -> tuple[list[Record], ClassSpace]:
    """Balanced two-class corpus with gold labels and group ids; about
    ``ADVERSARIAL_FRACTION`` of the records are in the adversarial group."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        gold = int(i % 2)
        adversarial = bool(rng.random() < ADVERSARIAL_FRACTION)
        group = "adversarial" if adversarial else "standard"
        parts = []
        if rng.random() < 0.5:
            parts.append(str(rng.choice(_GREETINGS)))
        if gold == 0:
            parts.extend(rng.choice(_SPAM_FILLER, size=rng.integers(2, 4), replace=False))
            pools = rng.choice(len(_SPAM_POOLS), size=rng.integers(2, 4), replace=False)
            for p in pools:
                word = str(rng.choice(_SPAM_POOLS[p]))
                if adversarial and rng.random() < 0.7:
                    word = _obfuscate(word)
                parts.append(word)
            if rng.random() < 0.4:
                parts.append(_DECOY)
            if rng.random() < 0.02:
                parts.append(_RARE_MARKER)
            # topical bleed-through so ham-keyword rules are not perfect
            if rng.random() < 0.15:
                parts.append(str(rng.choice(_HAM_FILLER)))
        else:
            parts.extend(rng.choice(_HAM_FILLER, size=rng.integers(2, 5), replace=False))
            decoy_p = 0.3 if adversarial else 0.05
            if rng.random() < decoy_p:
                parts.append(f"a job {_DECOY} came in")
            # stray promotional words so spam-keyword rules are not perfect
            stray_p = 0.25 if adversarial else 0.08
            if rng.random() < stray_p:
                pool = _SPAM_POOLS[int(rng.integers(len(_SPAM_POOLS)))]
                parts.append(str(rng.choice(pool)))
        order = rng.permutation(len(parts))
        text = " ".join(parts[j] for j in order) + "."
        records.append(
            Record(id=f"s{i:05d}", text=text, gold=gold, group=group)
        )
    return records, ClassSpace(names=CLASSES)
