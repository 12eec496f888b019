"""Concept scores for non-text records, and spurious-direction removal.

When records are images (or anything with an embedding), programs can't
read text. Instead we embed short concept descriptions in the same
space, score each record against each concept with shifted cosine
similarity, and let programs threshold those scores. If a concept is
known to be spurious (say, image background), its direction is
projected out of every record embedding first.
"""

import numpy as np

from labelsmith.concepts import (
    EmbeddingTable,
    records_from_scores,
    reject_spurious,
    scores_from_embeddings,
)
from labelsmith.data import ClassSpace
from labelsmith.dsl import parse_program
from labelsmith.records import assemble_votes

rng = np.random.default_rng(5)
d = 32

# toy embedding geometry: one axis means "webbed feet", another means
# "water background"; waterbirds load on both, landbirds on neither,
# and a confounding landbird-on-water group loads only on background
feet = np.zeros(d); feet[0] = 1.0
background = np.zeros(d); background[1] = 1.0
perching = np.zeros(d); perching[2] = 1.0

def embed(feet_w, bg_w, perch_w, n):
    base = np.outer(np.ones(n), feet_w * feet + bg_w * background + perch_w * perching)
    return base + rng.normal(scale=0.05, size=(n, d))

records = np.vstack([
    embed(1.0, 1.0, 0.0, 40),   # waterbird on water
    embed(0.0, 0.0, 1.0, 40),   # landbird on land
    embed(0.0, 1.0, 1.0, 20),   # landbird photographed on water
])
ids = tuple(f"img{i:03d}" for i in range(100))

table = EmbeddingTable(
    records=records,
    concepts=np.vstack([feet, perching, background]),
    concept_names=("has webbed feet", "perching foot shape", "water background"),
    record_ids=ids,
)

scores = scores_from_embeddings(table)
print("raw scores (record 0 is a waterbird, record 99 a landbird on water):")
for i in (0, 99):
    row = ", ".join(f"{name}={scores[i, c]:.2f}" for c, name in enumerate(table.concept_names))
    print(f"  {ids[i]}: {row}")

# a background threshold would label every on-water landbird wrong;
# removing the background direction kills that shortcut
cleaned = reject_spurious(table, ["water background"])
cleaned_scores = scores_from_embeddings(cleaned)
print("\nafter rejecting the background direction:")
for i in (0, 99):
    row = ", ".join(
        f"{name}={cleaned_scores[i, c]:.2f}" for c, name in enumerate(table.concept_names)
    )
    print(f"  {ids[i]}: {row}")

# score records feed straight into the rule language
birds = ClassSpace(("landbird", "waterbird"))
program = parse_program(
    'rule: score("has webbed feet") >= 0.6 -> waterbird;\n'
    'rule: score("perching foot shape") >= 0.6 -> landbird;\n'
    "default -> ABSTAIN;",
    birds,
    program_id="foot_type",
)
score_records = records_from_scores(cleaned, cleaned_scores)
votes = assemble_votes(score_records, [program], birds).votes[:, 0].tolist()
truth = [1] * 40 + [0] * 60
agree = np.mean([v == t for v, t in zip(votes, truth) if v != -1])
print(f"\nfoot-type program on cleaned scores: {agree:.2%} of covered records correct")
print(f"on-water landbirds voted landbird: {sum(votes[i] == 0 for i in range(80, 100))}/20")
