import numpy as np
import pytest
from helpers import class_space

from labelsmith.data import ClassSpace, VoteMatrix


@pytest.fixture
def spam_cs():
    return ClassSpace(("spam", "ham"))


@pytest.fixture
def k3_cs():
    return ClassSpace(("red", "green", "blue"))


@pytest.fixture
def mk_matrix():
    """A VoteMatrix of ``votes`` over K classes, programs p0.., records r0.."""

    def _mk(votes, K=2, gold=None):
        votes = np.asarray(votes, dtype=np.int64)
        n, m = votes.shape
        return VoteMatrix(
            votes=votes,
            program_ids=tuple(f"p{j}" for j in range(m)),
            record_ids=tuple(f"r{i}" for i in range(n)),
            classes=class_space(K),
            gold=gold,
        )

    return _mk
