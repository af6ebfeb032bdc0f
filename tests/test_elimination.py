"""engine._count_inside, the elimination over the event graph, at its widest
coefficients and against the substring-trie reference at sizes past
tests/test_walk.py's random pairs.

With x = 0^n and the complemented ceiling 0^n every word has every rotation
inside [x, ceiling], so the count is q^n, and the slots of the packed series
come near their bound (step 10 of the engine's module docstring).  A slot
ceil(log2(n + 1)) + 1 bits narrower than the engine's fails here at q = 3
and 5; at the powers of two the slots happen to stay inside it.
"""

import random

import pytest

from necklaces import engine
from necklaces.words import prenecklace_at_least
from test_walk import _random_pairs, trie_count_inside


@pytest.mark.parametrize("n, q", [(64, 2), (128, 2), (20, 2**16), (10, 2**26), (40, 3), (20, 5)])
def test_every_word_inside_counts_q_to_the_n(n, q):
    assert engine._count_inside((0,) * n, (0,) * n, 1, q) == q**n


@pytest.mark.parametrize("n, q", [(32, 2), (10, 2**26)])
def test_elimination_matches_trie_past_the_walk_sizes(n, q):
    pairs = _random_pairs(n, q, 80, random.Random(n * 1000 + q % 997))
    counts = [engine._count_inside(x, *prenecklace_at_least(flipped), q) for x, flipped in pairs]
    assert counts == [trie_count_inside(x, flipped, q) for x, flipped in pairs]
    assert sum(map(bool, counts)) >= 10  # not a sweep of empty intervals
