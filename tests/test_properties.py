"""Property tests over random sizes: unranking then ranking is the identity.

Examples are derandomized, so the suite gives the same result on every run.
"""

import pytest

from necklaces import counting, indexing
from necklaces.words import fundamental_period, min_rotation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.sampled_from(["lyndon", "necklace"]), st.integers(1, 12),
                  st.integers(2, 2**40), st.data())
def test_unrank_then_rank_is_identity(kind, n, q, data):
    lyndon = kind == "lyndon"
    unrank = indexing.index_lyndon if lyndon else indexing.index_necklace
    total = counting.orbits_in_closed_form(n, q, lyndon)
    j = data.draw(st.integers(1, total), label="j")
    word = unrank(n, q, j)
    assert min_rotation(word)[0] == word
    if lyndon:
        assert fundamental_period(word) == n
        assert indexing.reverse_index_lyndon(word).rank == j
    else:
        assert indexing.reverse_index_necklace(word).rank == j
