"""Property tests over random sizes.

Unranking then ranking is the identity, the engine's one- and two-sided
counts equal brute force over every word at sizes with q^n <= 4096, the
two-sided count equals the paper's programs at sizes past brute force, and
the packed field kernel's product equals gf.pmul / gf.pmod over random
moduli, reducible or not.

Examples are derandomized, so the suite gives the same result on every run.
"""

import pytest

from conftest import RefQuotient, all_words, brute_count_below
from necklaces import counting, engine, gf, indexing, programs
from necklaces.words import NkString, fundamental_period, max_rotation, min_rotation

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


@st.composite
def _small_size(draw):
    q = draw(st.integers(2, 7), label="q")
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    return draw(st.integers(1, n_max), label="n"), q


def _word(data, n, q, label):
    return NkString.from_int(n, q, data.draw(st.integers(0, q**n - 1), label=label))


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(_small_size(), st.data())
def test_engine_count_matches_brute_force(size, data):
    n, q = size
    x = _word(data, n, q, "x")
    assert engine.count_below(x.digits, q) == brute_count_below(x, dividing=True)


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(_small_size(), st.data())
def test_ceiling_count_matches_brute_force(size, data):
    n, q = size
    x, cap = _word(data, n, q, "x"), _word(data, n, q, "ceiling")
    want = sum(1 for y in all_words(n, q)
               if min_rotation(y)[0].digits < x.digits and max_rotation(y)[0].digits <= cap.digits)
    assert engine.count_below_with_ceiling(x.digits, cap.digits, q) == want


@pytest.mark.parametrize("n, q, examples", [(n, 2, 4) for n in range(1, 17)] + [(6, 4, 10), (4, 16, 10)])
def test_ceiling_count_matches_programs(n, q, examples):
    """Half the ceilings start with q - 1, as a generator-row search's do."""
    @hypothesis.settings(max_examples=examples, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.booleans(), st.data())
    def check(wide, data):
        x, cap = _word(data, n, q, "x"), _word(data, n, q, "ceiling")
        if wide:
            cap = NkString(n, q, (q - 1,) + cap.digits[1:])
        want = programs.count_rotation_within(x, cap)
        assert engine.count_below_with_ceiling(x.digits, cap.digits, q) == want

    check()


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(1, 4), st.integers(1, 4),
                  st.sampled_from([2, 3, 257, 65537, 2**61 - 1]), st.data())
def test_packed_product_matches_tuple_routines(n, e, p, data):
    def coordinates(label):
        return tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e),
                               label=label))

    def element(label):
        return tuple(gf.pstrip(gf._PrimeField(p), coordinates(label)) for _ in range(n))

    g = coordinates("g") + (1,)
    F = element("F") + ((1,),)
    x, y = element("x"), element("y")
    kernel, ref = gf._Packed(p, g, F), RefQuotient(p, g, F)
    assert kernel.unpack(kernel.mul(kernel.pack(x), kernel.pack(y))) == ref.product(x, y)
