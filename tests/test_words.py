import bisect
import random

import hypothesis
import pytest
from hypothesis import strategies as st

from conftest import all_words, brute_min_rotation
from necklaces.errors import InvalidBlock
from necklaces.oracle import brute_orbits
from necklaces.words import (
    BinWord,
    NkString,
    bin_decode,
    bin_encode,
    bits_for,
    borders,
    complement,
    format_word,
    fundamental_period,
    max_rotation,
    min_rotation,
    next_prenecklace,
    orbit_below,
    parse_word,
    prenecklace_at_least,
    rotate,
)


def w(text, q=2):
    return parse_word(text, q)


def test_rotate_examples():
    assert rotate(w("0011"), 1).digits == (1, 0, 0, 1)
    x = w("0110")
    assert rotate(x, 0) is x
    assert rotate(w("012", q=3), 2).digits == (1, 2, 0)


def test_rotate_wraps_and_rejects_negative():
    x = w("0110")
    assert rotate(x, 4).digits == x.digits
    assert rotate(x, 7).digits == rotate(x, 3).digits
    with pytest.raises(ValueError):
        rotate(x, -1)


def test_fundamental_period_examples():
    assert fundamental_period(w("0101")) == 2
    assert fundamental_period(w("0001")) == 4
    assert fundamental_period(w("000")) == 1


def test_period_divides_length_and_counts_rotations():
    for q, max_n in ((2, 8), (3, 6)):
        for n in range(1, max_n + 1):
            for x in all_words(n, q):
                p = fundamental_period(x)
                assert n % p == 0
                assert p == min(d for d in range(1, n + 1)
                                if n % d == 0 and x.digits == x.digits[:d] * (n // d))
                assert len({rotate(x, i).digits for i in range(n)}) == p


def test_min_rotation_examples():
    word, shift = min_rotation(w("110"))
    assert word.digits == (0, 1, 1) and shift == 1
    assert min_rotation(w("000")) == (w("000"), 0)
    assert min_rotation(w("0101")) == (w("0101"), 0)


def test_min_rotation_matches_brute_force():
    for n in range(1, 11):
        for x in all_words(n, 2):
            word, shift = min_rotation(x)
            assert word.digits == brute_min_rotation(x)
            assert rotate(x, shift).digits == word.digits
            assert 0 <= shift < fundamental_period(x)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 9)
        q = rng.choice([3, 4, 7, 100])
        x = NkString.from_int(n, q, rng.randrange(q**n))
        word, shift = min_rotation(x)
        assert word.digits == brute_min_rotation(x)
        assert rotate(x, shift).digits == word.digits


@st.composite
def _repeated_blocks(draw):
    """A random block repeated and then rotated: n <= 256, q <= 2^64, many periods and ties."""
    q = draw(st.one_of(st.integers(2, 4), st.integers(2, 2**64)))
    span = min(q, draw(st.sampled_from([2, 3, 2**64])))
    low = draw(st.integers(0, q - span))
    size = draw(st.integers(1, 256))
    block = tuple(draw(st.lists(st.integers(low, low + span - 1), min_size=size, max_size=size)))
    n = size * draw(st.integers(1, 256 // size))
    return rotate(NkString(n, q, block * (n // size)), draw(st.integers(0, n - 1)))


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(_repeated_blocks())
def test_min_rotation_of_repeated_blocks_matches_brute_force(x):
    word, shift = min_rotation(x)
    assert word.digits == brute_min_rotation(x)
    assert rotate(x, shift) == word
    assert 0 <= shift < fundamental_period(x)


def test_canonical_form_is_rotation_invariant():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(1, 10)
        x = NkString.from_int(n, 2, rng.randrange(2**n))
        base = min_rotation(x)[0]
        for i in range(n):
            assert min_rotation(rotate(x, i))[0] == base


def test_max_rotation():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 9)
        q = rng.choice([2, 3, 5])
        x = NkString.from_int(n, q, rng.randrange(q**n))
        word, shift = max_rotation(x)
        doubled = x.digits + x.digits
        assert word.digits == max(doubled[s:s + n] for s in range(n))
        assert rotate(x, shift).digits == word.digits


def test_bin_encode_examples():
    enc = bin_encode(w("21", q=3))
    assert enc.bits == (1, 0, 0, 1) and enc.block == 2
    enc = bin_encode(w("0110"))
    assert enc.bits == (0, 1, 1, 0) and enc.block == 1
    enc = bin_encode(w("402", q=5))
    assert enc.bits == (1, 0, 0, 0, 0, 0, 0, 1, 0) and enc.block == 3


def test_bin_round_trip_and_invalid_block():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(1, 7)
        q = rng.choice([2, 3, 5, 9, 1000003])
        x = NkString.from_int(n, q, rng.randrange(q**n))
        assert bin_decode(bin_encode(x), q) == x
    with pytest.raises(InvalidBlock):
        bin_decode(BinWord((1, 1), 2), 3)  # block value 3 >= q


def test_bin_encode_preserves_order():
    for q in (3, 5, 6):
        for n in (1, 2, 3):
            words = all_words(n, q)
            encoded = [bin_encode(x).bits for x in words]
            for a in range(len(words)):
                for b in range(len(words)):
                    assert (words[a].digits < words[b].digits) == (
                        encoded[a] < encoded[b]
                    )


def test_orbit_below_examples():
    assert orbit_below(w("10"), w("10"))
    assert not orbit_below(w("11"), w("10"))
    assert orbit_below(w("000"), w("001"))
    with pytest.raises(ValueError):
        orbit_below(w("10"), w("100"))


def test_text_forms():
    assert format_word(w("0120", q=3)) == "0120"
    big = NkString(3, 300, (17, 0, 255))
    assert format_word(big) == "17,0,255"
    assert parse_word("17,0,255", 300) == big
    with pytest.raises(ValueError):
        parse_word("31", 3)  # digit 3 outside the alphabet
    with pytest.raises(ValueError):
        parse_word("", 5)


def test_nkstring_validation():
    with pytest.raises(ValueError):
        NkString(2, 2, (0, 2))
    with pytest.raises(ValueError):
        NkString(0, 2, ())
    with pytest.raises(ValueError):
        NkString(2, 1, (0, 0))
    assert NkString.from_int(3, 5, 31).digits == (1, 1, 1)
    assert NkString(3, 5, (1, 1, 1)).to_int() == 31


def test_bits_for():
    assert [bits_for(q) for q in (2, 3, 4, 5, 8, 9, 1 << 61)] == [1, 2, 2, 3, 3, 4, 61]


def test_complement_reverses_order():
    a, b = w("0110"), w("1001")
    assert complement(a).digits == b.digits
    assert (a.digits < b.digits) == (complement(a).digits > complement(b).digits)


def test_borders_match_brute_force():
    assert borders((0, 1, 0, 0, 1, 0, 1)) == [0, 0, 0, 1, 1, 2, 3, 2]
    assert borders(()) == [0]
    rng = random.Random(8)
    for _ in range(200):
        s = tuple(rng.randrange(rng.choice((2, 3, 2**40))) for _ in range(rng.randint(1, 14)))
        want = [0] + [max(k for k in range(i) if s[:k] == s[i - k:i]) for i in range(1, len(s) + 1)]
        assert borders(s) == want, s


FKM_SIZES = [(6, 2), (8, 2), (4, 3), (3, 4), (3, 5)]


@pytest.mark.parametrize("n, q", FKM_SIZES)
def test_prenecklace_at_least_matches_brute_force(n, q):
    # A prenecklace is a prefix of a necklace; one with period p is a prefix
    # of its periodic extension to length p*ceil(n/p) < 2n, so the prefixes
    # of the necklaces of lengths n..2n-1 are all of them.
    # Its period is the length of its longest Lyndon prefix, and its least
    # period, which engine.count_below relies on.
    pre = sorted({rep.digits[:n] for m in range(n, 2 * n) for rep, _ in brute_orbits(m, q)})
    for word in all_words(n, q):
        least = pre[bisect.bisect_left(pre, word.digits)]
        a, period = prenecklace_at_least(word.digits)
        assert tuple(a) == least, word
        assert period == max(p for p in range(1, n + 1) if _is_lyndon(least[:p])), word
        assert period == min(p for p in range(1, n + 1)
                             if all(least[i] == least[i - p] for i in range(p, n))), word


def _is_lyndon(s):
    return all(s < s[i:] + s[:i] for i in range(1, len(s)))


@pytest.mark.parametrize("n, q", FKM_SIZES)
def test_next_prenecklace_lists_every_orbit_in_order(n, q):
    orbits = brute_orbits(n, q)
    a, p = prenecklace_at_least((0,) * n)
    necklaces, lyndon = [], []
    while p:
        if n % p == 0:
            necklaces.append(tuple(a))
            if p == n:
                lyndon.append(tuple(a))
        p = next_prenecklace(a, q)
    assert a == [q - 1] * n
    assert necklaces == [rep.digits for rep, _ in orbits]
    assert lyndon == [rep.digits for rep, size in orbits if size == n]
