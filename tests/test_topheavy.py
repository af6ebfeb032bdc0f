import random
from fractions import Fraction

import pytest

from necklaces import counting, topheavy
from necklaces.errors import ConstantString, NotBinary, NotPrime
from necklaces.words import NkString, parse_word, rotate


def w(text):
    return parse_word(text, 2)


def test_is_top_heavy_examples():
    assert topheavy.is_top_heavy(w("110"))
    assert not topheavy.is_top_heavy(w("101"))
    assert topheavy.is_top_heavy(w("000"))
    assert topheavy.is_top_heavy(w("111"))
    assert topheavy.is_top_heavy(w("10"))
    assert not topheavy.is_top_heavy(w("01"))
    with pytest.raises(NotBinary):
        topheavy.is_top_heavy(NkString(2, 3, (1, 2)))


def test_rotation_examples():
    x = w("101")
    i = topheavy.top_heavy_rotation(x)
    assert rotate(x, i).digits == (1, 1, 0)
    x = w("001")
    assert rotate(x, topheavy.top_heavy_rotation(x)).digits == (1, 0, 0)
    x = w("01")
    assert rotate(x, topheavy.top_heavy_rotation(x)).digits == (1, 0)


def test_rotation_errors():
    with pytest.raises(NotPrime):
        topheavy.top_heavy_rotation(w("0110"))
    with pytest.raises(ConstantString):
        topheavy.top_heavy_rotation(w("000"))
    with pytest.raises(ConstantString):
        topheavy.top_heavy_rotation(w("11111"))
    with pytest.raises(NotPrime):
        topheavy.count_top_heavy(6)
    for n in (0, 1):
        with pytest.raises(NotPrime):
            topheavy.count_top_heavy(n)
    with pytest.raises(NotPrime):
        topheavy.top_heavy_rotation(w("1"))


def test_unique_top_heavy_rotation_exhaustive():
    for n in (2, 3, 5, 7, 11, 13):
        for v in range(2**n):
            x = NkString.from_int(n, 2, v)
            if sum(x.digits) in (0, n):
                continue
            hits = [i for i in range(n) if topheavy.is_top_heavy(rotate(x, i))]
            assert len(hits) == 1, (n, v)
            assert hits[0] == topheavy.top_heavy_rotation(x)


def test_count_examples_and_necklace_equality():
    assert topheavy.count_top_heavy(2) == 3
    assert topheavy.count_top_heavy(3) == 4
    assert topheavy.count_top_heavy(5) == 8
    for n in (2, 3, 5, 7, 11, 13):
        exhaustive = sum(
            1
            for v in range(2**n)
            if topheavy.is_top_heavy(NkString.from_int(n, 2, v))
        )
        assert topheavy.count_top_heavy(n) == exhaustive
    # every prime below 128, the cli bench's 53..73 included
    for p in (p for p in range(2, 128) if len(counting.divisors(p)) == 2):
        assert topheavy.count_top_heavy(p) == counting.count_necklaces(p, 2), p


def test_walk_translation_identity():
    # f(rotation starting at index j, l) = f(x, j+l) - f(x, j-1) in exact rationals
    def f(x, j):
        mean = Fraction(sum(x.digits), x.n)
        return sum(Fraction(x.digits[k % x.n]) - mean for k in range(j + 1))

    rng = random.Random(61)
    for _ in range(200):
        n = rng.choice([3, 5, 7, 11])
        x = NkString.from_int(n, 2, rng.randrange(2**n))
        j = rng.randrange(1, n)
        ell = rng.randrange(3 * n)
        start_at_j = rotate(x, (n - j) % n)
        assert f(start_at_j, ell) == f(x, j + ell) - f(x, j - 1)
