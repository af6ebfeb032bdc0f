import random

import pytest

from conftest import all_words, brute_min_rotation
from necklaces.errors import InvalidBlock
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
    is_witness,
    is_witness_prefix,
    max_rotation,
    min_rotation,
    orbit_below,
    parse_word,
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
    for n in range(1, 9):
        for x in all_words(n, 2):
            p = fundamental_period(x)
            assert n % p == 0
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


def test_witness_examples():
    x = BinWord((1, 0, 1))
    assert is_witness(BinWord((1, 0, 0)), x)
    assert is_witness(BinWord((0,)), x)
    assert not is_witness(BinWord((1, 0)), x)
    zeros = BinWord((0, 0, 0))
    for bits in ((0,), (0, 0), (0, 0, 0)):
        assert not is_witness(BinWord(bits), zeros)
    assert is_witness_prefix(BinWord((1,)), BinWord((1, 1)))


def test_witness_prefix_characterizes_lexicographic_order():
    # any word is strictly below x iff one of its prefixes is a witness
    for n in range(1, 10):
        for xv in range(2**n):
            x = NkString.from_int(n, 2, xv)
            xb = BinWord(x.digits)
            has_any = any(b == 1 for b in x.digits)
            assert is_witness_prefix(BinWord(()), xb) == has_any
            for zv in range(2**n):
                z = NkString.from_int(n, 2, zv)
                below = z.digits < x.digits
                witnessed = any(
                    is_witness(BinWord(z.digits[:m]), xb) for m in range(1, n + 1)
                )
                assert below == witnessed


def test_witness_implies_short_and_prefixes_close():
    x = BinWord((1, 0, 1, 1, 0, 1))
    members = [
        bits
        for m in range(1, 9)
        for bits in [tuple((v >> (m - 1 - i)) & 1 for i in range(m)) for v in range(2**m)]
        if is_witness(BinWord(bits), x)
    ]
    for bits in members:
        assert len(bits) <= 6
        for cut in range(len(bits) + 1):
            assert is_witness_prefix(BinWord(bits[:cut]), x)


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
