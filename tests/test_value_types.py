"""Contract of the immutable value types: repr, equality, hash, immutability, validation."""

import copy
import pickle

import pytest

from necklaces import bch, gf
from necklaces.indexing import RankResult
from necklaces.words import BinWord, NkString

ADVICE = "2 1\n4\n1 0 0 1 1\nfactors 3 5\n"


@pytest.fixture(scope="module")
def ctx():
    return gf.parse_advice(ADVICE)


def cases(ctx):
    """(class, field values, other field values, repr) for each value type."""
    word = NkString(2, 2, (0, 1))
    return [
        (NkString, (3, 2, (0, 1, 1)), (3, 2, (0, 1, 0)), "NkString(n=3, q=2, digits=(0, 1, 1))"),
        (BinWord, ((1, 0, 1, 1), 2), ((1, 0, 1, 1), 1), "BinWord(bits=(1, 0, 1, 1), block=2)"),
        (RankResult, (2, word), (3, word),
         "RankResult(rank=2, canonical=NkString(n=2, q=2, digits=(0, 1)))"),
        (bch.BchParams, (ctx, 5), (ctx, 6),
         "BchParams(ctx=FqnCtx(q=2, n=4, primitive=True), d=5)"),
        (bch.OrbitSet, (3, 4), (3, 2), "OrbitSet(m=3, size=4)"),
    ]


def test_repr(ctx):
    for cls, fields, _, text in cases(ctx):
        assert repr(cls(*fields)) == text


def test_equality_and_hash_over_the_fields(ctx):
    for cls, fields, other, _ in cases(ctx):
        a, b = cls(*fields), cls(*fields)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)
        assert a != cls(*other) and hash(cls(*other)) == hash(other)
        assert a != fields and fields != a
    assert NkString(2, 2, (0, 1)) != NkString(2, 3, (0, 1))
    assert bch.OrbitSet(1, 2) != RankResult(1, 2)


def test_digits_and_bits_become_tuples():
    word = NkString(3, 2, [0, 1, 1])
    assert word.digits == (0, 1, 1) and isinstance(word.digits, tuple)
    assert word == NkString(3, 2, (0, 1, 1))
    bits = BinWord([1, 0])
    assert bits.bits == (1, 0) and isinstance(bits.bits, tuple) and bits.block == 1
    assert NkString(n=2, q=3, digits=(2, 1)).digits == (2, 1)


def test_assignment_raises(ctx):
    for cls, fields, other, text in cases(ctx):
        value = cls(*fields)
        first = text.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(value, first, other[0])
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, first)
        assert cls(*fields) == value


def test_copy_and_pickle_round_trip(ctx):
    for cls, fields, _, _ in cases(ctx):
        value = cls(*fields)
        assert copy.copy(value) == value
        if cls is not bch.BchParams:  # a field context compares by identity
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("build, message", [
    (lambda ctx: NkString(0, 2, ()), "word length must be positive"),
    (lambda ctx: NkString(2, 1, (0, 0)), "alphabet size must be at least 2"),
    (lambda ctx: NkString(2, 2, (0,)), "digit count does not match stated length"),
    (lambda ctx: NkString(2, 2, (0, 2)), "digit 2 outside alphabet of size 2"),
    (lambda ctx: NkString(1, 2, (-1,)), "digit -1 outside alphabet of size 2"),
    (lambda ctx: BinWord((1,), 0), "block width must be positive"),
    (lambda ctx: BinWord((1, 0, 1), 2), "bit length must be a multiple of the block width"),
    (lambda ctx: BinWord((2,)), "bits must be 0 or 1"),
    (lambda ctx: bch.BchParams(ctx, 15), "designed-distance parameter out of range"),
    (lambda ctx: bch.BchParams(ctx, -1), "designed-distance parameter out of range"),
])
def test_constructor_validation(ctx, build, message):
    with pytest.raises(ValueError) as exc:
        build(ctx)
    assert str(exc.value) == message
