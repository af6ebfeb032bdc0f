"""engine.count_below, the closed-walk count on the path ("chain") automaton
of the least prenecklace, against two independent references, and
engine.count_below_with_ceiling against brute force on every short pair.

The reference walk is the trie pair walk `engine._count_inside` under the
all-top ceiling, which excludes no word: it counts the words with no
rotation below the threshold by walking the substring trie of the threshold
itself and shares no code with count_below.  Brute force over every word
checks both at short sizes.
"""

import itertools
import random
from bisect import bisect_left

import pytest

from necklaces import engine
from necklaces.words import NkString, min_rotation


def reference_walk(digits, q):
    """The trie pair walk's count of words with a rotation below digits."""
    n = len(digits)
    return q**n - engine._count_inside(digits, (0,) * n, q)  # (0,) * n: the top, complemented


def _canonical(n, q, digits):
    return min_rotation(NkString(n, q, tuple(digits)))[0].digits


def _thresholds():
    rng = random.Random(12)
    out = []
    for n, q in ((40, 2), (24, 3), (16, 5), (20, 2**16), (12, 2**100)):
        for _ in range(16):
            digits = [rng.randrange(q) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (q - 1,) * n))  # all-top
        for p in (1, 2, 3, 4, 5):  # periodic
            block = [rng.randrange(q) for _ in range(p)]
            out.append((q, tuple(block * (n // p) + block[:n % p])))
    q = 2**20  # digits 0 and 1 only: long borders and long runs of resets
    for n in (8, 16, 24, 32):
        for _ in range(8):
            digits = [rng.randrange(2) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (0,) * (n - 1) + (1,)))
        out.append((q, (1,) * n))
    return out


THRESHOLDS = _thresholds()


def test_threshold_set_is_large_enough():
    assert len(set(THRESHOLDS)) >= 200


@pytest.mark.parametrize("q, digits", [
    pytest.param(q, digits, id=f"{i}-n{len(digits)}") for i, (q, digits) in enumerate(THRESHOLDS)])
def test_chain_matches_reference_walk(q, digits):
    assert engine.count_below(digits, q) == reference_walk(digits, q)


def test_count_below_matches_brute_force_on_every_short_word():
    """Every threshold of every size up to n = 10 at q = 2, 6 at q = 3, 4 at q = 4, 5."""
    for q, top in ((2, 10), (3, 6), (4, 4), (5, 4)):
        for n in range(1, top + 1):
            words = list(itertools.product(range(q), repeat=n))
            least = sorted(min((y + y)[s:s + n] for s in range(n)) for y in words)
            for x in words:
                assert engine.count_below(x, q) == bisect_left(least, x), (x, q)


def test_ceiling_count_matches_brute_force_on_every_pair():
    """Every (x, ceiling) pair up to n = 6 at q = 2, 4 at q = 3, 3 at q = 4, 2 at q = 5."""
    pairs = 0
    for q, top in ((2, 6), (3, 4), (4, 3), (5, 2)):
        for n in range(1, top + 1):
            words = list(itertools.product(range(q), repeat=n))
            rotations = ([(y + y)[s:s + n] for s in range(n)] for y in words)
            spans = [(min(r), max(r)) for r in rotations]
            for cap in words:
                least = sorted(lo for lo, hi in spans if hi <= cap)
                for x in words:
                    want = bisect_left(least, x)
                    assert engine.count_below_with_ceiling(x, cap, q) == want, (x, cap, q)
                    pairs += 1
    assert pairs == 17858
