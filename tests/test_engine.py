"""Golden values for engine.count_below and count_below_with_ceiling.

The thresholds are rebuilt from a fixed seed by `golden_thresholds`.  The
expected counts were computed once with the forward-propagation engine that
pushed every resolved wraparound state through the DP layer by layer (the
engine before resolved states were charged from a backward table), by calling
`engine.count_below(digits, q)` on each threshold below.  Counts can run to
thousands of digits, so each is pinned modulo the Mersenne prime 2^127 - 1;
a count below that prime is pinned exactly.

The two-sided counts in `CEILING_GOLDEN` were computed the same way with the
engine that still carried both sides' states through every layer (the
engine before the forward pass became a walk over the threshold's substring
trie), by calling `engine.count_below_with_ceiling(digits, ceiling, q)` on
each pair from `ceiling_pairs`.  The pairs at alphabets with at most 70000
words were also checked against a brute-force count over all words.
"""

import random

import pytest

from necklaces import engine
from necklaces.words import NkString, max_rotation, min_rotation

PIN = 2**127 - 1


def _canonical(digits, q):
    return min_rotation(NkString(len(digits), q, tuple(digits)))[0].digits


def _q_label(q):
    e = q.bit_length() - 1
    return f"2^{e}" if q == 2**e and e > 4 else str(q)


def golden_thresholds():
    """(label, digits, q) for every pinned threshold, in a fixed order."""
    rng = random.Random(1504)

    def word(n, q, alphabet=None):
        top = q if alphabet is None else alphabet
        return [rng.randrange(top) for _ in range(n)]

    out = [
        ("n1-q2", (1,), 2),
        ("n1-q2^100", (rng.randrange(1, 2**100),), 2**100),
        ("top-n8-q3", (2,) * 8, 3),
        ("top-n64-q2", (1,) * 64, 2),
        ("top-n128-q2^100", (2**100 - 1,) * 128, 2**100),
    ]
    for n, q in ((12, 2), (16, 3), (20, 2**100), (24, 2**64), (32, 2), (56, 2**16),
                 (64, 2), (80, 2), (128, 2), (96, 2**100)):
        out.append((f"canonical-n{n}-q{_q_label(q)}", _canonical(word(n, q), q), q))
    # Canonical thresholds over two symbols of a large alphabet: long borders
    # and many open comparisons, with pieces of very different sizes.
    for n, q in ((48, 2**20), (128, 2**100)):
        out.append((f"canonical-01-n{n}-q{_q_label(q)}", _canonical(word(n, q, 2), q), q))
    # A periodic canonical threshold: a canonical block repeated.
    block = _canonical(word(8, 2), 2)
    out.append(("periodic-n32-q2", block * 4, 2))
    for n, q in ((12, 2), (40, 5), (96, 3), (100, 2**100), (128, 2)):
        out.append((f"raw-n{n}-q{_q_label(q)}", tuple(word(n, q)), q))
    return out


GOLDEN = {
    'n1-q2': 1,
    'n1-q2^100': 666655948125969673788388421179,
    'top-n8-q3': 6560,
    'top-n64-q2': 18446744073709551615,
    'top-n128-q2^100': 1267650600228229401496703205375,
    'canonical-n12-q2': 2417,
    'canonical-n16-q3': 13980049,
    'canonical-n20-q2^100': 29875554640313361990357394043472250891,
    'canonical-n24-q2^64': 110608947067747179281264123494278782456,
    'canonical-n32-q2': 1336564073,
    'canonical-n56-q2^16': 160168075804550639168493049277113892743,
    'canonical-n64-q2': 8691484374416103441,
    'canonical-n80-q2': 786335048351012511624735,
    'canonical-n128-q2': 117992163137717750621466612509983874346,
    'canonical-n96-q2^100': 118810024531946502998719740812037388316,
    'canonical-01-n48-q2^20': 22626923459859626804110376206957699333,
    'canonical-01-n128-q2^100': 129022305150715910018875392006593745015,
    'periodic-n32-q2': 4229518885,
    'raw-n12-q2': 2597,
    'raw-n40-q5': 9094947017729281279638762849,
    'raw-n96-q3': 163432954352613089314065563123418143639,
    'raw-n100-q2^100': 118420449272558776385197486099349523535,
    'raw-n128-q2': 170133682294650159489828809994487971838,
}


@pytest.mark.parametrize(
    "label,digits,q", [pytest.param(*t, id=t[0]) for t in golden_thresholds()]
)
def test_count_below_golden(label, digits, q):
    assert engine.count_below(digits, q) % PIN == GOLDEN[label]


def ceiling_pairs():
    """(label, digits, ceiling, q) for every pinned two-sided count.

    Random pairs draw the ceiling from [q^n - q^(n-1), q^n - 2], the range of
    BCH designed distances the generator-row search sees.
    """
    rng = random.Random(2014)
    out = []
    for n, q in ((3, 2**16), (6, 4), (20, 2), (32, 2)):
        for i in range(4):
            x = NkString.from_int(n, q, rng.randrange(q**n)).digits
            cap = NkString.from_int(n, q, rng.randint(q**n - q**(n - 1), q**n - 2)).digits
            out.append((f"random{i}-n{n}-q{_q_label(q)}", x, cap, q))
    # Canonical thresholds under max-rotation ceilings: those of random words
    # and the threshold's own greatest rotation.
    for n, q in ((3, 2**16), (6, 4), (20, 2), (32, 2), (24, 3)):
        for i in range(2):
            x = _canonical([rng.randrange(q) for _ in range(n)], q)
            cap = max_rotation(NkString(n, q, tuple(rng.randrange(q) for _ in range(n))))[0].digits
            out.append((f"canonical{i}-n{n}-q{_q_label(q)}", x, cap, q))
        own = max_rotation(NkString(n, q, x))[0].digits
        out.append((f"canonical-own-n{n}-q{_q_label(q)}", x, own, q))
    out.append(("n1-q2", (1,), (1,), 2))
    out.append(("n1-q2^16", (rng.randrange(1, 2**16),), (rng.randrange(2**16),), 2**16))
    out.append(("zero-n8-q3", (0,) * 8, (2,) * 8, 3))
    out.append(("zero-n20-q2", (0,) * 20, (1,) * 19 + (0,), 2))
    return out


CEILING_GOLDEN = {
    'random0-n3-q2^16': 213981013067001,
    'random1-n3-q2^16': 280596451019119,
    'random2-n3-q2^16': 281461469420868,
    'random3-n3-q2^16': 279280854834219,
    'random0-n6-q4': 2965,
    'random1-n6-q4': 1242,
    'random2-n6-q4': 1298,
    'random3-n6-q4': 836,
    'random0-n20-q2': 1540,
    'random1-n20-q2': 76886,
    'random2-n20-q2': 84636,
    'random3-n20-q2': 87346,
    'random0-n32-q2': 411965355,
    'random1-n32-q2': 205221,
    'random2-n32-q2': 190640179,
    'random3-n32-q2': 182451961,
    'canonical0-n3-q2^16': 7245617557551,
    'canonical1-n3-q2^16': 59307944953397,
    'canonical-own-n3-q2^16': 27516129453302,
    'canonical0-n6-q4': 7,
    'canonical1-n6-q4': 2998,
    'canonical-own-n6-q4': 2176,
    'canonical0-n20-q2': 156094,
    'canonical1-n20-q2': 341146,
    'canonical-own-n20-q2': 367646,
    'canonical0-n32-q2': 2926895365,
    'canonical1-n32-q2': 1324853921,
    'canonical-own-n32-q2': 1326729441,
    'canonical0-n24-q3': 4428728231,
    'canonical1-n24-q3': 70578234753,
    'canonical-own-n24-q3': 56580803165,
    'n1-q2': 1,
    'n1-q2^16': 30436,
    'zero-n8-q3': 0,
    'zero-n20-q2': 0,
}


@pytest.mark.parametrize(
    "label,digits,ceiling,q", [pytest.param(*t, id=t[0]) for t in ceiling_pairs()]
)
def test_count_below_with_ceiling_golden(label, digits, ceiling, q):
    assert engine.count_below_with_ceiling(digits, ceiling, q) % PIN == CEILING_GOLDEN[label]
