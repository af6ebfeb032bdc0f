"""Golden values for engine.count_below on seeded thresholds.

The thresholds are rebuilt from a fixed seed by `golden_thresholds`.  The
expected counts were computed once with the forward-propagation engine that
pushed every resolved wraparound state through the DP layer by layer (the
engine before resolved states were charged from a backward table), by calling
`engine.count_below(digits, q)` on each threshold below.  Counts can run to
thousands of digits, so each is pinned modulo the Mersenne prime 2^127 - 1;
a count below that prime is pinned exactly.
"""

import random

import pytest

from necklaces import engine
from necklaces.words import NkString, min_rotation

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
