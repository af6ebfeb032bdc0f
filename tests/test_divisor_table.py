"""counting's divisor counts, all read off one least prenecklace, against the
per-divisor recursion they replaced, at sizes too large for brute force.

The reference computes W_p, the words of period dividing p with a rotation
below x, for each p | n on its own: the length-p count at the first p digits
of the least prenecklace a >= x, plus the p' words of a[:p] when a's least
period exceeds p and a[:p]'s least period p' divides p.  It shares only
`engine.count_below`, `prenecklace_at_least` and the divisor helpers with
the code under test.

The binary table, which sums f over the resets instead of multiplying by
g_k in {0, 1}, is checked against the recurrence for every q, kept here as
`generic_by_period`.
"""

import random
from functools import lru_cache
from operator import mul

import pytest

from necklaces import counting, engine
from necklaces.errors import InvariantViolated
from necklaces.words import NkString, min_rotation, parse_word, prenecklace_at_least


@lru_cache(maxsize=4096)
def reference_dividing(digits, q, p):
    if p == len(digits):
        return engine.count_below(digits, q)

    # Words with orbit size dividing p < n are the powers b^(n/p); the least
    # rotation of one is m^(n/p), m the least rotation of b.  Let a be the
    # least prenecklace >= x, per its least period: no necklace lies in
    # [x, a), so m^(n/p) is below x iff below a.  It is when m < a[:p] (the
    # length-p count at a[:p]) and not when m > a[:p].  If m = a[:p], a[:p]
    # is a necklace.  For per <= p that means per | p and m^(n/p) = a.  For
    # per > p it means p' | p, p' the least period of a[:p]; a breaks period
    # p' with a larger digit, so m^(n/p) < a and its p' words are added.
    a, per = prenecklace_at_least(digits)
    count = reference_dividing(tuple(a[:p]), q, p)
    if per > p:
        head_period = prenecklace_at_least(a[:p])[1]
        if p % head_period == 0:
            count += head_period
    return count


def reference_exact(digits, q, p):
    return sum(
        counting.mobius(p // i) * reference_dividing(digits, q, i) for i in counting.divisors(p)
    )


def thresholds(n, q, count, seed):
    """Random words, necklaces, periodic necklaces and periodic words broken upward."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            digits = tuple(rng.randrange(q) for _ in range(n))
        else:
            p = rng.choice(counting.divisors(n)) if kind > 1 else n
            block = tuple(rng.randrange(rng.choice((2, q))) for _ in range(p))
            digits = list(min_rotation(NkString(p, q, block))[0].digits * (n // p))
            if kind == 3 and p < n:
                i = rng.randrange(p, n)
                digits[i] = min(q - 1, digits[i] + 1 + rng.randrange(q))
            digits = tuple(digits)
        out.append(NkString(n, q, digits))
    return out


SIZES = [(80, 2), (56, 2**16), (32, 2), (10, 2**26), (20, 2), (3, 2**16), (31, 3), (1, 5)]


@pytest.mark.parametrize("n, q", SIZES)
def test_divisor_counts_match_the_per_divisor_recursion(n, q):
    divs = counting.divisors(n)
    for x in thresholds(n, q, 200, seed=1000 * n + q % 997):
        necklaces = 0
        for p in divs:
            want = reference_dividing(x.digits, q, p)
            assert counting.count_words_below_period_dividing(x, p) == want, (x.digits, p)
            exact = reference_exact(x.digits, q, p)
            assert counting.count_words_below_period_exact(x, p) == exact, (x.digits, p)
            assert exact % p == 0
            necklaces += exact // p
        assert counting.count_necklaces_below(x) == necklaces, x.digits
        assert counting.count_lyndon_below(x) == reference_exact(x.digits, q, n) // n, x.digits
    reference_dividing.cache_clear()


@pytest.mark.parametrize("bad", [2, 4], ids=["d=2", "d=n"])
def test_a_corrupted_divisor_count_raises(monkeypatch, bad):
    """W_d off by one breaks the size-d class's divisibility, reported as a bug."""
    table = engine.count_below_by_period

    def corrupted(a, per, q, periods):
        return [w + (d == bad) for w, d in zip(table(a, per, q, periods), periods)]

    monkeypatch.setattr(engine, "count_below_by_period", corrupted)
    counting.clear_caches()
    try:
        with pytest.raises(InvariantViolated):
            counting.count_necklaces_below(parse_word("0110", 2))
    finally:
        counting.clear_caches()


def generic_by_period(a, p, q, periods):
    """count_below_by_period's recurrence for every q, copied verbatim: the q = 2 reference."""
    top = max(periods, default=0)
    g = [q - 1 - c for c in a[:top]]
    f = [1]
    for _ in range(1, top):
        f.append(sum(map(mul, g, reversed(f))))  # sum_{k<L} g_k f_(L-1-k), L = len(f)
    return [
        q**d
        - sum(map(mul, f, map(mul, range(d, 0, -1), reversed(g[:d]))))  # (d - L) g_(d-1-L) f_L
        - (p if d % p == 0 else 0)
        for d in periods
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 32, 64, 80, 128, 256])
def test_binary_table_matches_the_generic_recurrence(n):
    divs = counting.divisors(n)
    for x in thresholds(n, 2, 100, seed=7000 + n):
        a, per = prenecklace_at_least(x.digits)
        want = generic_by_period(a, per, 2, divs)
        assert engine.count_below_by_period(a, per, 2, divs) == want, x.digits
