"""Counting words and orbits below a threshold, by orbit-size class.

The quantities: for a threshold word x of length n and a divisor p of n,

  * count_words_below_period_dividing(x, p): words whose orbit size divides p
    and whose orbit contains a word strictly below x;
  * count_words_below_period_exact(x, p): same with orbit size exactly p,
    recovered by Mobius inversion over divisors;
  * count_necklaces_below(x): orbits with a member strictly below x, the
    sum of E_p / p over p | n, E_p the exact count for orbit size p;
  * count_lyndon_below(x): orbits of full size n below x, E_n / n.

Every dividing count of one threshold is read off the same table: with a
the least prenecklace at or above x, engine step 5 gives W_p, the words of
period dividing p with a rotation below x, for every p | n from a's
closed-walk table f, with n(n-1)/2 big-integer multiply-adds (none at q = 2,
where each g_k is 0 or 1) and O(p) more per divisor.  One
`engine.count_below` call fills `_count_dividing_cached` with W_d for every
d | n, and each orbit count reads it once.  Over all k^n words the orbits
are one divisor sum (1/n) sum_{d | n} c_d k^d, with c_d = phi(n/d) for
necklaces (Burnside's lemma) and mu(n/d) for Lyndon words (Witt's formula):
count_necklaces and count_lyndon return it, so the engine counts only below
thresholds that a query asks about.  Bounded caches keep the divisors and
weights per n, the counts per threshold.

The paper's read-once branching programs over the binary expansion of the
alphabet count the same p = n quantity; they are materialized only as a
cross-check (`programs.count_rotation_below`), which the tests and
`oracle.selftest` compare with this module and with brute force.
"""

from functools import lru_cache

from . import engine
from .errors import InvariantViolated, NotADivisor


def divisors(n):
    """Divisors of n in ascending order."""
    if n < 1:
        raise ValueError("divisors of a positive integer only")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(m):
    """Standard Mobius function, by trial division."""
    if m < 1:
        raise ValueError("mobius is defined on positive integers")
    mu = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    if m > 1:
        mu = -mu
    return mu


@lru_cache(maxsize=1024)
def _divisor_table(n):
    """(divisors d of n ascending, {p: ((i's position, mu(p/i)) for i | p, mu != 0)}, phi(n/d))."""
    ds = tuple(divisors(n))
    terms = {
        p: tuple((k, mobius(p // i)) for k, i in enumerate(ds) if p % i == 0 and mobius(p // i))
        for p in ds
    }
    return ds, terms, tuple(sum(mu * ds[k] for k, mu in terms[n // d]) for d in ds)


def orbits_in_closed_form(n, k, lyndon=False):
    """Orbits of length-n words over k letters, (1/n) sum_{d | n} c_d k^d.

    Necklaces by Burnside's lemma, c_d = phi(n/d); Lyndon words by Witt's
    formula, c_d = mu(n/d).
    """
    ds, terms, phis = _divisor_table(n)
    if lyndon:
        return sum(mu * k ** ds[i] for i, mu in terms[n]) // n
    return sum(phi * k**d for d, phi in zip(ds, phis)) // n


@lru_cache(maxsize=256)
def _count_dividing_cached(digits, q):
    """(W_p for every p | n, ascending): engine step 5 on one least prenecklace."""
    return tuple(engine.count_below(digits, q, _divisor_table(len(digits))[0]))


def count_words_below_period_dividing(x, p):
    """#{y : orbit size of y divides p, some rotation of y below x}."""
    if p < 1 or x.n % p != 0:
        raise NotADivisor(f"period {p} does not divide length {x.n}")
    return _count_dividing_cached(x.digits, x.q)[_divisor_table(x.n)[0].index(p)]


def count_words_below_period_exact(x, p):
    """#{y : orbit size exactly p, some rotation of y below x}."""
    if p < 1 or x.n % p != 0:
        raise NotADivisor(f"period {p} does not divide length {x.n}")
    counts = _count_dividing_cached(x.digits, x.q)
    return sum(mu * counts[i] for i, mu in _divisor_table(x.n)[1][p])


def _orbits_below(x, sizes):
    """Sum of E_p / p over p in sizes, E_p the exact count below x; p must divide E_p."""
    counts, terms = _count_dividing_cached(x.digits, x.q), _divisor_table(x.n)[1]
    orbits = 0
    for p in sizes:
        words = sum(mu * counts[i] for i, mu in terms[p])
        if words % p:
            raise InvariantViolated(f"orbit count for size {p} not divisible by {p}; counting bug")
        orbits += words // p
    return orbits


def count_necklaces_below(x):
    """Number of orbits containing at least one word strictly below x."""
    return _orbits_below(x, _divisor_table(x.n)[0])


def count_lyndon_below(x):
    """Number of orbits of full size n below x (aperiodic orbits)."""
    return _orbits_below(x, (x.n,))


def _check_shape(n, q):
    """The word checks of `NkString`, for counts that build no word."""
    if n < 1:
        raise ValueError("word length must be positive")
    if q < 2:
        raise ValueError("alphabet size must be at least 2")


def count_necklaces(n, q):
    """Total number of orbits of length-n words over a size-q alphabet (Burnside)."""
    _check_shape(n, q)
    return orbits_in_closed_form(n, q)


def count_lyndon(n, q):
    """Total number of aperiodic orbits, equivalently Lyndon words (Witt)."""
    _check_shape(n, q)
    return orbits_in_closed_form(n, q, lyndon=True)


def count_words_below_with_ceiling(x, ceiling):
    """#{y : some rotation below x and no rotation above the ceiling}.

    Joint two-sided count used to rank orbits that must stay entirely below
    a bound; evaluated arithmetically only.
    """
    if x.n != ceiling.n or x.q != ceiling.q:
        raise ValueError("threshold and ceiling must share length and alphabet")
    return engine.count_below_with_ceiling(x.digits, ceiling.digits, x.q)


def clear_caches():
    for cache in (_count_dividing_cached, _divisor_table, engine._ceiling_side):
        cache.cache_clear()
