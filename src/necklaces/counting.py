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
thresholds that a query asks about.  The same sums over a transfer-matrix
trace count the orbits whose cyclic runs of one letter are at most r
(`_run_table`), which pins an unrank's first run in closed form.  Bounded
caches keep the divisors and weights per n, the counts per threshold and
the run tables per (n, letters, r).

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
def _run_table(n, m, r):
    """(sums, necklaces, lyndon) over m letters with no cyclic run of letter 0 longer than r.

    0 <= r < n.  B_t counts the words of length t with no run of 0 longer
    than r: all zeros if t <= r, or i <= r zeros, a nonzero letter and any
    such word of length t - 1 - i, so
    B_t = [t <= r] + (m - 1) * sum_{i <= min(r, t - 1)} B_{t-1-i}, a linear
    recurrence of order r + 1 past t = r + 1.  `sums` holds the prefix sums
    P_t = B_0 + ... + B_t for t < n, after r + 2 zeros that stand for
    P_t at t < 0: sums[t + r + 2] = P_t.

    The cyclic words of length e | n that repeat to such a word of length n
    number T(e) = sum_{s <= min(r, e - 1)} (s + 1) * (m - 1) * A_{e-1-s},
    with A_0 = 1 and A_t = (m - 1) * B_{t-1} (the words of length t that
    end in a nonzero letter): s zeros wrap around the end, in s + 1
    splits, then a nonzero letter starts the rest.  The transfer matrix
    over the run length has trace T(e) (Stanley, Enumerative Combinatorics
    I, 4.7).  The orbits are the Burnside and Witt sums over it,
    (1/n) sum_{e | n} c(n/e) T(e), c = phi for necklaces and mu for Lyndon
    words.  0^n is in neither, since r < n; r = 0 gives the orbits over the
    m - 1 nonzero letters.
    """
    k = m - 1
    sums, window = [0] * (r + 2) + [1], 1  # window: B_{t-1-r} + ... + B_{t-1}
    for t in range(1, n):
        b = (t <= r) + k * window
        window += b - sums[t + 1] + sums[t]  # drop B_{t-1-r}
        sums.append(sums[-1] + b)

    def cyclic(e):
        ends = e if e <= r + 1 else 0  # s = e - 1: A_0 = 1
        inner = sum((s + 1) * (sums[e + r - s] - sums[e + r - s - 1])
                    for s in range(min(r + 1, e - 1)))
        return k * (ends + k * inner)

    ds, terms, phis = _divisor_table(n)
    traces = [cyclic(e) for e in ds]
    return (tuple(sums), sum(phi * t for phi, t in zip(phis, traces)) // n,
            sum(mu * traces[i] for i, mu in terms[n]) // n)


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
    for cache in (_count_dividing_cached, _run_table, _divisor_table, engine._ceiling_side):
        cache.cache_clear()
