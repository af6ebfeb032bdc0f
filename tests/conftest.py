"""Shared brute-force helpers for the test suite.

These recompute everything definitionally (rotations enumerated one by one)
so the production paths are always checked against an independent
implementation.
"""

from itertools import product

from necklaces import gf
from necklaces.words import NkString


def all_words(n, q):
    return [NkString(n, q, digs) for digs in product(range(q), repeat=n)]


def brute_min_rotation(x):
    n = x.n
    doubled = x.digits + x.digits
    return min(doubled[s:s + n] for s in range(n))


def brute_period(x):
    """Least d | n with x = x[:d]^(n/d)."""
    n = x.n
    return next(d for d in range(1, n + 1) if n % d == 0 and x.digits[:d] * (n // d) == x.digits)


def brute_orbit_below(y, x):
    n = y.n
    doubled = y.digits + y.digits
    return any(doubled[s:s + n] < x.digits for s in range(n))


def brute_count_below(x, period=None, dividing=False):
    """Words below x filtered by orbit size (exact or dividing)."""
    count = 0
    for y in all_words(x.n, x.q):
        if not brute_orbit_below(y, x):
            continue
        p = brute_period(y)
        if period is None or (dividing and period % p == 0) or (not dividing and p == period):
            count += 1
    return count


def brute_necklaces_below(x):
    seen = set()
    for y in all_words(x.n, x.q):
        if brute_orbit_below(y, x):
            seen.add(brute_min_rotation(y))
    return len(seen)


def brute_witnesses(bits):
    """The witness set of a binary word, as a set of bit tuples."""
    out = set()
    for k, b in enumerate(bits):
        if b == 1:
            out.add(tuple(bits[:k]) + (0,))
    return out


class RefQuotient:
    """F_p[u, T]/(g(u), F(T)) on gf's tuple routines alone; g and F monic, reducible or not.

    An element is a low-first tuple of low-first F_p tuples, as
    gf._Packed.pack takes it.  The object is also the coefficient ring
    F_p[u]/g(u) that gf.pmul and gf.pmod run over in T.
    """

    def __init__(self, p, g, F):
        self.fp = gf._PrimeField(p)
        self.g, self.F = gf.pstrip(self.fp, g), tuple(gf.pstrip(self.fp, c) for c in F)
        self.zero, self.one = (), (1,)

    def add(self, a, b):
        return gf.padd(self.fp, a, b)

    def sub(self, a, b):
        return gf.psub(self.fp, a, b)

    def mul(self, a, b):
        return gf.pmod(self.fp, gf.pmul(self.fp, a, b), self.g)

    def inv(self, a):
        if a != self.one:  # the moduli are monic: nothing else is divided by
            raise ZeroDivisionError("reference inverts only 1")
        return a

    def is_zero(self, a):
        return a == ()

    def product(self, x, y):
        return gf.pmod(self, gf.pmul(self, x, y), self.F)

    def power(self, x, k):
        result = (self.one,)  # deg F >= 1
        while k:
            if k & 1:
                result = self.product(result, x)
            x = self.product(x, x)
            k >>= 1
        return result
