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


def assert_reduced_echelon(basis, one):
    """Each element monic in T, degrees strictly increasing, 0 at the others' degrees.

    Elements are low-first tuples of F_q elements (one is F_q's 1).  Within
    a given span these conditions leave exactly one basis.
    """
    degrees = [len(b) - 1 for b in basis]
    assert degrees == sorted(set(degrees)), degrees
    for b in basis:
        assert b[-1] == one
        assert all(b[d] == () for d in degrees if d < len(b) - 1)


def packed_span(kernel, basis):
    """Every F_q-combination of the packed elements of basis, by enumeration."""
    span = {0}
    for b in basis:
        multiples = [kernel.mul(kernel.from_int(c), b) for c in range(kernel.q)]
        span = {kernel.add(s, m) for s in span for m in multiples}
    return span


def primitive_field(q, n):
    """F_{q^n} over the default F_q, from the primitive polynomial that rng_seed 1 finds."""
    return gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, gf.factorize(q**n - 1), 1)
