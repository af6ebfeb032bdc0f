"""Brute-force reference implementations used as the trust anchor in tests.

Everything here enumerates explicitly and is guarded against silently large
inputs: oracles must never lie, so oversized requests raise TooBig instead of
truncating.
"""

from .errors import TooBig
from .words import NkString, fundamental_period, min_rotation

ENUM_GUARD = 2**22


def _check_size(n, q):
    if q**n > ENUM_GUARD:
        raise TooBig(f"{q}^{n} words exceed the enumeration guardrail")


def all_words(n, q):
    _check_size(n, q)
    return [NkString.from_int(n, q, v) for v in range(q**n)]


def brute_orbits(n, q):
    """Sorted list of (minimal representative, orbit size) over all orbits."""
    _check_size(n, q)
    seen = {}
    for w in all_words(n, q):
        rep, _ = min_rotation(w)
        if rep.digits not in seen:
            seen[rep.digits] = fundamental_period(rep)
    return [(NkString(n, q, d), size) for d, size in sorted(seen.items())]


def brute_necklaces_below(x):
    """Number of orbits containing a word strictly below x."""
    return sum(1 for rep, _ in brute_orbits(x.n, x.q) if rep.digits < x.digits)


def brute_words_below_period_exact(x, p):
    """#{y : |orbit(y)| = p and some rotation of y is below x}."""
    _check_size(x.n, x.q)
    count = 0
    for y in all_words(x.n, x.q):
        if fundamental_period(y) == p and min_rotation(y)[0].digits < x.digits:
            count += 1
    return count


def brute_words_below_period_dividing(x, p):
    """#{y : |orbit(y)| divides p and some rotation of y is below x}."""
    _check_size(x.n, x.q)
    count = 0
    for y in all_words(x.n, x.q):
        if p % fundamental_period(y) == 0 and min_rotation(y)[0].digits < x.digits:
            count += 1
    return count


def _factorize(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(m):
    phi = m
    for prime in _factorize(m):
        phi = phi // prime * (prime - 1)
    return phi


def mobius(m):
    if m < 1:
        raise ValueError("mobius is defined on positive integers")
    mu = 1
    for _, exp in _factorize(m).items():
        if exp > 1:
            return 0
        mu = -mu
    return mu


def closed_form_counts(n, q):
    """(necklace count, Lyndon count) from the classical divisor sums.

    Independent of the automaton pipeline: necklaces by the totient average
    of q^d over divisors, Lyndon words by Mobius inversion of q^n.
    """
    neck = sum(euler_phi(n // d) * q**d for d in range(1, n + 1) if n % d == 0) // n
    lyn = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    return neck, lyn


def brute_irreducibles(q, n):
    """All monic irreducible degree-n polynomials over F_q, in integer order.

    Polynomials are low-first coefficient tuples over default_fq_ctx(q),
    listed by increasing gf.poly_to_int: candidates are visited in that
    order, so the list needs no sort.
    """
    from .gf import default_fq_ctx, is_irreducible

    if q**n > ENUM_GUARD:
        raise TooBig(f"{q}^{n} polynomials exceed the enumeration guardrail")
    ctx = default_fq_ctx(q)
    out = []
    for v in range(q**n):
        coeffs = []
        rest = v
        for _ in range(n):
            rest, c = divmod(rest, q)
            coeffs.append(ctx.element_from_int(c))
        coeffs.append(ctx.one)
        f = tuple(coeffs)
        if is_irreducible(ctx, f):
            out.append(f)
    return out


def selftest(max_n_binary=8):
    """Reduced oracle-equivalence sweep across the whole pipeline.

    Returns (ok, lines); every line reports one named check.  Kept small
    enough to finish well under a minute.
    """
    import random

    from . import bch, counting, gf, indexing, irreducible, programs, topheavy
    from .words import bin_encode, orbit_below

    lines = []
    ok = True

    def check(name, cond):
        nonlocal ok
        ok = ok and bool(cond)
        lines.append(f"{'PASS' if cond else 'FAIL'} {name}")

    # necklace/Lyndon bijections against enumerated orbits
    for q, top in ((2, max_n_binary), (3, 4)):
        good = True
        for n in range(1, top + 1):
            reps = [rep for rep, _ in brute_orbits(n, q)]
            total = counting.count_necklaces(n, q)
            good &= total == len(reps)
            for j, rep in enumerate(reps, start=1):
                good &= indexing.index_necklace(n, q, j).digits == rep.digits
                good &= indexing.reverse_index_necklace(rep).rank == j
            good &= indexing.index_necklace(n, q, total + 1) is indexing.TOO_LARGE
            lyns = [rep for rep, size in brute_orbits(n, q) if size == n]
            good &= counting.count_lyndon(n, q) == len(lyns)
            for j, rep in enumerate(lyns, start=1):
                good &= indexing.index_lyndon(n, q, j).digits == rep.digits
        check(f"necklace/lyndon bijection q={q} n<={top}", good)

    # counting identities on random thresholds
    rng = random.Random(20240815)
    good = True
    for n, q in ((max_n_binary, 2), (4, 3), (3, 5)):
        for _ in range(40):
            x = NkString.from_int(n, q, rng.randrange(q**n))
            leq = {
                p: counting.count_words_below_period_dividing(x, p)
                for p in counting.divisors(n)
            }
            for p in counting.divisors(n):
                total = sum(
                    counting.count_words_below_period_exact(x, i)
                    for i in counting.divisors(p)
                )
                good &= total == leq[p]
            good &= counting.count_necklaces_below(x) == brute_necklaces_below(x)
    check("counting identities vs brute force", good)

    # the paper's binary-encoded programs equal the engine and brute force
    good = True
    for q in (3, 4, 5):
        for n in (2, 3):
            for v in range(q**n):
                x = NkString.from_int(n, q, v)
                expect = brute_words_below_period_dividing(x, n)
                good &= counting.count_words_below_period_dividing(x, n) == expect
                good &= programs.count_rotation_below(x) == expect
    check("branching programs equal engine and brute force", good)

    # irreducible polynomial indexing
    good = True
    for q, n in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2)):
        expect = brute_irreducibles(q, n)
        good &= irreducible.count_irreducible(q, n) == len(expect)
        ctx = gf.default_fq_ctx(q)
        fctx = gf.find_primitive_polynomial(ctx, n, gf.factorize(q**n - 1), rng_seed=7)
        got = sorted(
            (irreducible.index_irreducible(fctx, i) for i in range(1, len(expect) + 1)),
            key=lambda f: gf.poly_to_int(ctx, f),
        )
        good &= got == expect
    check("irreducible indexing vs brute force", good)

    # BCH row enumeration and entries
    good = True
    ctx2 = gf.default_fq_ctx(2)
    fctx = gf.find_primitive_polynomial(ctx2, 3, gf.factorize(7), rng_seed=3)
    for d in (1, 3):
        params = bch.BchParams(fctx, d)
        good &= bch.generator_row_count(params) == bch.brute_generator_rows(params)[1]
        good &= bch.parity_row_count(params) == len(bch.brute_parity_orbits(params))
        for r in range(1, bch.generator_row_count(params) + 1):
            for col in range(2**3):
                val = bch.generator_entry(params, r, bch.column_element(fctx, col))
                good &= len(val) <= 1
    check("bch rows and generator entries", good)

    # top-heavy rotation oracle
    good = True
    for n in (2, 3, 5, 7):
        count = 0
        for v in range(2**n):
            w = NkString.from_int(n, 2, v)
            if topheavy.is_top_heavy(w):
                count += 1
        good &= topheavy.count_top_heavy(n) == count
        good &= count == counting.count_necklaces(n, 2)
    check("top-heavy counts match necklace totals", good)

    # spot equivalence: engine membership semantics vs definitional check
    good = True
    for n, q in ((5, 2), (3, 3)):
        for v in range(q**n):
            x = NkString.from_int(n, q, v)
            bits = bin_encode(x)
            good &= len(bits.bits) == n * bits.block
        for _ in range(50):
            a = NkString.from_int(n, q, rng.randrange(q**n))
            b = NkString.from_int(n, q, rng.randrange(q**n))
            good &= orbit_below(a, b) == (min_rotation(a)[0].digits < b.digits)
    check("word utilities consistency", good)

    return ok, lines
