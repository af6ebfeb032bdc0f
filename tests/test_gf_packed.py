"""The packed field kernel against the generic tuple routines.

`FqnCtx.mul`/`pow`, `frobenius`, `minimal_polynomial` and `is_irreducible`
run on packed integers; `gf.pmul`/`gf.pdivmod` remain the generic
polynomial arithmetic, and the reference implementations below are built
from them alone.
"""

import random

import pytest

from necklaces import bch, gf, irreducible
from necklaces.errors import CoefficientNotInBase, ConjugatesCollide

FIELDS = [(2, 20), (2, 32), (2**16, 3), (2**16, 2), (4, 6), (8, 5), (3, 7), (9, 4),
          (25, 3), (343, 2), (257, 3)]


class _RefExt:
    """base[T]/F(T) on the generic tuple routines; F need not be irreducible.

    base is an FqCtx or a prime field; an element is a low-first tuple of
    base elements.
    """

    def __init__(self, base, modulus):
        self.base, self.modulus = base, modulus
        self.zero, self.one = (), (base.one,)

    def add(self, a, b):
        return gf.padd(self.base, a, b)

    def mul(self, a, b):
        return gf.pmod(self.base, gf.pmul(self.base, a, b), self.modulus)

    def pow(self, a, k):
        result = self.one
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result


def _ref_minimal_polynomial(ref, a, n):
    conjugates = [a]
    for _ in range(n - 1):
        conjugates.append(ref.pow(conjugates[-1], ref.base.q))
    if len(set(conjugates)) != n:
        raise ConjugatesCollide("reference")
    poly = [ref.one]
    for c in conjugates:  # times (T - c)
        neg = gf.psub(ref.base, (), c)
        poly = ([ref.mul(poly[0], neg)]
                + [ref.add(lo, ref.mul(hi, neg)) for lo, hi in zip(poly, poly[1:])]
                + [poly[-1]])
    if any(len(coeff) > 1 for coeff in poly):
        raise CoefficientNotInBase("reference")
    return tuple(coeff[0] if coeff else ref.base.zero for coeff in poly)


def _ref_is_irreducible(field, f):
    """Rabin's test with powers by generic square-and-multiply."""
    m = len(f) - 1
    if m == 1:
        return True
    ring, X = _RefExt(field, f), (field.zero, field.one)
    powers = [X]
    for _ in range(m):
        powers.append(ring.pow(powers[-1], field.size))
    if powers[m] != X:
        return False
    return all(len(gf.pgcd(field, gf.psub(field, powers[m // r], X), f)) == 1
               for r in set(gf.factorize(m)))


def _random_poly(rng, base, m):
    return tuple(base.element_from_int(rng.randrange(base.q)) for _ in range(m)) + (base.one,)


@pytest.fixture(scope="module", params=FIELDS, ids=lambda qn: f"q{qn[0]}-n{qn[1]}")
def field(request):
    q, n = request.param
    base = gf.default_fq_ctx(q)
    modulus = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), 1).modulus
    assert _ref_is_irreducible(base, modulus)
    ctx = gf.FqnCtx(base, n, modulus)
    rng = random.Random(q * 100 + n)
    elements = [ctx.element_from_int(rng.randrange(q**n)) for _ in range(3)]
    return ctx, _RefExt(base, modulus), elements + [ctx.generator, ctx.zero, ctx.one], rng


def test_mul_pow_frobenius_match_reference(field):
    ctx, ref, elements, rng = field
    order = ctx.q**ctx.n - 1
    for a in elements:
        for b in elements:
            assert ctx.mul(a, b) == ref.mul(a, b)
        assert gf.frobenius(ctx, a) == ref.pow(a, ctx.q)
    for a in elements[:4]:
        for k in (0, 1, ctx.q, order + 3, rng.randrange(order)):
            assert ctx.pow(a, k) == ref.pow(a, k), k


def test_minimal_polynomial_matches_reference(field):
    ctx, ref, elements, _rng = field
    base_element = (ctx.base.element_from_int(ctx.q - 1),)  # in F_q: conjugates collide
    for a in [elements[0], ctx.zero, base_element]:
        try:
            expected = _ref_minimal_polynomial(ref, a, ctx.n)
        except ConjugatesCollide:
            with pytest.raises(ConjugatesCollide):
                gf.minimal_polynomial(ctx, a)
        else:
            assert gf.minimal_polynomial(ctx, a) == expected


def test_minimal_polynomial_exceptions_in_a_reducible_ring():
    """Modulo (T+1)^3 over F_2 both conjugate checks fire on some elements."""
    base = gf.default_fq_ctx(2)
    modulus = ((1,), (1,), (1,), (1,))
    ctx = gf.FqnCtx(base, 3, modulus, _verified=True)
    ref = _RefExt(base, modulus)
    outcomes = set()
    for v in range(8):
        a = ctx.element_from_int(v)
        try:
            expected = _ref_minimal_polynomial(ref, a, 3)
        except (ConjugatesCollide, CoefficientNotInBase) as exc:
            with pytest.raises(type(exc)):
                gf.minimal_polynomial(ctx, a)
            outcomes.add(type(exc))
        else:
            assert gf.minimal_polynomial(ctx, a) == expected
    assert outcomes == {ConjugatesCollide, CoefficientNotInBase}


def test_is_irreducible_matches_reference():
    rng = random.Random(59)
    for q in (2, 3, 4, 5, 8, 9, 25, 49):
        base = gf.default_fq_ctx(q)
        for _ in range(30):
            f = _random_poly(rng, base, rng.randint(1, 7))
            assert gf.is_irreducible(base, f) == _ref_is_irreducible(base, f), (q, f)
            fp = tuple(rng.randrange(base.p) for _ in range(rng.randint(1, 9))) + (1,)
            assert gf.is_irreducible(base.base, fp) == _ref_is_irreducible(base.base, fp)


# Values computed with the tuple-of-tuples field arithmetic that preceded the
# packed kernel, on primitive advice made as the benchmark makes it
# (default_fq_ctx(q), seed 1).  index_irreducible: (i, poly_to_int);
# generator_entry: (d, r, column index, element_to_int over F_q);
# parity_entry: (d, r, column index, element_to_int over F_{q^n}).
GOLDEN = {
    (2, 20): (
        [(1, 1277349), (2, 1666293), (40611, 1961247), (40599, 1640271), (52377, 1357785)],
        [(615788, 15, 0, 0), (717560, 14, 332245, 1), (524288, 1, 5, 1)],
        [(942111, 15733, 962199, 831766), (634170, 26853, 702791, 605250),
         (631924, 39619, 156135, 430627), (771484, 29646, 110083, 489945)],
    ),
    (2**16, 3): (
        [(1, 399671442600394), (2, 285067190773303), (13409630029745, 301115093352242),
         (22976827986047, 547567352895626), (93824992215040, 311722904349857)],
        [(281474363320385, 279030354047535, 0, 0),
         (281470910426882, 279267750399852, 96048829279249, 30551),
         (281472762013812, 127792688931261, 15975942827778, 36009),
         (281472991343765, 69280831275238, 197148996775824, 42357),
         (281470681743360, 1, 0, 1)],
        [(281474452771663, 46929678990399, 245926126030904, 68318498710597),
         (281472806510107, 75973123749783, 142782125471017, 187976551269563),
         (281474190559902, 65358059923897, 91195952670128, 245268635929057),
         (281473133600353, 64450220404467, 50158870835550, 56686331449344)],
    ),
    (4, 6): (
        [(1, 5603), (2, 5554), (514, 6962), (231, 6441), (670, 4970)],
        [(3898, 703, 0, 0), (3419, 129, 746, 2), (3752, 624, 221, 1), (3940, 418, 1116, 1),
         (3072, 1, 5, 1)],
        [(3421, 499, 2726, 1359), (4023, 457, 2792, 1728), (3849, 623, 3646, 3874),
         (3684, 433, 4055, 2488)],
    ),
}


@pytest.mark.parametrize("qn", sorted(GOLDEN), ids=lambda qn: f"q{qn[0]}-n{qn[1]}")
def test_golden_values_at_bench_fields(qn):
    q, n = qn
    base = gf.default_fq_ctx(q)
    ctx = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), 1)
    irred, gen, parity = GOLDEN[qn]
    for i, value in irred:
        assert gf.poly_to_int(base, irreducible.index_irreducible(ctx, i)) == value
    for d, r, col, value in gen:
        entry = bch.generator_entry(bch.BchParams(ctx, d), r, ctx.element_from_int(col))
        assert base.element_to_int(entry) == value
    for d, r, col, value in parity:
        entry = bch.parity_entry(bch.BchParams(ctx, d), r, ctx.element_from_int(col))
        assert ctx.element_to_int(entry) == value


def test_subfield_basis_returns_a_fresh_list():
    base = gf.default_fq_ctx(2)
    ctx = gf.find_primitive_polynomial(base, 6, gf.factorize(63), 1)
    first = bch.subfield_basis(ctx, 3)
    expected = list(first)
    first.append(ctx.one)
    first[0] = ctx.zero
    assert bch.subfield_basis(ctx, 3) == expected
