import random

import hypothesis
import pytest
from hypothesis import strategies as st

from conftest import assert_reduced_echelon, packed_span, primitive_field
from necklaces import bch, gf, irreducible, oracle
from necklaces.errors import (
    BadFactorization,
    CoefficientNotInBase,
    ConjugatesCollide,
    InvalidAdvice,
    InvariantViolated,
)
from test_gf_packed import FIELDS, _RefExt, _ref_minimal_polynomial


@pytest.fixture(scope="module")
def f2():
    return gf.default_fq_ctx(2)


@pytest.fixture(scope="module")
def f8(f2):
    ctx = gf.FqnCtx(f2, 3, ((1,), (1,), (), (1,)))  # T^3+T+1
    assert gf.certify_primitive(ctx, gf.factorize(ctx.order))
    return ctx


def test_primality_and_factorize():
    assert gf.is_probable_prime(2)
    assert gf.is_probable_prime(2**61 - 1)
    assert not gf.is_probable_prime(2**61 + 1)
    assert gf.factorize(1) == []
    assert gf.factorize(360) == [2, 2, 2, 3, 3, 5]
    assert gf.factorize(2**31 - 1) == [2147483647]
    assert gf.factorize((2**31 - 1) * 97) == [97, 2147483647]
    # Cofactors below 10^12 take the same Baillie-PSW and rho path as larger ones.
    assert gf.factorize(999999999989) == [999999999989]
    assert gf.factorize(999983 * 999979) == [999979, 999983]
    assert gf.factorize(999999000001) == [999999000001]


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_field_size_must_be_a_prime_power(q):
    with pytest.raises(ValueError):
        gf.default_fq_ctx(q)
    with pytest.raises(ValueError):
        oracle.brute_irreducibles(q, 2)


def test_primality_beyond_the_fixed_base_bound():
    # psi_12 and psi_13: the least strong pseudoprimes to all prime bases up
    # to 37 and to 41, which a Miller-Rabin test on bases 2..37 accepts
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert not gf.is_probable_prime(psi12)
    assert not gf.is_probable_prime(psi13)
    assert gf.factorize(psi12) == [399165290221, 798330580441]
    factors = gf.factorize(psi13)
    assert len(factors) == 2 and factors[0] * factors[1] == psi13
    assert all(gf.is_probable_prime(p) for p in factors)
    with pytest.raises(BadFactorization):
        gf.check_factorization(psi12, [psi12])  # an advice factors line


def test_f4_arithmetic():
    f4 = gf.FqCtx(2, 2, (1, 1, 1))
    u, u1 = (0, 1), (1, 1)
    assert f4.mul(u, u1) == (1,)
    assert f4.inv(u) == u1
    assert f4.add(u, u) == ()
    assert f4.pow(u, 3) == (1,)
    with pytest.raises(ZeroDivisionError):
        f4.inv(())


@pytest.mark.parametrize("c", [3, 65536, -1])
def test_out_of_range_coordinate_is_refused(f2, f8, c):
    # unchecked, 3 was reduced to 1, 65536 carried into T's slot and -1
    # raised OverflowError
    with pytest.raises(ValueError):
        f8.mul(((c,),), f8.one)
    with pytest.raises(ValueError):
        f2.add((c,), ())


def _check_fq_against_tuple_routines(ctx, pairs, exponents):
    """FqCtx arithmetic (the packed kernel) against the generic tuple routines over F_p."""
    fp, g = ctx.base, ctx.g

    def ref_mul(a, b):
        return gf.pmod(fp, gf.pmul(fp, a, b), g)

    for a, b in pairs:
        assert ctx.add(a, b) == gf.padd(fp, a, b)
        assert ctx.sub(a, b) == gf.psub(fp, a, b)
        assert ctx.mul(a, b) == ref_mul(a, b)
    for a in {a for a, _ in pairs}:
        assert ctx.neg(a) == gf.psub(fp, (), a)
        if a:
            assert ref_mul(a, ctx.inv(a)) == (1,)
        for k in exponents:
            power, base, e = (1,), a, k
            while e:
                if e & 1:
                    power = ref_mul(power, base)
                base, e = ref_mul(base, base), e >> 1
            assert ctx.pow(a, k) == power, (a, k)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)
    with pytest.raises(ValueError):
        ctx.pow(ctx.one, -1)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_fq_matches_tuple_routines_exhaustively(q):
    ctx = gf.default_fq_ctx(q)
    elements = [ctx.element_from_int(v) for v in range(q)]
    assert [ctx.element_to_int(a) for a in elements] == list(range(q))
    pairs = [(a, b) for a in elements for b in elements]
    _check_fq_against_tuple_routines(ctx, pairs, (0, 1, 2, q - 2, q - 1, q, 3 * q + 1))


def test_fq_matches_tuple_routines_sampled_at_2_16():
    ctx, rng = gf.default_fq_ctx(2**16), random.Random(61)
    values = [0, 1, 2**16 - 1] + [rng.randrange(2**16) for _ in range(60)]
    pairs = [(ctx.element_from_int(v), ctx.element_from_int(rng.choice(values))) for v in values]
    _check_fq_against_tuple_routines(ctx, pairs, (0, 1, 2**16 - 1, rng.randrange(2**20)))


def test_production_paths_never_use_the_tuple_routines(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tuple-polynomial routine was called")

    for name in ("padd", "psub", "pmul", "pdivmod", "pmod", "pmonic", "pgcd"):
        monkeypatch.setattr(gf, name, refuse)
    gf.default_fq_ctx(9)
    for q, n in ((2**16, 3), (4, 6)):
        factors = gf.factorize(q**n - 1)
        found = gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, factors, 1)
        ctx = gf.parse_advice(gf.format_advice(found, factors=factors))
        assert len(bch.subfield_basis(ctx, n // 3)) == n // 3  # a fresh context: no cached basis
        assert len(irreducible.index_irreducible(ctx, 3)) == n + 1
        params, alpha = bch.BchParams(ctx, ctx.order // 2), ctx.element_from_int(q + 2)
        bch.generator_entry(params, 2, alpha)
        bch.parity_entry(params, 2, alpha)
        assert len(gf.minimal_polynomial(ctx, alpha)) == n + 1


def test_field_axioms_sampled():
    rng = random.Random(41)
    for ctx in (gf.default_fq_ctx(7), gf.default_fq_ctx(9), gf.default_fq_ctx(8)):
        for _ in range(80):
            a = ctx.element_from_int(rng.randrange(ctx.q))
            b = ctx.element_from_int(rng.randrange(ctx.q))
            c = ctx.element_from_int(rng.randrange(ctx.q))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one
        assert ctx.pow(ctx.element_from_int(1 % ctx.q), 0) == ctx.one


def test_pow_group_order(f8):
    rng = random.Random(43)
    for _ in range(20):
        a = f8.element_from_int(rng.randrange(1, 8))
        assert f8.pow(a, 0) == f8.one
        assert f8.pow(a, 7) == f8.one


def test_irreducibility_examples(f2):
    pf2 = f2.base
    pf3 = gf.default_fq_ctx(3).base
    assert not gf.is_irreducible(pf2, (1, 0, 1))
    assert gf.is_irreducible(pf2, (1, 1, 1))
    assert gf.is_irreducible(pf3, (1, 0, 1))
    assert gf.is_irreducible(pf2, (1, 1, 0, 0, 1))  # T^4+T+1
    # (T^6-1)/(T-1) factors as (T+1)(T^2+T+1)^2 over F_2
    assert not gf.is_irreducible(pf2, (1, 1, 1, 1, 1, 1))


@pytest.mark.parametrize("q, top", [(2, 10), (3, 5), (4, 5)])
def test_is_irreducible_counts_every_degree(q, top):
    """Over every monic polynomial of degree m <= top, exactly count_irreducible(q, m) pass.

    is_irreducible refuses f with f(0) = 0 and m >= 2 before it builds a
    kernel: T is then a proper factor, and such moduli are 1/q of the
    random draws of find_primitive_polynomial, so the early refusal saves
    that many kernel builds.  The count checks that it refuses nothing
    else.  At q = 2 and 3 the prime field and its FqCtx are both run.
    """
    fq = gf.default_fq_ctx(q)
    fields = [fq, fq.base] if fq.e == 1 else [fq]
    for field in fields:
        elements = [fq.element_from_int(v) for v in range(q)] if field is fq else list(range(q))
        for m in range(1, top + 1):
            found = 0
            for v in range(q**m):
                f = []
                for _ in range(m):
                    v, c = divmod(v, q)
                    f.append(elements[c])
                found += gf.is_irreducible(field, tuple(f) + (field.one,))
            assert found == irreducible.count_irreducible(q, m), (field, m)


def test_frobenius_is_automorphism(f8):
    rng = random.Random(47)
    assert gf.frobenius(f8, f8.one) == f8.one
    f4 = gf.FqnCtx(gf.default_fq_ctx(2), 2, ((1,), (1,), (1,)))
    assert gf.frobenius(f4, ((), (1,))) == ((1,), (1,))
    for _ in range(40):
        a = f8.element_from_int(rng.randrange(8))
        b = f8.element_from_int(rng.randrange(8))
        fa, fb = gf.frobenius(f8, a), gf.frobenius(f8, b)
        assert gf.frobenius(f8, f8.mul(a, b)) == f8.mul(fa, fb)
        assert gf.frobenius(f8, f8.add(a, b)) == f8.add(fa, fb)
        x = a
        for _ in range(3):
            x = gf.frobenius(f8, x)
        assert x == a


def test_minimal_polynomial(f2, f8):
    f4 = gf.FqnCtx(f2, 2, ((1,), (1,), (1,)))
    u = ((), (1,))
    assert gf.minimal_polynomial(f4, u) == ((1,), (1,), (1,))
    assert gf.minimal_polynomial(f8, f8.generator) == ((1,), (1,), (), (1,))
    with pytest.raises(ConjugatesCollide):
        gf.minimal_polynomial(f8, f8.one)
    # n = 1: T - a
    f31 = gf.FqnCtx(gf.default_fq_ctx(3), 1, ((1,), (1,)))  # T+1 = T-2
    assert gf.certify_primitive(f31, gf.factorize(f31.order))
    a = f31.element_from_int(2)
    assert gf.minimal_polynomial(f31, a) == ((1,), (1,))


def test_minimal_polynomial_is_irreducible_with_root(f8):
    rng = random.Random(53)
    for _ in range(15):
        a = f8.element_from_int(rng.randrange(8))
        try:
            mp = gf.minimal_polynomial(f8, a)
        except ConjugatesCollide:
            continue
        assert len(mp) == 4 and mp[-1] == f8.base.one
        assert gf.is_irreducible(f8.base, mp)
        # evaluate at every conjugate
        conj = a
        for _ in range(3):
            acc = f8.zero
            for coeff in reversed(mp):
                acc = f8.add(f8.mul(acc, conj), (coeff,) if coeff != () else ())
            assert f8.is_zero(acc)
            conj = gf.frobenius(f8, conj)


@pytest.mark.parametrize("p, top", [(2, 4), (3, 3), (5, 2)])
def test_minimal_polynomial_matches_the_conjugate_product_in_every_small_ring(p, top):
    """Every monic F of degree <= top over F_p, reducible ones included, and every element.

    The recurrence path returns the conjugate product's polynomial or raises
    the exception type that the product raises.
    """
    base = gf.default_fq_ctx(p)
    outcomes = set()
    for m in range(1, top + 1):
        for v in range(p**m):
            modulus = tuple(base.element_from_int(v // p**i % p) for i in range(m)) + (base.one,)
            ctx, ref = gf.FqnCtx(base, m, modulus, _verified=True), _RefExt(base, modulus)
            for w in range(p**m):
                a = ctx.element_from_int(w)
                try:
                    expected = _ref_minimal_polynomial(ref, a, m)
                except (ConjugatesCollide, CoefficientNotInBase) as exc:
                    with pytest.raises(type(exc)):
                        gf.minimal_polynomial(ctx, a)
                    outcomes.add(type(exc))
                else:
                    assert gf.minimal_polynomial(ctx, a) == expected, (modulus, a)
                    outcomes.add(None)
    assert outcomes == {None, ConjugatesCollide, CoefficientNotInBase}


def test_minimal_polynomial_never_returns_a_lower_degree_in_a_ring():
    """F = (T^3+T+1)(T^4+T+1)T^5 over F_2 and a = T^32.

    Modulo the first two factors a is a conjugate of T, of degree 3 and 4,
    and modulo T^5 it is 0, so its 12 conjugates are distinct and
    Frob^12(a) = a, but its annihilator has degree 8.  The conjugate product
    leaves F_2 there; the recurrence has length 8 and is refused.
    """
    f2 = gf.default_fq_ctx(2)
    modulus = tuple((c,) if c else () for c in (0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1))
    ctx = gf.FqnCtx(f2, 12, modulus, _verified=True)
    a = ctx.pow(ctx.generator, 32)
    with pytest.raises(CoefficientNotInBase):
        _ref_minimal_polynomial(_RefExt(f2, modulus), a, 12)
    with pytest.raises(InvariantViolated):
        gf.minimal_polynomial(ctx, a)


@pytest.mark.parametrize("q, n", [(2, 20), (3, 7), (5, 4)])
def test_a_corrupted_trace_vector_fails_the_recurrence_checks(q, n):
    """One trace off by one: never a wrong polynomial, and InvariantViolated at low j.

    Tr(T^j) for j >= n reaches the sequence only through a^n's coordinates
    j-n+1.., so a corrupted top entry can go unread; every other entry is
    read by every element here.
    """
    good = primitive_field(q, n)
    rng = random.Random(n)
    elements = [gf.generator_power(good, rng.randrange(1, good.order)) for _ in range(5)]
    expected = [gf.minimal_polynomial(good, a) for a in elements]
    width, top = good.kernel._rowbits, 2 * n - 2
    for j in range(2 * n - 1):  # Tr(T^j) sits in slot 2n-2-j
        ctx = gf.FqnCtx(good.base, n, good.modulus)
        assert gf.minimal_polynomial(ctx, elements[0]) == expected[0]
        slot = ctx._traces >> (top - j) * width & ctx.kernel._wmask
        ctx._traces += ((slot + 1) % q - slot) << (top - j) * width
        for a, polynomial in zip(elements, expected):
            try:
                assert gf.minimal_polynomial(ctx, a) == polynomial
            except InvariantViolated:
                continue
            assert j >= n + 1, (j, a)


@pytest.mark.parametrize("q, n, ell", [(2, 20, 10), (2, 20, 4), (3, 6, 3), (2**16, 3, 1), (4, 6, 2)])
def test_a_subfield_element_still_collides(q, n, ell):
    ctx = primitive_field(q, n)
    step = ctx.order // (q**ell - 1)  # g^step generates F_(q^ell)
    for k in (1, 2, q**ell - 2):
        with pytest.raises(ConjugatesCollide):
            gf.minimal_polynomial(ctx, gf.generator_power(ctx, k * step))


STRAUS_FIELDS = [(2**16, 3), (2**16, 2), (257, 3), (16, 2)]


@pytest.fixture(scope="module")
def straus_fields():
    return [primitive_field(q, n) for q, n in STRAUS_FIELDS]


def test_the_kernel_rule_picks_straus_where_it_pays(straus_fields):
    assert all(ctx.kernel._straus for ctx in straus_fields)
    for q, n in ((2, 2), (2, 20), (4, 6), (16, 4), (3, 7), (7, 3)):
        assert not primitive_field(q, n).kernel._straus, (q, n)
    assert not gf.default_fq_ctx(2**16).kernel._straus  # n = 1: one digit


@hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.sampled_from(range(len(STRAUS_FIELDS))), st.data())
def test_straus_powering_equals_binary_powering(straus_fields, which, data):
    ctx = straus_fields[which]
    k, size = ctx.kernel, ctx.size
    x = data.draw(st.sampled_from([0, k.one, k.t]) | st.integers(0, size - 1).map(k.from_int))
    drawn = data.draw(st.integers(1, size**2))
    for e in (1, ctx.q - 1, ctx.q, size - 2, size - 1, size, size + 1, drawn):
        assert k._straus_pow(x, e) == k._binary_pow(x, e) == k.pow(x, e), (ctx, x, e)


def test_the_first_straus_power_on_a_fresh_kernel_does_not_recurse(monkeypatch):
    field = primitive_field(2**16, 3)
    kernel = gf._Packed(field.base.p, field.base.g, field.modulus)
    assert kernel._straus and kernel._frob is None
    depth, deepest = [0], [0]
    pow_ = gf._Packed.pow

    def counted(self, x, e):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return pow_(self, x, e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gf._Packed, "pow", counted)
    x = kernel.from_int(123456789)
    assert kernel.pow(x, 2**16 + 5) == kernel._binary_pow(x, 2**16 + 5)
    assert deepest == [1] and kernel._frob is not None


def test_fq_element_from_int_refuses_values_outside_the_field():
    for q in (2, 9, 2**16):
        ctx = gf.default_fq_ctx(q)
        assert ctx.element_from_int(0) == () and ctx.element_from_int(q - 1)
        for v in (-1, q):
            with pytest.raises(ValueError):
                ctx.element_from_int(v)


def test_find_primitive_polynomial(f2):
    ctx = gf.find_primitive_polynomial(f2, 2, [3], rng_seed=0)
    assert ctx.modulus == ((1,), (1,), (1,)) and ctx.primitive
    ctx3 = gf.find_primitive_polynomial(f2, 3, [7], rng_seed=1)
    assert ctx3.modulus in (((1,), (1,), (), (1,)), ((1,), (), (1,), (1,)))
    # determinism
    again = gf.find_primitive_polynomial(f2, 3, [7], rng_seed=1)
    assert again.modulus == ctx3.modulus
    # q=3, n=1: T - 2
    f3 = gf.default_fq_ctx(3)
    c = gf.find_primitive_polynomial(f3, 1, [2], rng_seed=0)
    assert c.modulus == ((1,), (1,))  # T + 1 == T - 2 over F_3
    with pytest.raises(BadFactorization):
        gf.find_primitive_polynomial(f2, 3, [7, 2], rng_seed=0)
    with pytest.raises(BadFactorization):
        gf.find_primitive_polynomial(f2, 3, [21], rng_seed=0)


def test_find_primitive_polynomial_gives_up_on_a_broken_field(f2, monkeypatch):
    """With no draw irreducible, the search stops after 1024*n draws instead of looping."""
    draws = []
    monkeypatch.setattr(gf, "is_irreducible", lambda base, f: draws.append(f) and False)
    with pytest.raises(InvariantViolated):
        gf.find_primitive_polynomial(f2, 5, [31], rng_seed=0)
    assert len(draws) == 1024 * 5


def test_a_broken_packed_multiply_fails_at_once(f2, monkeypatch):
    """An unreduced multiply fails the first kernel's self-check, not a whole search."""
    calls = []

    def unreduced(self, x, y):
        calls.append((x, y))
        return self._mod_p(x * y)

    monkeypatch.setattr(gf._Packed, "mul", unreduced)
    with pytest.raises(InvariantViolated):
        gf.default_fq_ctx(4)
    assert len(calls) == 1
    with pytest.raises(InvariantViolated):
        gf.find_primitive_polynomial(f2, 20, gf.factorize(2**20 - 1), rng_seed=1)
    assert len(calls) == 2


def test_primitive_powers_exhaust_group(f2):
    for n in (2, 3, 4, 6):
        ctx = gf.find_primitive_polynomial(
            f2, n, gf.factorize(2**n - 1), rng_seed=13
        )
        seen = set()
        x = ctx.one
        for _ in range(2**n - 1):
            seen.add(x)
            x = ctx.mul(x, ctx.generator)
        assert len(seen) == 2**n - 1
        assert x == ctx.one


GENERATOR_FIELDS = [(2, 1), (5, 1), (2, 20), (4, 6), (2**16, 3)]


@pytest.fixture(scope="module")
def primitive_fields():
    return [gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, gf.factorize(q**n - 1), 1)
            for q, n in GENERATOR_FIELDS]


def test_generator_power_reaches_every_table_entry(primitive_fields):
    """Entry 15i + d - 1 is g^(d*16^i), and g^(d*16^i) reads it alone when it is <= order."""
    for ctx in primitive_fields:
        gf.generator_power(ctx, 1)
        table = ctx.generator_powers
        rows = -(-ctx.order.bit_length() // 4)
        assert len(table) == 15 * rows
        for i in range(rows):
            for d in range(1, 16):
                e = d * 16**i
                power = ctx.pow(ctx.generator, e)
                assert ctx.kernel.unpack(table[15 * i + d - 1]) == power, (ctx, i, d)
                if e <= ctx.order:
                    assert gf.generator_power(ctx, e) == power, (ctx, e)
        assert ctx.generator_powers is table and len(table) == 15 * rows  # built once


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.sampled_from(range(len(GENERATOR_FIELDS))), st.data())
def test_generator_power_matches_pow(primitive_fields, which, data):
    ctx = primitive_fields[which]
    drawn = data.draw(st.integers(0, ctx.order))
    for e in (0, 1, ctx.order - 1, ctx.order, drawn):
        assert gf.generator_power(ctx, e) == ctx.pow(ctx.generator, e), (ctx, e)


def test_generator_power_refuses_exponents_outside_the_group(primitive_fields):
    for ctx in primitive_fields:
        for e in (-1, ctx.order + 1):
            with pytest.raises(ValueError):
                gf.generator_power(ctx, e)


def test_advice_round_trip(tmp_path):
    f9 = gf.default_fq_ctx(9)
    ctx = gf.find_primitive_polynomial(f9, 2, gf.factorize(80), rng_seed=5)
    text = gf.format_advice(ctx, factors=gf.factorize(80))
    back = gf.parse_advice(text)
    assert back.modulus == ctx.modulus and back.primitive
    path = tmp_path / "advice.txt"
    path.write_text(text)
    assert gf.load_advice(path).modulus == ctx.modulus
    # factors line optional at desk scale
    assert gf.parse_advice(gf.format_advice(ctx)).primitive


def test_advice_rejects_bad_input(f2):
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("2 1\n2\n")  # truncated
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("4 1\n2\n1 1 1\n")  # p not prime
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("2 1\n2\n1 0 1\n")  # T^2+1 reducible
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("2 1\n2\n1 1 1\nfactors 5\n")  # wrong factorization
    # irreducible but not primitive: T^2+1 over F_3 has order-4 root, group order 8
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("3 1\n2\n1 0 1\n")
    # non-monic
    with pytest.raises(InvalidAdvice):
        gf.parse_advice("2 1\n2\n1 1 0\n")


def test_kernel_basis():
    """The zero map's kernel is all of F_{q^n}, and a -> Frob(a) - a fixes F_q alone."""
    for q, n in ((2, 5), (5, 1), (9, 3), (2**16, 2)):
        k = primitive_field(q, n).kernel
        powers = [k.from_int(q**i) for i in range(n)]  # T^0, ..., T^(n-1)
        assert gf.fq_kernel_basis(k, [0] * n) == powers
        assert gf.fq_kernel_basis(k, [k.sub(k.frobenius(t), t) for t in powers]) == [k.one]


@pytest.mark.parametrize("q, n", [(2, 5), (2, 10), (3, 4), (4, 3), (5, 2), (9, 3), (32, 2)])
def test_kernel_basis_of_random_maps(q, n):
    """Random images of every rank: the basis spans the enumerated kernel, in reduced form."""
    fctx = primitive_field(q, n)
    k, rng = fctx.kernel, random.Random(q * 100 + n)
    scalars = [k.from_int(c) for c in range(q)]
    for rank in list(range(n + 1)) * 2:
        spanning = [k.from_int(rng.randrange(q**n)) for _ in range(rank)]
        images = []
        for _ in range(n):
            image = 0
            for v in spanning:
                image = k.add(image, k.mul(rng.choice(scalars), v))
            images.append(image)
        kernel = set()
        for v in range(q**n):
            image = 0
            for i in range(n):
                image = k.add(image, k.mul(scalars[v // q**i % q], images[i]))
            if not image:
                kernel.add(k.from_int(v))
        basis = gf.fq_kernel_basis(k, images)
        span = packed_span(k, basis)
        assert span == kernel and len(span) == q ** len(basis)
        assert_reduced_echelon([k.unpack(b) for b in basis], fctx.base.one)


# The packed conversions as they were written on a bytearray, slot (i, k) at
# byte i*(2e-1)*wb + k*wb: the reference for _Packed's shift-based ones.


def _ref_pack(kernel, a):
    buf, wb, rowb = bytearray(kernel._ebytes), kernel._wb, kernel._rowb
    for i, c in enumerate(a):
        for k, v in enumerate(c):
            at = i * rowb + k * wb
            buf[at:at + wb] = v.to_bytes(wb, "little")
    return int.from_bytes(buf, "little")


def _ref_unpack(kernel, x):
    b, wb, out = x.to_bytes(kernel._ebytes, "little"), kernel._wb, []
    for at in range(0, kernel._ebytes, kernel._rowb):
        row = [int.from_bytes(b[o:o + wb], "little") for o in range(at, at + kernel.e * wb, wb)]
        while row and not row[-1]:
            row.pop()
        out.append(tuple(row))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ref_slots(kernel):
    return [i * kernel._rowb + k * kernel._wb for i in range(kernel.n) for k in range(kernel.e)]


def _ref_from_int(kernel, v):
    buf, wb = bytearray(kernel._ebytes), kernel._wb
    for at in _ref_slots(kernel):
        v, c = divmod(v, kernel.p)
        buf[at:at + wb] = c.to_bytes(wb, "little")
    return int.from_bytes(buf, "little")


def _ref_to_int(kernel, x):
    b, wb, v = x.to_bytes(kernel._ebytes, "little"), kernel._wb, 0
    for at in reversed(_ref_slots(kernel)):
        v = v * kernel.p + int.from_bytes(b[at:at + wb], "little")
    return v


def _check_conversions(ctx, rng, as_rows):
    """ctx's packed conversions equal the bytearray ones on random elements and products."""
    kernel = ctx.kernel
    values = [0, 1, ctx.size - 1] + [rng.randrange(ctx.size) for _ in range(40)]
    elements = []
    for v in values:
        x = kernel.from_int(v)
        assert x == _ref_from_int(kernel, v)
        assert kernel.to_int(x) == _ref_to_int(kernel, x) == v
        a = ctx.element_from_int(v)
        assert as_rows(a) == _ref_unpack(kernel, x)
        assert ctx._pack(a) == _ref_pack(kernel, as_rows(a)) == x
        assert ctx.element_to_int(a) == v
        elements.append(x)
    for x, y in zip(elements, elements[1:]):
        z = kernel.mul(x, y)
        assert as_rows(ctx._unpack(z)) == _ref_unpack(kernel, z)


@pytest.mark.parametrize("q, n", FIELDS)
def test_fqn_conversions_match_bytearray_reference(q, n):
    base = gf.default_fq_ctx(q)
    ctx = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), 1)
    _check_conversions(ctx, random.Random(q * 100 + n), lambda a: a)


@pytest.mark.parametrize("q", [2, 4, 9, 2**16, 343])
def test_fq_conversions_match_bytearray_reference(q):
    ctx = gf.default_fq_ctx(q)
    _check_conversions(ctx, random.Random(q), lambda a: (a,) if a else ())
