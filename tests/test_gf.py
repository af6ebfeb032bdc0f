import random

import pytest

from necklaces import gf
from necklaces.errors import (
    BadFactorization,
    ConjugatesCollide,
    InvalidAdvice,
)


@pytest.fixture(scope="module")
def f2():
    return gf.default_fq_ctx(2)


@pytest.fixture(scope="module")
def f8(f2):
    return gf.FqnCtx(f2, 3, ((1,), (1,), (), (1,)), primitive=True)  # T^3+T+1


def test_primality_and_factorize():
    assert gf.is_probable_prime(2)
    assert gf.is_probable_prime(2**61 - 1)
    assert not gf.is_probable_prime(2**61 + 1)
    assert gf.factorize(1) == []
    assert gf.factorize(360) == [2, 2, 2, 3, 3, 5]
    assert gf.factorize(2**31 - 1) == [2147483647]
    assert gf.factorize((2**31 - 1) * 97) == [97, 2147483647]


def test_primality_beyond_the_fixed_base_bound():
    # psi_12 and psi_13: the least strong pseudoprimes to all prime bases up
    # to 37 and to 41, which a Miller-Rabin test on bases 2..37 accepts
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert not gf.is_probable_prime(psi12)
    assert not gf.is_probable_prime(psi13)
    assert gf.factorize(psi12) == [399165290221, 798330580441]
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
    f31 = gf.FqnCtx(gf.default_fq_ctx(3), 1, ((1,), (1,)), primitive=True)  # T+1 = T-2
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
    f3 = gf.default_fq_ctx(3)
    rows = [
        [f3.one, f3.element_from_int(2), f3.zero],
        [f3.zero, f3.zero, f3.zero],
    ]
    basis = gf.fq_kernel_basis(f3, rows, 3)
    assert len(basis) == 2
    for vec in basis:
        s = f3.zero
        for coeff, v in zip(rows[0], vec):
            s = f3.add(s, f3.mul(coeff, v))
        assert s == f3.zero
