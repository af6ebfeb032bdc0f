"""The packed kernel's Barrett reduction against gf.pmul / gf.pmod.

`_Packed.mul` and `pow` reduce a Kronecker product in u and in T by Barrett
quotients and take every slot mod p by a multiply-shift.  Each check here
compares them with the generic tuple routines over F_p[u]/g, on:

  * worst-case operands: every coordinate p-1, with every coefficient of g
    and F below the leading one p-1 as well; every slot that any step takes
    mod p is also checked against the kernel's bound
    V' = (n*e + 1)(p-1)^2 + 2p (gf module docstring, step 5);
  * random operands over random reducible moduli, g = (u - a)*g' and
    F = (T - b)*F';

for every n in {1, 2, 3, 8}, e in {1, 2, 3, 16} and p in
{2, 3, 257, 65537, 2^61-1}, and at n = e = 16, p = 2, where V' = 261
needs two-byte slots.  The Barrett constant mu_F is compared with
the quotient of gf.pdivmod on the same grid and at q^n = 2^64, 2^128 and
3^40, and a kernel whose mu_F or mu_g is wrong in one row has to fail its
own self-check.  The slot width is the least whole number of bytes that
holds V' (p = 2) or the multiply-shift's V'*m (odd p), and the trace
recurrence of prime-field minimal polynomials stays within V' too.
"""

import random

import pytest

from conftest import RefQuotient
from necklaces import gf
from necklaces.errors import InvariantViolated

KERNELS = [(n, e, p) for n in (1, 2, 3, 8) for e in (1, 2, 3, 16)
           for p in (2, 3, 257, 65537, 2**61 - 1)] + [(16, 16, 2)]


def slot_bound(n, e, p):
    """V' of the gf module docstring's step 5."""
    return (n * e + 1) * (p - 1) ** 2 + 2 * p


def _check(kernel, ref, x, y):
    px, py = kernel.pack(x), kernel.pack(y)
    assert kernel.unpack(kernel.mul(px, py)) == ref.product(x, y)
    assert kernel.unpack(kernel.pow(px, 5)) == ref.power(x, 5)
    assert kernel.pow(px, 0) == kernel.pack(ref.power(x, 0))


def _checked_mod_p(kernel, bound):
    """Wrap kernel._mod_p so that every slot handed to it is checked against bound."""
    mod_p, width, mask = kernel._mod_p, kernel._bits, kernel._wmask

    def checked(z):
        assert z >= 0
        rest = z
        while rest:
            assert rest & mask <= bound
            rest >>= width
        return mod_p(z)

    kernel._mod_p = checked


@pytest.mark.parametrize("n, e, p", KERNELS)
def test_worst_case_operands(n, e, p):
    top = (p - 1,) * e
    g, F = top + (1,), (top,) * n + ((1,),)
    kernel, ref = gf._Packed(p, g, F), RefQuotient(p, g, F)
    _checked_mod_p(kernel, slot_bound(n, e, p))
    x = (top,) * n
    _check(kernel, ref, x, x)


def _times_linear(ring, rest, c):
    """(X - c) * rest over ring."""
    return gf.pmul(ring, (ring.sub(ring.zero, c), ring.one), rest)


def _reducible_moduli(n, e, p, count=2):
    """count pairs (g, F) with g = (u - a)*g' and F = (T - b)*F', drawn from a seeded rng.

    Each pair comes with an element() that draws a reduced coordinate
    tuple from the same rng.
    """
    rng = random.Random(f"{n} {e} {p}")
    fp = gf._PrimeField(p)

    def element():
        return gf.pstrip(fp, tuple(rng.randrange(p) for _ in range(e)))

    for _ in range(count):
        g = _times_linear(fp, tuple(rng.randrange(p) for _ in range(e - 1)) + (1,),
                          rng.randrange(p))
        ring = RefQuotient(p, g, ((1,),))
        F = _times_linear(ring, tuple(element() for _ in range(n - 1)) + ((1,),), element())
        assert len(g) == e + 1 and len(F) == n + 1
        yield g, F, element


@pytest.mark.parametrize("n, e, p", KERNELS)
def test_random_reducible_moduli(n, e, p):
    for g, F, element in _reducible_moduli(n, e, p):
        kernel, ref = gf._Packed(p, g, F), RefQuotient(p, g, F)
        x, y = tuple(element() for _ in range(n)), tuple(element() for _ in range(n))
        _check(kernel, ref, x, y)


def _check_constants(p, g, F):
    """The kernel's mu_F, T^n - F and T^(2n-2) mod F against gf.pdivmod over F_p[u]/g."""
    n = len(F) - 1
    kernel, ring = gf._Packed(p, g, F), RefQuotient(p, g, F)
    quotient, remainder = gf.pdivmod(ring, ((),) * (2 * n - 2) + ((1,),), ring.F)
    assert kernel._mu_F == kernel.pack(quotient)
    assert kernel._neg_F == kernel.pack(gf.pmod(ring, ((),) * n + ((1,),), ring.F))  # T^n - F
    top = kernel.pack(((),) * (n - 1) + ((1,),))
    assert kernel.unpack(kernel.mul(top, top)) == remainder


@pytest.mark.parametrize("n, e, p", KERNELS)
def test_mu_F_is_the_quotient_on_the_grid(n, e, p):
    top = (p - 1,) * e
    _check_constants(p, top + (1,), (top,) * n + ((1,),))
    for g, F, _element in _reducible_moduli(n, e, p):
        _check_constants(p, g, F)


IRREDUCIBLE = [
    (2, (1, 1, 0, 1, 1) + (0,) * 59 + (1,)),  # T^64 + T^4 + T^3 + T + 1
    (2, (1, 1, 1, 0, 0, 0, 0, 1) + (0,) * 120 + (1,)),  # T^128 + T^7 + T^2 + T + 1
    (3, (2, 1) + (0,) * 38 + (1,)),  # T^40 + T + 2
]


@pytest.mark.parametrize("p, f", IRREDUCIBLE, ids=["2^64", "2^128", "3^40"])
def test_mu_F_is_the_quotient_at_large_degree(p, f):
    fp = gf._PrimeField(p)
    assert gf.is_irreducible(fp, f)
    as_rows = tuple((c,) if c else () for c in f)
    _check_constants(p, (0, 1), as_rows)
    # the same degree with the factor T - 1: (T - 1) * (f - f(0)) / T
    reducible = _times_linear(RefQuotient(p, (0, 1), ((1,),)), as_rows[1:], (1,))
    assert len(reducible) == len(f)
    assert not gf.is_irreducible(fp, tuple(c[0] if c else 0 for c in reducible))
    _check_constants(p, (0, 1), reducible)


@pytest.mark.parametrize("constant, p, g, F", [
    ("_mu_F", 2, (0, 1), ((1,), (1,), (), (), (1,))),  # F = T^4 + T + 1, mu_F = T^2
    ("_mu_g", 2, (1, 1, 0, 0, 1), ((), (1,))),  # g = u^4 + u + 1, mu_g = u^2
])
def test_a_wrong_quotient_row_fails_the_self_check(monkeypatch, constant, p, g, F):
    """Row (or slot) 0 of the quotient, flipped before the self-check's first multiply.

    A product by T (or u) alone reads only the quotient's leading row, so
    T^(n-1) * T = T^n - F still holds with row 0 wrong; the self-check
    squares T^(n-1) (u^(e-1)), whose quotient is the whole constant.
    """
    good = gf._Packed(p, g, F)
    wrong = gf._Packed(p, g, F)
    setattr(wrong, constant, getattr(wrong, constant) ^ 1)
    n, e = good.n, good.e
    lead = (1 << (n - 1) * good._rowbits) if constant == "_mu_F" else (1 << (e - 1) * good._bits)
    step = good.t if constant == "_mu_F" else 1 << good._bits
    assert wrong.mul(lead, step) == good.mul(lead, step)
    assert wrong.mul(lead, lead) != good.mul(lead, lead)

    mul = gf._Packed.mul

    def flipped_first(self, x, y):
        if not getattr(self, "flipped", False):
            self.flipped = True
            setattr(self, constant, getattr(self, constant) ^ 1)
        return mul(self, x, y)

    monkeypatch.setattr(gf._Packed, "mul", flipped_first)
    with pytest.raises(InvariantViolated):
        gf._Packed(p, g, F)


@pytest.mark.parametrize("n, e, p", KERNELS)
def test_slots_are_the_least_bytes_that_hold_the_bound(n, e, p):
    """At p = 2 a slot holds V' itself (mod 2 is an AND); at odd p the
    multiply-shift is exact below V' and its products V'*m fit."""
    kernel = gf._Packed(p, (0,) * e + (1,), ((),) * n + ((1,),))
    held = slot_bound(n, e, p)
    if p > 2:
        assert 2**kernel._s > held * p and kernel._m == -(-2**kernel._s // p)
        held *= kernel._m
    assert kernel._bits == 8 * -(-held.bit_length() // 8)


@pytest.mark.parametrize("q, n, bits", [
    (2, 20, 8), (4, 6, 8), (2**16, 3, 8), (2, 16, 8), (2, 64, 8), (2, 128, 8), (3, 40, 16),
    (2**16, 16, 16)])  # n*e = 256: V' = 261 needs two bytes
def test_slot_widths(q, n, bits):
    base = gf.default_fq_ctx(q)
    assert gf._Packed(base.p, base.g, ((1,),) + ((),) * (n - 1) + ((1,),))._bits == bits


@pytest.mark.parametrize("q, n", [(2, 20), (2, 64), (3, 40), (5, 6), (2**61 - 1, 2)])
def test_trace_recurrence_stays_within_the_bound(q, n):
    """The trace reads and the vanishing check of e = 1 minimal polynomials."""
    ctx = gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, gf.factorize(q**n - 1), 1)
    _checked_mod_p(ctx.kernel, slot_bound(n, 1, q))
    rng, top = random.Random(q), ((q - 1,),) * n
    for a in [top] + [ctx.element_from_int(rng.randrange(1, ctx.size)) for _ in range(20)]:
        poly = gf.minimal_polynomial(ctx, a)
        assert len(poly) == n + 1 and poly[-1] == (1,)
