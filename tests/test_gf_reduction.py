"""The packed kernel's Barrett reduction against gf.pmul / gf.pmod.

`_Packed.mul` and `pow` reduce a Kronecker product in u and in T by Barrett
quotients and take every slot mod p by a multiply-shift.  Each check here
compares them with the generic tuple routines over F_p[u]/g, on:

  * worst-case operands: every coordinate p-1, with every coefficient of g
    and F below the leading one p-1 as well; every slot that any step takes
    mod p is also checked against the kernel's bound V = n*e*p^2;
  * random operands over random reducible moduli, g = (u - a)*g' and
    F = (T - b)*F';

for every n in {1, 2, 3, 8}, e in {1, 2, 3, 16} and p in
{2, 3, 257, 65537, 2^61-1}.
"""

import random

import pytest

from conftest import RefQuotient
from necklaces import gf

KERNELS = [(n, e, p) for n in (1, 2, 3, 8) for e in (1, 2, 3, 16)
           for p in (2, 3, 257, 65537, 2**61 - 1)]


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
    _checked_mod_p(kernel, n * e * p * p)
    x = (top,) * n
    _check(kernel, ref, x, x)


def _times_linear(ring, rest, c):
    """(X - c) * rest over ring."""
    return gf.pmul(ring, (ring.sub(ring.zero, c), ring.one), rest)


@pytest.mark.parametrize("n, e, p", KERNELS)
def test_random_reducible_moduli(n, e, p):
    rng = random.Random(f"{n} {e} {p}")
    fp = gf._PrimeField(p)
    for _ in range(2):
        g = _times_linear(fp, tuple(rng.randrange(p) for _ in range(e - 1)) + (1,),
                          rng.randrange(p))
        ring = RefQuotient(p, g, ((1,),))

        def element():
            return gf.pstrip(fp, tuple(rng.randrange(p) for _ in range(e)))

        F = _times_linear(ring, tuple(element() for _ in range(n - 1)) + ((1,),), element())
        kernel, ref = gf._Packed(p, g, F), RefQuotient(p, g, F)
        assert len(g) == e + 1 and len(F) == n + 1
        x, y = tuple(element() for _ in range(n)), tuple(element() for _ in range(n))
        _check(kernel, ref, x, y)
