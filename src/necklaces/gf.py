"""Finite field towers F_p <= F_q <= F_{q^n} with explicit coefficient vectors.

At the API, elements of F_q = F_p[u]/g(u) are tuples of ints (low degree
first, trailing zeros stripped, () is zero) and elements of
F_{q^n} = F_q[T]/F(T) are tuples of F_q elements in the same convention.
p and q are arbitrary-precision; only the extension degrees need to stay
reasonable.

Inside, all field arithmetic runs on one packed kernel (_Packed) over
R = F_p[u, T]/(g(u), F(T)), g monic of degree e and F monic of degree n,
neither required to be irreducible.  An element's n*e coordinates over F_p
are W-bit slots of one Python int, coordinate (i, k) of T^i u^k in slot
i*(2e-1) + k, so row i (the 2e-1 slots of T^i) has room for a product's
u-degree.  A product x*y is reduced without a loop over slots, by Barrett
reduction (Barrett, CRYPTO '86) with quotients by precomputed inverses
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 9):

  1. z = x*y is one integer multiply (Kronecker substitution): exponents
     add slot-wise without colliding, and every slot is then taken mod p
     by one multiply-shift over all slots.
  2. Barrett in u, every row at once.  Let u^(2e-2) = mu_g*g + rho_g with
     deg rho_g < e.  A row a = h*u^e + l (deg h <= e-2, deg l < e) has the
     quotient Q_u = floor(h*mu_g / u^(e-2)): with R_u = h*mu_g mod u^(e-2),
     a - Q_u*g = l + (h*rho_g + R_u*g) / u^(e-2), whose degree is below e
     because deg h + deg rho_g <= 2e-3 < 2e-2.  As Q_u*g = Q_u*u^e +
     Q_u*(g - u^e), the remainder is the low e slots of a + Q_u*(u^e - g).
     In packed form h is z shifted down e slots and masked to e-1 slots
     per row, and Q_u is h*mu_g shifted down e-2 slots under the same mask:
     no row reaches a slot of its neighbour that the mask keeps.  Skipped
     when e = 1.
  3. Barrett in T over F_q, the same step one level up.  Let
     T^(2n-2) = mu_F*F + rho_F; the rows n..2n-2 of z, reduced in u, form
     h, and Q = floor(h*mu_F / T^(n-2)) is the exact quotient of z by F,
     since deg h + deg rho_F <= 2n-3 < 2n-2.  h*mu_F is taken mod p and
     reduced in u (steps 1 and 2) before its rows n-2.. are taken as Q.
  4. The remainder is the low n rows of z + Q*(T^n - F), taken mod p and
     reduced in u.  Both quotients are exact, so no correction follows.
     Only divisions by the monic g and F occur, which is why neither needs
     to be irreducible (is_irreducible relies on that).
  5. Slot bound.  Before it is taken mod p a slot is at most
     V' = (n*e + 1)(p-1)^2 + 2p.  Site by site, in products of two
     coordinates below p: step 1 and a Frobenius image sum at most n*e of
     them; step 2 at most e-1 and one coordinate; steps 3 and 4 at most
     (n-1)*e and one coordinate; _divide at most e, then a remainder plus
     p minus a coordinate; at e = 1 the trace reads at most n and
     _recurrence_polynomial's vanishing check n+1, counted term by term
     (its leading coefficient 1 and x^0 = 1 hold it to (n-1)(p-1)^2 +
     2(p-1)); add, sub and neg at most 2p-1.  At p = 2 a slot mod 2 is its
     low bit, so every slot is taken mod 2 by one AND with a repunit and W
     only has to hold V'.  For odd p, with 2^s > V'*p and m = ceil(2^s/p),
     floor(v/p) = floor(v*m / 2^s) for every v <= V', so the multiply-shift
     is exact, and W holds V'*m.  W is rounded up to whole bytes for the
     Frobenius map's to_bytes reads; no step carries between slots.  So
     slots are one byte at p = 2 while n*e <= 250, as at (2, 20), (4, 6),
     (2^16, 3), (2, 64) and (2, 128), and two bytes at (3, 40).

mu_g and mu_F are computed once per kernel, each by long division on the
whole packed remainder: a step of the division by F is one multiply, one
reduction and one subtraction over all 2n-1 rows, so a build makes n-1
such steps and no loop over rows or slots.  The masks are one slot
pattern times a repunit, and the constructor checks that both quotients
reproduce their remainders.  The slot layout lives in
_Packed alone: pack_row / unpack_row place one F_q element, and pack /
unpack and from_int / to_int use the same bit offsets.  F_q is the
kernel's n = 1 case F_q[T]/(T), its element in row 0, converted with
pack_row / unpack_row; FqCtx and FqnCtx share one implementation (_Ext)
that converts once per call, and inverses are a^(size-2).
frobenius, minimal_polynomial, is_irreducible and fq_kernel_basis stay
packed throughout; is_irreducible is Rabin's test with its gcd replaced by
a norm (see there).
The generic tuple-polynomial routines (padd, psub, pmul, pdivmod, pmod,
pmonic, pgcd) over a coefficient field object have no production caller:
they are the tests' independent reference arithmetic.

Powers of the generator g, the class of T, come from a fixed-base table
(generator_power): for each hex digit i of the group order q^n - 1, of
b bits, it holds g^(d*16^i), d = 1..15, so 15*ceil(b/4) packed elements
per FqnCtx, built on first use and kept next to subfield_bases.  g^e then
costs one multiply per nonzero hex digit of e and no squaring, against
about 1.5*b multiplies by binary powering.  Irreducible indexing, the BCH
column elements and certify_primitive raise g this way.

Variable bases (BCH entries alpha^m, inv) go through _Packed.pow, which
picks one of two methods per kernel from (q, n) alone.  Straus's
simultaneous powering (Straus, "Addition chains of vectors", 1964; von
zur Gathen and Noecker, "Computing special powers in finite fields", Math.
Comp. 2004) writes k = sum k_i q^i and x^k = prod Frob^i(x)^(k_i): 2^n -
n - 1 table products, n - 1 Frobenius maps (about two multiplies each),
and about ceil(log2 q) squarings and as many multiplies, plus a fixed
Python cost of about 4/e multiplies (the multiplies are cheapest at e = 1).
Binary powering takes about 1.5*bits(q^n - 1).  Straus is taken when n > 1
and its count is the lower, and only for q <= k < q^n (below q there is one
digit; the callers' exponents are below q^n).  So q = 2 fields, (4, 6) and
small prime fields keep binary powering and pay nothing per call, and
(2^16, 3), (2^16, 2), (257, 3) and (16, 2) take Straus.  Byte-wide slots
(step 5) make multiplies at p = 2 cheap, so the fixed cost weighs more
there; measured per power in one process, k drawn from [q, q^n), Straus
against binary: (2^16, 3) 161 against 269 us, (2^16, 2) 79 against 94,
(257, 3) 33 against 40, while at (16, 2) and (16, 3) binary powering is
ahead (14 against 17 us, 35 against 36).  No bench or CLI field is on the
wrong side, so the rule stands.
The Frobenius map's slot images are built from T^q by binary powering,
so a first pow on a fresh kernel does not recurse into them.

The advice file format (normative for interoperability; unchanged by the
packed representation):

    line 1: "p e"
    line 2: coefficients of g over F_p, space-separated, low first
            (omitted entirely when e = 1)
    line 3: "n"
    line 4: coefficients of F over F_q, space-separated, low first; each
            coefficient is a comma-separated F_p vector padded to length e
    line 5: optional "factors r1 r2 ..." (primes of q^n - 1, multiplicity)

Every F_p coordinate on lines 2 and 4 lies in 0..p-1, and no line follows
line 5; parse_advice refuses anything else.
"""

import math
import operator
import random

from .errors import (
    BadFactorization,
    CoefficientNotInBase,
    ConjugatesCollide,
    InvalidAdvice,
    InvariantViolated,
)

# ---------------------------------------------------------------------------
# integer primality and factoring (desk scale)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m):
    """Baillie-PSW: trial division, a strong base-2 test and a strong Lucas test.

    Exact for every m below 2^64 (all base-2 strong pseudoprimes there are
    enumerated, and none passes the Lucas test); above that, no composite
    that passes is known.  The fixed-base Miller-Rabin test it replaces was
    exact only below 3.18e23 (base set 2..37).
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    return _strong_base_2(m) and _strong_lucas(m)


def _strong_base_2(m):
    """Strong probable-prime (Miller-Rabin) test to base 2; m odd."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _jacobi(a, m):
    """Jacobi symbol (a/m) for odd m > 0."""
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def _strong_lucas(m):
    """Strong Lucas test with Selfridge's parameters; m odd, > 37, no small factor."""
    if math.isqrt(m) ** 2 == m:
        return False  # no D with (D/m) = -1 exists
    D = 5
    while (j := _jacobi(D, m)) != -1:
        if j == 0:
            return False  # |D| < m shares a factor with m
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = m + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v):
        return (v + m if v % 2 else v) // 2

    # U_k, V_k of the sequence with P = 1, and Q^k, by binary expansion of d
    U, V, Qk = 1, 1, Q % m
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % m, (V * V - 2 * Qk) % m, Qk * Qk % m
        if bit == "1":
            U, V, Qk = half((U + V) % m), half((D * U + V) % m), Qk * Q % m
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % m, Qk * Qk % m
        if V == 0:
            return True
    return False


def _pollard_rho(m):
    """A nontrivial factor of the composite m: Pollard rho, Brent's cycle finding.

    The differences |x - y| of a batch of steps are multiplied mod m and
    share one gcd; a batch whose gcd reaches m is replayed one step at a
    time from its start.
    """
    if m % 2 == 0:
        return 2
    rng = random.Random(m)
    batch = 128
    while True:
        c = rng.randrange(1, m)
        y = rng.randrange(2, m)
        r, d, prod = 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and d == 1:
                start = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % m
                    prod = prod * abs(x - y) % m
                d = math.gcd(prod, m)
                k += batch
            r *= 2
        if d == m:
            d, y = 1, start
            while d == 1:
                y = (y * y + c) % m
                d = math.gcd(abs(x - y), m)
        if d != m:
            return d


def factorize(m):
    """Prime factors of m with multiplicity, ascending.

    2..13 are divided out; every cofactor then goes to Baillie-PSW and, if
    composite, is split by Pollard rho.  Trial division of the cofactors
    below 10^12 is slower: for 999999999989 (prime) it took 40-80 ms against
    under 0.2 ms, while a smooth order such as 2^48 - 1 costs at most about
    0.1 ms more by rho.
    """
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while m % p == 0:
            out.append(p)
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out.append(m)
            continue
        d2 = _pollard_rho(m)
        stack.extend((d2, m // d2))
    return sorted(out)


# ---------------------------------------------------------------------------
# generic polynomial arithmetic over a coefficient field object: F_p for the
# tower, and the tests' reference routines


class _PrimeField:
    """F_p with plain int elements; the ground level of the tower."""

    def __init__(self, p):
        self.p = p
        self.size = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0


def pstrip(field, c):
    c = list(c)
    while c and field.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def padd(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = field.add(out[i], v)
    return pstrip(field, out)


def psub(field, a, b):
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = field.sub(out[i], v)
    return pstrip(field, out)


def pmul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if field.is_zero(va):
            continue
        for j, vb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(va, vb))
    return pstrip(field, out)


def pdivmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), pstrip(field, rem)
    quo = [field.zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        coef = rem[i]
        if field.is_zero(coef):
            continue
        factor = field.mul(coef, lead_inv)
        quo[i - db] = factor
        for j in range(db + 1):
            rem[i - db + j] = field.sub(rem[i - db + j], field.mul(factor, b[j]))
    return pstrip(field, quo), pstrip(field, rem)


def pmod(field, a, b):
    return pdivmod(field, a, b)[1]


def pmonic(field, a):
    if not a:
        return a
    inv = field.inv(a[-1])
    return pstrip(field, [field.mul(c, inv) for c in a])


def pgcd(field, a, b):
    while b:
        a, b = b, pmod(field, a, b)
    return pmonic(field, a)


def is_irreducible(field, f):
    """Rabin's irreducibility test over the field of size q = field.size.

    f (monic, degree m >= 1) is irreducible iff T^(q^m) = T mod f and, for
    every prime r | m, w = T^(q^(m/r)) - T is a unit of R = F_q[T]/(f), i.e.
    gcd(w, f) = 1.  The unit test needs no division.  Once T^(q^m) = T, the
    Frobenius x -> x^q fixes T, so Frob^m is the identity of R; R is then
    reduced (f is squarefree) and a product of fields F_(q^d) with d | m.
    In the component F_(q^d), the norm N(w) = w Frob(w) ... Frob^(m-1)(w) is
    the field norm of w's component raised to m/d: an element of F_q, zero
    exactly where that component is.  So w is a unit iff N(w)^(q-1) = 1.
    Frob^k(w) = T^(q^(k+m/r)) - T^(q^k) is read off the list of powers, so
    after m Frobenius maps each prime r costs 2m ring operations and one
    (q-1)-th power, all in the packed kernel, which needs no irreducibility
    of f.  An f of degree m >= 2 with f(0) = 0 has the proper factor T and
    is refused before a kernel is built: that is 1/q of the random draws of
    find_primitive_polynomial and every p-th modulus of default_fq_ctx's
    search in integer order.
    """
    m = len(f) - 1
    if m < 1:
        raise ValueError("degree must be at least 1")
    if f[-1] != field.one:
        raise ValueError("polynomial must be monic")
    if m == 1:
        return True
    if isinstance(field, _PrimeField):  # F_p as F_p[u]/(u): coefficients become 1-vectors
        g, f = (0, 1), tuple((c % field.p,) if c % field.p else () for c in f)
    else:
        g = field.g
    if not any(f[0]):
        return False  # T divides f, m >= 2: refused without a kernel
    kernel = _Packed(field.p, g, f)
    powers = [kernel.t]
    for _ in range(m):
        powers.append(kernel.frobenius(powers[-1]))
    if powers[m] != kernel.t:
        return False
    for r in sorted(set(factorize(m))):
        norm = kernel.one
        for k in range(m):
            norm = kernel.mul(norm, kernel.sub(powers[(k + m // r) % m], powers[k]))
        if kernel.pow(norm, kernel.q - 1) != kernel.one:
            return False
    return True


# ---------------------------------------------------------------------------
# the packed kernel: F_p[u, T]/(g(u), F(T)) on packed F_p coordinates


def _repunit(k, w):
    """1 in each of k consecutive w-bit slots: sum of 2^(j*w), j < k."""
    return ((1 << k * w) - 1) // ((1 << w) - 1)


def _takes_straus(q, n, e):
    """Straus against binary powering for x^k in F_{q^n}, q = p^e (module docstring).

    Straus when 2^n + n + 2 bits(q-1) - 4 + 4/e < 1.5 bits(q^n - 1), the
    rule multiplied through by 2e and kept in ints: no degree overflows a
    float.
    """
    b = (q - 1).bit_length()
    return n > 1 and 2 * e * (2**n + n + 2 * b - 4) + 8 < 3 * e * (q**n - 1).bit_length()


class _Packed:
    """Ring arithmetic in F_p[u, T]/(g(u), F(T)), one Python int per element.

    g (F_p coefficients, low first) is monic of degree e; F (coefficients
    are F_p coordinate tuples of F_q = F_p[u]/g, low first) is monic of
    degree n; neither has to be irreducible.  Coordinate (i, k) of T^i u^k
    sits in slot i*(2e-1) + k, W bits wide; a reduced element fills the
    slots with i < n and k < e, every one below p.  mul is steps 1-4 of
    the module docstring, and W is sized for the slot bound
    V' = (n*e + 1)(p-1)^2 + 2p of step 5.  _mod_p takes every slot of the
    2n-1 rows of a product mod p: at p = 2 it is the AND with the repunit
    of those slots, else the multiply-shift below.  The constants, all
    packed:

      * _m, _s (odd p only): the multiply-shift, masked by _qmask over the
        2n-1 rows of a product;
      * _mu_g = floor(u^(2e-2)/g) and _neg_g = u^e - g, one row each, with
        the row masks _uquo (e-1 slots) and _urem (e slots) and the shifts
        _uh_shift (e slots, to h) and _uq_shift (e-2 slots, to Q_u);
      * _mu_F = floor(T^(2n-2)/F) and _neg_F = T^n - F, with _trem, the
        mask of rows below n, and the shifts _th_shift (n rows, to h) and
        _tq_shift (n-2 rows, to Q);
      * _ps, p in every slot of a reduced element: sub and neg add it so
        that no slot goes negative.

    Every mask is a pattern of one row or slot times a _repunit, and mu_g
    and mu_F come from _divide.  A step of the division by F reads row i of
    the remainder into mu_F and subtracts that row times F, shifted i - n
    rows, from all 2n-1 rows at once.  A monic divisor of degree 2 has
    quotient 1, so at e = 2 (n = 2) mul skips the multiply by mu_g (mu_F)
    and its mod p: the quotient is the top slot (row) as it stands.
    """

    one = 1

    def __init__(self, p, g, F):
        e, n = len(g) - 1, len(F) - 1
        stride = 2 * e - 1
        bound = held = (n * e + 1) * (p - 1) ** 2 + 2 * p  # V', step 5
        if p > 2:  # the multiply-shift's products v*m must fit as well
            s = (bound * p).bit_length()
            m = -(-(1 << s) // p)
            held = bound * m
        wb = (held.bit_length() + 7) // 8
        W = 8 * wb
        self.p, self.e, self.n, self.q = p, e, n, p**e
        self._wb, self._bits = wb, W
        self._rowbits, self._rowb = stride * W, stride * wb
        self._wmask, self._rowmask = (1 << W) - 1, (1 << self._rowbits) - 1
        self._ebytes = n * self._rowb
        self._slots = [(i * stride + k) * W for i in range(n) for k in range(e)]  # order i*e + k

        # Masks: a slot pattern times a repunit, one copy per slot or per row.
        slots = _repunit((2 * n - 1) * stride, W)  # 1 in every slot of rows 0..2n-2
        rows = _repunit(2 * n - 1, self._rowbits)  # 1 in slot 0 of rows 0..2n-2
        if p == 2:
            self._mod_p = slots.__and__  # the low bit of every slot
        else:
            self._s, self._m, self._qmask = s, m, ((1 << (W - s)) - 1) * slots
        self._uquo, self._urem = ((1 << (e - 1) * W) - 1) * rows, ((1 << e * W) - 1) * rows
        self._uh_shift, self._uq_shift = e * W, (e - 2) * W
        self._th_shift, self._tq_shift = n * self._rowbits, (n - 2) * self._rowbits
        self._trem = (1 << self._th_shift) - 1
        self._ps = p * _repunit(e, W) * rows & self._trem

        # steps 2 and 3: mu_g = floor(u^(2e-2) / g) and mu_F = floor(T^(2n-2) / F)
        gp, f, P = self.pack_row(g), self.pack(F), p * slots
        self._mu_g, rho_g = self._divide(gp, e, W, P, lambda z: z)
        self._neg_g = self.neg(gp - (1 << e * W))
        self._mu_F, rho_F = self._divide(f, n, self._rowbits, P, self._ureduce)
        self._neg_F = self.neg(f - (1 << self._th_shift))
        self.t = self._neg_F if n == 1 else 1 << self._rowbits  # T = -F_0 when n = 1
        self._frob = None
        self._size = self.q**n
        self._straus = _takes_straus(self.q, n, e)

        # A wrong mul or quotient fails here, not after a search that runs to
        # its bound.  Each remainder has degree below its divisor's, and
        # T^(n-1) * T^(n-1) = rho_F, u^(e-1) * u^(e-1) = rho_g: the quotient
        # of each product is the whole of mu_F, or of mu_g.
        top_t, top_u = 1 << (n - 1) * self._rowbits, 1 << (e - 1) * W
        if (rho_F >> self._th_shift or rho_g >> e * W
                or n > 1 and self.mul(top_t, top_t) != rho_F
                or e > 1 and self.mul(top_u, top_u) != rho_g):
            raise InvariantViolated(
                f"packed multiply of degree {n} over F_{self.q} fails its self-check")

    def _divide(self, f, d, width, P, reduce):
        """floor(X^(2d-2) / f) and X^(2d-2) mod f; f packed, monic of degree d in X = 2^width.

        Long division on the whole packed remainder: step i moves the
        coefficient of X^i into the quotient and subtracts it times f,
        shifted i - d places, as one _mod_p(rem + P - ...).  P holds p in
        every slot, so that no slot goes negative, and reduce takes the
        coefficient times f back to reduced form (mod g for rows of F_q).
        """
        rem, quo, mask = 1 << (2 * d - 2) * width, 0, (1 << width) - 1
        for i in range(2 * d - 2, d - 1, -1):
            c = rem >> i * width & mask
            if c:
                quo |= c << (i - d) * width
                rem = self._mod_p(rem + P - (reduce(self._mod_p(c * f)) << (i - d) * width))
        return quo, rem

    def pack_row(self, c):
        """Packed form of one F_q coordinate tuple c (low first): c[k] at bit k*W."""
        v, w, p = 0, self._bits, self.p
        for ck in reversed(c):
            if not 0 <= ck < p:  # else reduced or carried silently
                raise ValueError(f"coordinate {ck} outside 0..{p - 1}")
            v = (v << w) | ck
        return v

    def unpack_row(self, x):
        """Inverse of pack_row; the loop stops at the last nonzero coordinate."""
        out, w, mask = [], self._bits, self._wmask
        while x:
            out.append(x & mask)
            x >>= w
        return tuple(out)

    def pack(self, a):
        """Packed form of a tuple of F_q coordinate tuples (low first): row i at bit i*(2e-1)*W."""
        v, rowbits, row = 0, self._rowbits, self.pack_row
        for c in reversed(a):
            v = (v << rowbits) | row(c)
        return v

    def unpack(self, x):
        """Inverse of pack, trailing zeros stripped at both levels."""
        out, rowbits, mask, row = [], self._rowbits, self._rowmask, self.unpack_row
        while x:
            out.append(row(x & mask))
            x >>= rowbits
        return tuple(out)

    def _mod_p(self, x):
        """Every slot mod p by the multiply-shift; at p = 2 __init__ binds an AND instead."""
        return x - self.p * (((x * self._m) >> self._s) & self._qmask)

    def _ureduce(self, z):
        """Step 2: every row of z (slots below p) reduced mod g(u)."""
        if self.e == 1:
            return z
        quo = self._uquo
        q = (z >> self._uh_shift) & quo
        if self.e > 2:  # mu_g = 1 at e = 2 (class docstring)
            q = self._mod_p((q * self._mu_g >> self._uq_shift) & quo)
        return self._mod_p((z + q * self._neg_g) & self._urem)

    def from_int(self, v):
        """The element whose coordinate (i, k) is the base-p digit i*e + k of v."""
        x, p = 0, self.p
        for at in self._slots:
            v, c = divmod(v, p)
            x |= c << at
        return x

    def to_int(self, x):
        """Inverse of from_int."""
        v, p, mask = 0, self.p, self._wmask
        for at in reversed(self._slots):
            v = v * p + (x >> at & mask)
        return v

    def add(self, x, y):
        return self._mod_p(x + y)

    def sub(self, x, y):
        return self._mod_p(x + self._ps - y)

    def neg(self, x):
        return self._mod_p(self._ps - x)

    def mul(self, x, y):
        """Steps 1-4 of the module docstring."""
        z = self._mod_p(x * y)
        if self.n == 1:
            return self._ureduce(z)
        h = self._ureduce(z >> self._th_shift)
        q = h if self.n == 2 else self._ureduce(self._mod_p(h * self._mu_F >> self._tq_shift))
        return self._ureduce(self._mod_p((z + q * self._neg_F) & self._trem))

    def pow(self, x, k):
        """x^k: Straus's simultaneous powering where the kernel chose it and
        q <= k < q^n, else binary powering (module docstring)."""
        if self._straus and self.q <= k < self._size:
            return self._straus_pow(x, k)
        return self._binary_pow(x, k)

    def _binary_pow(self, x, k):
        if k == 0:
            return self.one
        result = x
        for bit in bin(k)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, x)
        return result

    def _straus_pow(self, x, k):
        """x^k = prod_i Frob^i(x)^(k_i) over the base-q digits k_i of k, k >= 1.

        table[S] is the product of Frob^i(x) over the bits i of S; one pass
        over the bits of the digits, high first, squares once per bit and
        multiplies by the entry of the digits that have the bit set.
        """
        digits, q = [], self.q
        while k:
            k, d = divmod(k, q)
            digits.append(d)
        table, conjugate = [self.one], x
        for i in range(len(digits)):
            if i:
                conjugate = self.frobenius(conjugate)
            table += [conjugate] + [self.mul(t, conjugate) for t in table[1:]]
        masks = [sum((d >> j & 1) << i for i, d in enumerate(digits))  # the digits with bit j set
                 for j in range(max(digits).bit_length())]
        acc = table[masks.pop()]
        for mask in reversed(masks):
            acc = self.mul(acc, acc)
            if mask:
                acc = self.mul(acc, table[mask])
        return acc

    def frobenius(self, x):
        """x^q: one squaring when q = 2, else the F_q-linear map T^i u^k -> (T^q)^i u^k.

        The map reads n*e slots and adds as many images; at q = 2 one
        product is cheaper than that.  With byte-wide slots the map still
        beats x^q by binary powering at (4, 6), 3.2 against 3.9 us, and at
        (2^16, 3), 12 against 60 us; at q = 3 the two multiplies of x^3 win,
        (3, 12) 3.3 against 3.8 us and (3, 40) 6.4 against 12.4 us, on
        fields no bench or CLI path uses.
        """
        if self.q == 2:
            return self.mul(x, x)
        if self._frob is None:
            tq, power, images = self._binary_pow(self.t, self.q), self.one, []
            for i in range(self.n):
                for k in range(self.e):
                    at = i * self._rowb + k * self._wb
                    images.append((at, self.mul(power, 1 << (self._bits * k))))
                power = self.mul(power, tq)
            self._frob = images
        b, wb, acc = x.to_bytes(self._ebytes, "little"), self._wb, 0
        for at, image in self._frob:
            c = int.from_bytes(b[at:at + wb], "little")
            if c:
                acc += c * image
        return self._mod_p(acc)


# ---------------------------------------------------------------------------
# F_q and F_{q^n}: tuple elements over the packed kernel


class _Ext:
    """Field arithmetic shared by FqCtx and FqnCtx, run on their packed kernel.

    A subclass sets kernel, size, zero and one, and converts its tuple
    elements with _pack / _unpack; every operation packs its operands once
    and unpacks the result once.
    """

    def add(self, a, b):
        return self._unpack(self.kernel.add(self._pack(a), self._pack(b)))

    def sub(self, a, b):
        return self._unpack(self.kernel.sub(self._pack(a), self._pack(b)))

    def neg(self, a):
        return self._unpack(self.kernel.neg(self._pack(a)))

    def mul(self, a, b):
        return self._unpack(self.kernel.mul(self._pack(a), self._pack(b)))

    def pow(self, a, k):
        if k < 0:
            raise ValueError("negative exponent")
        return self._unpack(self.kernel.pow(self._pack(a), k))

    def inv(self, a):
        """a^(size - 2): a^(size - 1) = 1 for every nonzero a of the field."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._unpack(self.kernel.pow(self._pack(a), self.size - 2))

    def is_zero(self, a):
        return a == ()

    def element_from_int(self, v):
        """The element whose F_p coordinates, low first, are the base-p digits of v."""
        if not (0 <= v < self.size):
            raise ValueError("element index out of range")
        return self._unpack(self.kernel.from_int(v))

    def element_to_int(self, a):
        return self.kernel.to_int(self._pack(a))


def check_degree(n):
    if n < 1:
        raise ValueError("extension degree must be positive")


class FqCtx(_Ext):
    """F_q = F_p[u]/g(u), the kernel's n = 1 case F_q[T]/(T); elements are low-first int tuples."""

    def __init__(self, p, e, g=None):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        check_degree(e)
        base = _PrimeField(p)
        if g is None:
            if e != 1:
                raise ValueError("a modulus polynomial is required when e > 1")
            g = (0, 1)
        g = tuple(c % p for c in g)
        if len(g) != e + 1 or g[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if e > 1 and not is_irreducible(base, g):
            raise ValueError("modulus polynomial is reducible")
        self.p = p
        self.e = e
        self.g = g
        self.q = self.size = p**e
        self.base = base
        self.zero = ()
        self.one = (1,)
        self.kernel = _Packed(p, g, ((), (1,)))  # an element sits in row 0
        self._pack, self._unpack = self.kernel.pack_row, self.kernel.unpack_row

    def __repr__(self):
        return f"FqCtx(p={self.p}, e={self.e})"

    def element_from_int(self, v):
        """v's base-p digits, low first and stripped: the element with no kernel round trip."""
        if not (0 <= v < self.size):
            raise ValueError("element index out of range")
        digits = []
        while v:
            v, c = divmod(v, self.p)
            digits.append(c)
        return tuple(digits)


def poly_to_int(ctx, f):
    """Integer order of a low-first polynomial over ctx: sum element_to_int(c_i) q^i.

    The key by which lists of polynomials are ordered; default_fq_ctx searches
    for its modulus in the same order.
    """
    v = 0
    for c in reversed(f):
        v = v * ctx.q + ctx.element_to_int(c)
    return v


def default_fq_ctx(q):
    """Canonical context for F_q: the first irreducible modulus in integer order."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    factors = factorize(q)
    p = factors[0]
    if any(f != p for f in factors):
        raise ValueError(f"{q} is not a prime power")
    e = len(factors)
    if e == 1:
        return FqCtx(p, 1)
    base = _PrimeField(p)
    for v in range(p**e):
        coeffs = []
        rest = v
        for _ in range(e):
            rest, c = divmod(rest, p)
            coeffs.append(c)
        g = tuple(coeffs) + (1,)
        if is_irreducible(base, g):
            return FqCtx(p, e, g)
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# F_{q^n} = F_q[T]/F(T)


class FqnCtx(_Ext):
    """The extension F_q[T]/F(T); elements are low-first tuples of F_q elements."""

    def __init__(self, base, n, modulus, _verified=False):
        check_degree(n)
        modulus = pstrip(base, modulus)
        if len(modulus) != n + 1 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree n")
        if not _verified and n > 1 and not is_irreducible(base, modulus):
            raise ValueError("modulus polynomial is reducible")
        self.base = base
        self.n = n
        self.modulus = modulus
        self.primitive = False  # set by certify_primitive
        self.q = base.q
        self.size = base.q**n
        self.order = self.size - 1
        self.zero = ()
        self.one = (base.one,)
        self.kernel = _Packed(base.p, base.g, modulus)
        self._pack, self._unpack = self.kernel.pack, self.kernel.unpack
        self.generator = self._unpack(self.kernel.t)
        self.subfield_bases = {}  # ell -> basis tuple; filled by bch.subfield_basis
        self.generator_powers = []  # packed g^(d*16^i) at 15i + d - 1; filled by generator_power
        self._traces = None  # packed Tr(T^j), j < 2n - 1, when e = 1; filled by _trace_vector

    def __repr__(self):
        return f"FqnCtx(q={self.q}, n={self.n}, primitive={self.primitive})"

    # bound here too, so that wrapping FqnCtx.mul / pow (bench/tracing.py
    # does) counts F_{q^n} calls and not F_q's
    mul = _Ext.mul
    pow = _Ext.pow


def frobenius(fctx, a):
    """The q-power map, the generating automorphism of F_{q^n} over F_q."""
    k = fctx.kernel
    return k.unpack(k.frobenius(k.pack(a)))


def generator_power(fctx, e):
    """g^e for the class g of T and 0 <= e <= order, from a fixed-base table.

    Row i of the table holds g^(d*16^i) for d = 1..15, one row per hex digit
    of the order, built on first use and kept on fctx; the next row's base
    g^(16^(i+1)) is the row's last entry times its base.  g^e is then the
    product of one entry per nonzero hex digit of e, with no squaring
    (Brickell, Gordon, McCurley and Wilson, "Fast exponentiation with
    precomputation", EUROCRYPT '92; Lim and Lee, "More flexible
    exponentiation with precomputation", CRYPTO '94).
    """
    if not 0 <= e <= fctx.order:
        raise ValueError(f"exponent {e} outside 0..{fctx.order}")
    k, table = fctx.kernel, fctx.generator_powers
    if not table:
        base = k.t
        for _ in range(-(-fctx.order.bit_length() // 4)):
            row = [base]
            for _ in range(14):
                row.append(k.mul(row[-1], base))
            table.extend(row)
            base = k.mul(row[-1], base)
    acc, at = None, -1
    while e:
        if e & 15:
            entry = table[at + (e & 15)]
            acc = entry if acc is None else k.mul(acc, entry)
        e >>= 4
        at += 15
    return fctx.one if acc is None else k.unpack(acc)


def minimal_polynomial(fctx, a):
    """Monic polynomial over F_q with root a, of degree n.

    Requires the n conjugate powers a, a^q, ... to be pairwise distinct,
    else ConjugatesCollide (a lies in a proper subfield).  Then, by the
    field's (q, n):

      * e = 1 (q = p prime): the shortest linear recurrence of the sequence
        s_i = Tr(a^i), i < 2n, found by Berlekamp-Massey on ints mod p
        (Massey, "Shift-register synthesis and BCH decoding", IEEE Trans.
        Inf. Theory, 1969).  For any nonzero F_q-linear functional L on a
        field, L(a^i h(a)) = 0 for every i forces h(a) = 0, so the
        recurrence is a's minimal polynomial.  Traces come from
        _trace_vector: s_i for i <= n is one product of a^i with it, and
        s_(n+i) = Tr(a^n a^i) one product of a^i with the vector of
        Tr(a^n T^j), itself one product of a^n with the trace vector; so
        n - 1 packed multiplies form the sequence, against the O(n^2) of a
        conjugate product.  The recurrence must have length n and the result
        must vanish at a, evaluated from the powers already formed; either
        failure is InvariantViolated.  One more Frobenius map checks
        Frob^n(a) = a first, which always holds in a field: in a reducible
        ring that the tests build, it raises CoefficientNotInBase where the
        conjugate product leaves F_q.  Distinct conjugates with Frob^n(a) = a
        need factors of F of two coprime degrees, so n >= 6; there the
        product raises CoefficientNotInBase, and this returns a's annihilator
        when it has degree n and raises InvariantViolated when it is lower.
      * e > 1: the product of (T - conjugate), verified coefficient by
        coefficient to collapse into F_q (else CoefficientNotInBase), all
        packed.  A Berlekamp-Massey on packed F_q rows, inverting by
        c^(q-2), was slower at every bench size in a prototype: (2^16, 3)
        0.10 -> 0.35 ms, (4, 6) 0.13 -> 0.22 ms, (9, 8) 0.33 -> 0.56 ms.
    """
    n, k = fctx.n, fctx.kernel
    conjugates = [k.pack(a)]
    for _ in range(n - 1):
        conjugates.append(k.frobenius(conjugates[-1]))
    if len(set(conjugates)) != n:
        raise ConjugatesCollide("element lies in a proper subfield")
    if k.e == 1:
        if k.frobenius(conjugates[-1]) != conjugates[0]:
            raise CoefficientNotInBase("Frob^n moves the element; its conjugate product leaves F_q")
        return _recurrence_polynomial(fctx, conjugates[0])
    # product over F_{q^n}[T], low first: multiply by (T - c) for each c
    poly = [k.one]
    for c in conjugates:
        neg = k.neg(c)
        poly = ([k.mul(poly[0], neg)]
                + [k.add(lo, k.mul(hi, neg)) for lo, hi in zip(poly, poly[1:])]
                + [poly[-1]])
    out = []
    for packed in poly:
        coeff = k.unpack(packed)
        if len(coeff) > 1:
            raise CoefficientNotInBase("conjugate product left the base field")
        out.append(coeff[0] if coeff else fctx.base.zero)
    return tuple(out)


def _trace_vector(fctx):
    """Tr(T^j) for j < 2n - 1, packed reversed (Tr(T^j) in slot 2n-2-j); e = 1.

    Tr(T^j) is the trace of multiplication by T^j, the power sum P_j of
    F's roots, so Newton's identities give it from F = T^n + sum c_i T^i:
    P_0 = n and P_j = -(sum_{1 <= i <= min(j-1, n)} c_(n-i) P_(j-i) + j c_(n-j)),
    the last term only for j <= n.  Built once per FqnCtx and kept on it.
    """
    if fctx._traces is None:
        n, p, k = fctx.n, fctx.base.p, fctx.kernel
        c = [coeff[0] if coeff else 0 for coeff in fctx.modulus]
        sums = [n % p]
        for j in range(1, 2 * n - 1):
            acc = j * c[n - j] if j <= n else 0
            acc += sum(c[n - i] * sums[j - i] for i in range(1, min(j - 1, n) + 1))
            sums.append(-acc % p)
        fctx._traces = sum(t << (2 * n - 2 - j) * k._rowbits for j, t in enumerate(sums))
    return fctx._traces


def _recurrence_polynomial(fctx, x):
    """Minimal polynomial of the packed x by Berlekamp-Massey on Tr(x^i); e = 1.

    Every slot of a product below holds a sum of at most n products of
    coordinates below p, and the vanishing check's sum at most n+1; both
    are within the kernel's slot bound (module docstring, step 5), so one
    shift and mask read a trace and nothing carries into it.
    """
    n, k = fctx.n, fctx.kernel
    p, width, mask, tv = k.p, k._rowbits, k._wmask, _trace_vector(fctx)
    powers = [k.one, x]
    for _ in range(n - 1):
        powers.append(k.mul(powers[-1], x))
    seq = [(y * tv >> (2 * n - 2) * width & mask) % p for y in powers]
    shifted = k._mod_p(powers[n] * tv >> (n - 1) * width & k._trem)  # Tr(x^n T^j) in slot n-1-j
    seq += [(y * shifted >> (n - 1) * width & mask) % p for y in powers[1:n]]
    conn, length = _berlekamp_massey(seq, p)
    if length != n or len(conn) != n + 1:
        raise InvariantViolated(f"trace recurrence of length {length}, not {n}; field bug")
    poly = conn[::-1]  # x^n + conn[1] x^(n-1) + ... + conn[n], low first
    if k._mod_p(sum(c * y for c, y in zip(poly, powers))):
        raise InvariantViolated("trace recurrence does not vanish at the element; field bug")
    return tuple((c,) if c else () for c in poly)


def _berlekamp_massey(seq, p):
    """Shortest linear recurrence of seq over F_p: (conn, length).

    conn[0] = 1, len(conn) = length + 1, and sum_i conn[i] seq[j-i] = 0 for
    length <= j < len(seq).  conn keeps degree at most length throughout,
    so the discrepancy reads at most j earlier terms.
    """
    conn, prev, length, shift, prev_inv = [1], [1], 0, 1, 1
    for j, sj in enumerate(seq):
        d = (sj + sum(map(operator.mul, conn[1:], seq[j - 1::-1]))) % p
        if d == 0:
            shift += 1
            continue
        coef, old = d * prev_inv % p, conn
        conn = conn + [0] * (shift + len(prev) - len(conn))
        for i, b in enumerate(prev, start=shift):
            conn[i] = (conn[i] - coef * b) % p
        if 2 * length <= j:
            length, prev, prev_inv, shift = j + 1 - length, old, pow(d, -1, p), 1
        else:
            shift += 1
    return conn + [0] * (length + 1 - len(conn)), length


def check_factorization(order, factors):
    if not factors:
        if order == 1:
            return
        raise BadFactorization("empty factor list")
    prod = 1
    for r in factors:
        if not is_probable_prime(r):
            raise BadFactorization(f"{r} is not prime")
        prod *= r
    if prod != order:
        raise BadFactorization("factor product does not match the group order")


# Draws per unit of degree before find_primitive_polynomial gives up.
_PRIMITIVE_DRAWS_PER_DEGREE = 1024


def find_primitive_polynomial(base, n, factors, rng_seed):
    """Random search for a monic irreducible F with T primitive mod F.

    factors must be the complete prime factorization of q^n - 1 (with
    multiplicity); determinism follows from the seed.

    The search stops after 1024*n draws and raises InvariantViolated, which
    an honest search reaches with probability below 2^-64 when q^n <= 2^4096:

      1. A draw is a uniform monic F of degree n, one of q^n, and phi(m)/n of
         them are primitive, m = q^n - 1.  So a draw succeeds with
         probability rho = phi(m) / (n (m + 1)); rho = 1/2 when m = 1.
      2. phi(m)/m is the product of 1 - 1/r over the primes r | m, at least
         the same product over the first omega(m) primes.  The first 419
         primes multiply to more than 2^4096, so for m < 2^4096 that is at
         least the product over the 418 primes up to 2887, which is 0.0702,
         above 1/15.
      3. For m >= 2, (m + 1)/m <= 3/2, so rho > 2/(45 n), and 1024*n draws
         all fail with probability below exp(-1024 * 2/45) = exp(-45.5),
         below 2^-65.

    A wrong field multiply then fails the search instead of looping forever.
    """
    check_degree(n)
    check_factorization(base.q**n - 1, factors)
    rng = random.Random(rng_seed)
    draws = _PRIMITIVE_DRAWS_PER_DEGREE * n
    for _ in range(draws):
        f = tuple(base.element_from_int(rng.randrange(base.q)) for _ in range(n)) + (base.one,)
        if n > 1 and not is_irreducible(base, f):
            continue
        ctx = FqnCtx(base, n, f, _verified=True)
        if certify_primitive(ctx, factors):
            return ctx
    raise InvariantViolated(
        f"no primitive polynomial of degree {n} over F_{base.q} in {draws} draws; field arithmetic bug")


def certify_primitive(ctx, factors):
    """Verify that the class of T generates the multiplicative group.

    The modulus is irreducible, so the class of T fails to be a unit only
    when it is 0 (the modulus T, n = 1); any other class generates iff no
    g^(order/r) is 1.  The verdict is returned and stored in ctx.primitive.
    """
    check_factorization(ctx.order, factors)
    ctx.primitive = bool(ctx.generator) and all(
        generator_power(ctx, ctx.order // r) != ctx.one for r in sorted(set(factors)))
    return ctx.primitive


# ---------------------------------------------------------------------------
# advice files

_AUTO_FACTOR_LIMIT = 2**80


def format_fq(ctx, a):
    """Text form of an F_q element: its e coefficients over F_p, low first, ','-joined."""
    return ",".join(str(c) for c in tuple(a) + (0,) * (ctx.e - len(a)))


def format_advice(fctx, factors=None):
    base = fctx.base
    lines = [f"{base.p} {base.e}"]
    if base.e > 1:
        lines.append(" ".join(str(c) for c in base.g))
    lines.append(str(fctx.n))
    lines.append(" ".join(format_fq(base, coeff) for coeff in fctx.modulus))
    if factors:
        lines.append("factors " + " ".join(str(r) for r in factors))
    return "\n".join(lines) + "\n"


def parse_advice(text):
    """Parse and fully verify an advice file; returns a primitive FqnCtx.

    Every F_p coordinate, of g and of F, must lie in 0..p-1 (none is
    reduced), and nothing may follow the optional factors line.
    Verification always includes irreducibility of both moduli and the
    primitivity of the class of T; the factorization of q^n - 1 is taken
    from the file or computed at desk scale.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]

    def coordinates(tokens):
        vec = tuple(int(tok) for tok in tokens)
        if not all(0 <= c < p for c in vec):
            raise InvalidAdvice(f"coordinate outside 0..{p - 1} in {','.join(tokens)!r}")
        return vec

    try:
        p_str, e_str = lines[0].split()
        p, e = int(p_str), int(e_str)
        at = 1
        if e > 1:
            g = coordinates(lines[at].split())
            at += 1
        else:
            g = None
        n = int(lines[at])
        vectors = [coordinates(tok.split(",")) for tok in lines[at + 1].split()]
        at += 2
        factors = None
        if at < len(lines) and lines[at].split()[0] == "factors":
            factors = [int(tok) for tok in lines[at].split()[1:]]
            at += 1
        if at < len(lines):
            raise InvalidAdvice(f"unexpected trailing line {lines[at]!r}")
    except InvalidAdvice:
        raise
    except (ValueError, IndexError) as exc:
        raise InvalidAdvice(f"malformed advice file: {exc}") from exc

    try:
        base = FqCtx(p, e, g)
    except ValueError as exc:
        raise InvalidAdvice(f"bad base field description: {exc}") from exc

    if any(len(vec) > e for vec in vectors):
        raise InvalidAdvice("coefficient vector longer than the extension degree")
    modulus = tuple(pstrip(base.base, vec) for vec in vectors)
    try:
        ctx = FqnCtx(base, n, modulus)
    except ValueError as exc:
        raise InvalidAdvice(f"bad extension modulus: {exc}") from exc

    if factors is None:
        if ctx.order > _AUTO_FACTOR_LIMIT:
            raise InvalidAdvice(
                "q^n - 1 is too large to factor here; supply a factors line"
            )
        factors = factorize(ctx.order)
    try:
        ok = certify_primitive(ctx, factors)
    except BadFactorization as exc:
        raise InvalidAdvice(f"bad factors line: {exc}") from exc
    if not ok:
        raise InvalidAdvice("the class of T does not generate the multiplicative group")
    return ctx


def load_advice(filename):
    with open(filename, "r", encoding="ascii") as fh:
        return parse_advice(fh.read())


# ---------------------------------------------------------------------------
# linear algebra over F_q (used for subfield bases)


def fq_kernel_basis(kernel, images):
    """Reduced echelon basis of the kernel of an F_q-linear map, all packed.

    images[i] is the packed image of T^i.  Left to right, each image is
    reduced by the earlier pivots, and its element T^i by the same steps; a
    pivot is normalised at its lowest nonzero row, whose F_q coefficient c
    is inverted as c^(q-2).  An image reduced to 0 leaves a kernel element:
    1 at T^i, 0 at every other free index, and of degree i.
    """
    pivots, basis = {}, []  # lowest nonzero row's bit offset -> (image, element)
    rowbits, mask = kernel._rowbits, kernel._rowmask
    for i, image in enumerate(images):
        element = 1 << i * rowbits
        while image:
            at = ((image & -image).bit_length() - 1) // rowbits * rowbits
            c = image >> at & mask
            if at not in pivots:
                inv = kernel.pow(c, kernel.q - 2)
                pivots[at] = kernel.mul(image, inv), kernel.mul(element, inv)
                break
            pivot, preimage = pivots[at]
            image = kernel.sub(image, kernel.mul(c, pivot))
            element = kernel.sub(element, kernel.mul(c, preimage))
        else:
            basis.append(element)
    return basis
