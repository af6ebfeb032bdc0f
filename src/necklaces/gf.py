"""Finite field towers F_p <= F_q <= F_{q^n} with explicit coefficient vectors.

At the API, elements of F_q = F_p[u]/g(u) are tuples of ints (low degree
first, trailing zeros stripped, () is zero) and elements of
F_{q^n} = F_q[T]/F(T) are tuples of F_q elements in the same convention.
p and q are arbitrary-precision; only the extension degrees need to stay
reasonable.

Inside, all field arithmetic runs on one packed kernel (_Packed): an
element's n*e coordinates over F_p are slots of one Python int, so a
product is one big-integer multiply (Kronecker substitution) followed by a
fold of the overflow slots and a slot-wise reduction mod p.  Slots are
W = 8 * ceil(bits(V * ceil(2^s / p)) / 8) bits wide, with the slot bound
V = (2n-1)(2e-1) p^2 and 2^s > V p, so neither the product nor the
reduction carries between slots.  F_q is the kernel's n = 1 case
F_q[T]/(T), its element in row 0; FqCtx and FqnCtx share one implementation
(_Ext) that converts once per call, and inverses are a^(size-2).
frobenius, minimal_polynomial and is_irreducible stay packed throughout;
is_irreducible is Rabin's test with its gcd replaced by a norm (see there).
The generic tuple-polynomial routines (padd, psub, pmul, pdivmod, pmod,
pmonic, pgcd) over a coefficient field object have no production caller:
they are the tests' independent reference arithmetic.

The advice file format (normative for interoperability; unchanged by the
packed representation):

    line 1: "p e"
    line 2: coefficients of g over F_p, space-separated, low first
            (omitted entirely when e = 1)
    line 3: "n"
    line 4: coefficients of F over F_q, space-separated, low first; each
            coefficient is a comma-separated F_p vector padded to length e
    line 5: optional "factors r1 r2 ..." (primes of q^n - 1, multiplicity)
"""

import math
import random

from .errors import (
    BadFactorization,
    CoefficientNotInBase,
    ConjugatesCollide,
    InvalidAdvice,
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
    """Prime factors of m with multiplicity, ascending; trial division + rho."""
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while m % p == 0:
            out.append(p)
            m //= p
    stack = [m] if m > 1 else []
    d = 17
    while stack and stack[-1] < 10**12:
        m = stack.pop()
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                m //= d
            else:
                d += 2
        if m > 1:
            out.append(m)
        d = 17
    while stack:
        m = stack.pop()
        if m == 1:
            continue
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
    of f.
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


class _Packed:
    """Ring arithmetic in F_p[u, T]/(g(u), F(T)), one Python int per element.

    g (F_p coefficients, low first) is monic of degree e; F (coefficients
    are F_p coordinate tuples of F_q = F_p[u]/g, low first) is monic of
    degree n.  Neither has to be irreducible.  Coordinate (i, k) of T^i u^k
    sits in slot i*(2e-1) + k, W bits wide.  A reduced element fills the
    slots with i < n and k < e, every one below p.  The product of two
    reduced elements is then one integer multiply (Kronecker substitution):
    exponents add slot-wise without colliding, and a slot sums at most n*e
    products below p^2.  Its overflow slots (i >= n or k >= e) are folded
    back through their precomputed reduced images, and every slot is taken
    mod p at once by a multiply-shift.

    Every slot stays below V = (2n-1)(2e-1) p^2 before it is taken mod p.
    floor(v/p) = floor(v*m / 2^s) for all v <= V when m = ceil(2^s/p) and
    2^s > V*p, and the slot width W, rounded up to whole bytes so that
    slots can be read from to_bytes, holds V*m: the multiply never carries
    between slots either.
    """

    one = 1

    def __init__(self, p, g, F):
        e, n = len(g) - 1, len(F) - 1
        stride = 2 * e - 1
        bound = (2 * n - 1) * stride * p * p
        s = (bound * p).bit_length()
        m = -(-(1 << s) // p)
        wb = ((bound * m).bit_length() + 7) // 8
        W = 8 * wb
        self.p, self.e, self.n, self.q = p, e, n, p**e
        self._s, self._m, self._wb, self._bits = s, m, wb, W
        self._rowbits, self._rowb = stride * W, stride * wb
        self._ebytes = n * self._rowb
        self._zbytes = (2 * n - 1) * self._rowb
        in_range = [i * stride + k for i in range(n) for k in range(e)]
        self._slots = [j * wb for j in in_range]  # byte offsets, in order of i*e + k
        self._keep = sum(((1 << W) - 1) << (j * W) for j in in_range)
        self._ps = sum(p << (j * W) for j in in_range)
        low = (1 << (W - s)) - 1
        self._qmask = sum(low << (j * W) for j in range(n * stride))

        # u^k mod g for k < 2e - 1, as F_p coefficient lists
        upow = [[0] * k + [1] + [0] * (e - 1 - k) for k in range(e)]
        for _ in range(e, stride):
            top, shifted = upow[-1][-1], [0] + upow[-1][:-1]
            upow.append([(c - top * gc) % p for c, gc in zip(shifted, g)])
        upow = [self.pack((tuple(c),)) for c in upow]
        # (byte offset, reduced image) of every overflow slot; the images of
        # row i >= n are products whose overflow lies in rows already listed
        self._fold = [(i * self._rowb + k * wb, upow[k] << (i * self._rowbits))
                      for i in range(n) for k in range(e, stride)]
        tn = self.neg(self.pack(F[:n]))  # T^n = -(F_0 + ... + F_(n-1) T^(n-1))
        self.t = tn if n == 1 else 1 << self._rowbits
        ti = tn
        for i in range(n, 2 * n - 1):
            if i > n:
                ti = self.mul(ti, self.t)
            self._fold += [(i * self._rowb + k * wb, self.mul(ti, upow[k]))
                           for k in range(stride)]
        self._frob = None

    def pack(self, a):
        """Packed form of a tuple of F_q coordinate tuples (low first)."""
        buf = bytearray(self._ebytes)
        wb, rowb = self._wb, self._rowb
        for i, c in enumerate(a):
            for k, v in enumerate(c):
                at = i * rowb + k * wb
                buf[at:at + wb] = v.to_bytes(wb, "little")
        return int.from_bytes(buf, "little")

    def unpack(self, x):
        """Inverse of pack, trailing zeros stripped at both levels."""
        b = x.to_bytes(self._ebytes, "little")
        wb, e = self._wb, self.e
        out = []
        for at in range(0, self._ebytes, self._rowb):
            row = [int.from_bytes(b[o:o + wb], "little") for o in range(at, at + e * wb, wb)]
            while row and not row[-1]:
                row.pop()
            out.append(tuple(row))
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def _mod_p(self, x):
        return x - self.p * (((x * self._m) >> self._s) & self._qmask)

    def _combine(self, b, images, acc):
        """acc + sum of (slot at offset o of bytes b, mod p) * image, mod p."""
        p, wb = self.p, self._wb
        for o, image in images:
            c = int.from_bytes(b[o:o + wb], "little") % p
            if c:
                acc += c * image
        return self._mod_p(acc)

    def from_int(self, v):
        """The element whose coordinate (i, k) is the base-p digit i*e + k of v."""
        buf, wb = bytearray(self._ebytes), self._wb
        for at in self._slots:
            v, c = divmod(v, self.p)
            buf[at:at + wb] = c.to_bytes(wb, "little")
        return int.from_bytes(buf, "little")

    def to_int(self, x):
        """Inverse of from_int."""
        b, wb, v = x.to_bytes(self._ebytes, "little"), self._wb, 0
        for at in reversed(self._slots):
            v = v * self.p + int.from_bytes(b[at:at + wb], "little")
        return v

    def add(self, x, y):
        return self._mod_p(x + y)

    def sub(self, x, y):
        return self._mod_p(x + self._ps - y)

    def neg(self, x):
        return self._mod_p(self._ps - x)

    def mul(self, x, y):
        z = x * y
        return self._combine(z.to_bytes(self._zbytes, "little"), self._fold, z & self._keep)

    def pow(self, x, k):
        if k == 0:
            return self.one
        result = x
        for bit in bin(k)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, x)
        return result

    def frobenius(self, x):
        """x^q, applied as the F_q-linear map it is: T^i u^k -> (T^q)^i u^k."""
        if self._frob is None:
            tq, power, images = self.pow(self.t, self.q), self.one, []
            for i in range(self.n):
                for k in range(self.e):
                    at = i * self._rowb + k * self._wb
                    images.append((at, self.mul(power, 1 << (self._bits * k))))
                power = self.mul(power, tq)
            self._frob = images
        return self._combine(x.to_bytes(self._ebytes, "little"), self._frob, 0)


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


class FqCtx(_Ext):
    """F_q = F_p[u]/g(u), the kernel's n = 1 case F_q[T]/(T); elements are low-first int tuples."""

    def __init__(self, p, e, g=None):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
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

    def __repr__(self):
        return f"FqCtx(p={self.p}, e={self.e})"

    def _pack(self, a):
        return self.kernel.pack((a,))

    def _unpack(self, x):
        return self.kernel.unpack(x)[0] if x else ()


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

    def __init__(self, base, n, modulus, primitive=False, _verified=False):
        if n < 1:
            raise ValueError("extension degree must be positive")
        modulus = pstrip(base, modulus)
        if len(modulus) != n + 1 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree n")
        if not _verified and n > 1 and not is_irreducible(base, modulus):
            raise ValueError("modulus polynomial is reducible")
        self.base = base
        self.n = n
        self.modulus = modulus
        self.primitive = primitive
        self.q = base.q
        self.size = base.q**n
        self.order = self.size - 1
        self.zero = ()
        self.one = (base.one,)
        self.kernel = _Packed(base.p, base.g, modulus)
        self._pack, self._unpack = self.kernel.pack, self.kernel.unpack
        self.generator = self._unpack(self.kernel.t)
        self.subfield_bases = {}  # ell -> basis tuple; filled by bch.subfield_basis

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


def minimal_polynomial(fctx, a):
    """Monic polynomial over F_q with root a, of degree n.

    Requires the n conjugate powers a, a^q, ... to be pairwise distinct;
    the product of (T - conjugate) then has coefficients that collapse into
    F_q, which is verified coefficient by coefficient.  Conjugates and the
    product stay packed.
    """
    n, k = fctx.n, fctx.kernel
    conjugates = [k.pack(a)]
    for _ in range(n - 1):
        conjugates.append(k.frobenius(conjugates[-1]))
    if len(set(conjugates)) != n:
        raise ConjugatesCollide("element lies in a proper subfield")
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


def find_primitive_polynomial(base, n, factors, rng_seed):
    """Random search for a monic irreducible F with T primitive mod F.

    factors must be the complete prime factorization of q^n - 1 (with
    multiplicity); determinism follows from the seed.
    """
    check_factorization(base.q**n - 1, factors)
    rng = random.Random(rng_seed)
    while True:
        coeffs = [base.element_from_int(rng.randrange(base.q)) for _ in range(n)]
        coeffs.append(base.one)
        f = pstrip(base, coeffs)
        if len(f) != n + 1:
            continue
        if n > 1 and not is_irreducible(base, f):
            continue
        ctx = FqnCtx(base, n, f, primitive=False, _verified=True)
        if certify_primitive(ctx, factors):
            ctx.primitive = True
            return ctx


def certify_primitive(ctx, factors):
    """Verify that the class of T generates the multiplicative group.

    The modulus is irreducible, so the class of T fails to be a unit only
    when it is 0 (the modulus T, n = 1); any other class generates iff no
    g^(order/r) is 1.
    """
    check_factorization(ctx.order, factors)
    g = ctx.generator
    return bool(g) and all(ctx.pow(g, ctx.order // r) != ctx.one for r in sorted(set(factors)))


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

    Verification always includes irreducibility of both moduli and the
    primitivity of the class of T; the factorization of q^n - 1 is taken
    from the file or computed at desk scale.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    try:
        p_str, e_str = lines[0].split()
        p, e = int(p_str), int(e_str)
        at = 1
        if e > 1:
            g = tuple(int(tok) for tok in lines[at].split())
            at += 1
        else:
            g = None
        n = int(lines[at])
        at += 1
        coeff_tokens = lines[at].split()
        at += 1
        factors = None
        if at < len(lines):
            head, *rest = lines[at].split()
            if head != "factors":
                raise InvalidAdvice(f"unexpected trailing line {lines[at]!r}")
            factors = [int(tok) for tok in rest]
    except InvalidAdvice:
        raise
    except (ValueError, IndexError) as exc:
        raise InvalidAdvice(f"malformed advice file: {exc}") from exc

    try:
        base = FqCtx(p, e, g)
    except ValueError as exc:
        raise InvalidAdvice(f"bad base field description: {exc}") from exc

    modulus = []
    for tok in coeff_tokens:
        vec = tuple(int(v) % p for v in tok.split(","))
        if len(vec) > e:
            raise InvalidAdvice("coefficient vector longer than the extension degree")
        modulus.append(pstrip(base.base, vec))
    try:
        ctx = FqnCtx(base, n, tuple(modulus))
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
    ctx.primitive = True
    return ctx


def load_advice(filename):
    with open(filename, "r", encoding="ascii") as fh:
        return parse_advice(fh.read())


# ---------------------------------------------------------------------------
# linear algebra over F_q (used for subfield bases)


def fq_kernel_basis(ctx, rows, width):
    """Deterministic echelon basis of the kernel of a matrix over F_q.

    rows: list of length-`width` lists of F_q elements.  Returns kernel
    vectors (as lists) in order of their leading free column.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if not ctx.is_zero(mat[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ctx.inv(mat[r][col])
        mat[r] = [ctx.mul(v, inv) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not ctx.is_zero(mat[i][col]):
                factor = mat[i][col]
                mat[i] = [
                    ctx.sub(a, ctx.mul(factor, b)) for a, b in zip(mat[i], mat[r])
                ]
        pivots.append(col)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ctx.zero] * width
        vec[fc] = ctx.one
        for ri, pc in enumerate(pivots):
            vec[pc] = ctx.neg(mat[ri][fc])
        basis.append(vec)
    return basis
