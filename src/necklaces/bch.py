"""Entry access to BCH generator and parity-check matrices.

The code of length q^n over F_q consists of evaluations of polynomials of
degree at most d whose values all land in F_q.  Its natural basis rows are
indexed by orbits S of Z_{q^n-1} under multiplication by q together with a
choice of basis element of the subfield fixed by the |S|-th Frobenius power;
parity-check rows are indexed by orbits whose minimum element is at most d.

Writing residues in base q turns multiplication by q into rotation of the
digit word, so both row families are ranked and unranked with the necklace
machinery: parity rows through plain orbit ranking below a threshold, and
generator rows (which need the whole orbit to stay within {0, ..., d})
through a joint count of orbits below one threshold with all rotations
below a ceiling.
"""

from . import counting, engine, indexing
from .errors import InvariantViolated, NotADivisor, NotInBaseField, TooBig, ZeroColumn
from .gf import fq_kernel_basis, frobenius, generator_power
from .words import NkString, _Frozen, _least_rotation, max_rotation

MATRIX_COLUMN_LIMIT = 2**14


class BchParams(_Frozen):
    """The code over the field of an FqnCtx, with designed-distance parameter d."""

    __slots__ = ("ctx", "d")

    def __init__(self, ctx, d):
        if not (0 <= d < ctx.q**ctx.n - 1):
            raise ValueError("designed-distance parameter out of range")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "d", d)


class OrbitSet(_Frozen):
    """An orbit of Z_{q^n-1} under multiplication by q: minimum and size."""

    __slots__ = ("m", "size")

    def __init__(self, m, size):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "size", size)


def _word(params, value):
    return NkString.from_int(params.ctx.n, params.ctx.q, value)


def _orbit(rep, side):
    """The orbit of rep, where a row search ended; rep must be its least rotation."""
    start, period = _least_rotation(rep.digits)
    if (rep.n - start) % period:
        raise InvariantViolated(f"{side} row search ended off a minimal rotation")
    return OrbitSet(rep.to_int(), period)


# ---------------------------------------------------------------------------
# generator side


def generator_row_count(params):
    """Total rows: the sum of |S| over orbits entirely inside {0, ..., d}.

    Words whose whole orbit stays within the bound are all words minus those
    with some rotation above it, and the latter is a plain below-count on
    the complemented alphabet: the ceiling side of the two-sided count,
    read from the engine's memo that the row search's probes share.  A
    generator entry builds that table and one per head evaluation of its
    row search (`_row_head`), each on a smaller alphabet.
    """
    return engine.count_within_ceiling(_word(params, params.d).digits, params.ctx.q)


def _row_head(ceiling, q, total):
    """delta -> the rows below (delta, 0, ..., 0), from one one-sided table.

    A word has every rotation at or above (delta, 0, ..., 0) iff it has no
    digit below delta, so the rows below it are `total` less the words y
    in {delta, ..., q-1}^n with no rotation above the ceiling c.  Shifted
    by -delta they are words on k = q - delta letters.  If c has no digit
    below delta the shifted ceiling is c - delta.  Otherwise, with the
    first such digit at i, a rotation of y is <= c iff its i-prefix is
    below c[:i], since its digit at i exceeds c's: the shifted ceiling is
    c[:i] - delta decreased by one in radix k, then k - 1s, and there is
    no such word when i = 0 or c[:i] = delta^i.  That covers k = 1: a
    ceiling word(d), d < q^n - 1, has a digit below q - 1.
    """
    n = len(ceiling)

    def head(delta):
        k = q - delta
        i = next((i for i, c in enumerate(ceiling) if c < delta), n)
        shifted = [c - delta for c in ceiling[:i]]
        if i < n:  # decrease the prefix by one in radix k
            t = i - 1
            while t >= 0 and shifted[t] == 0:
                shifted[t] = k - 1
                t -= 1
            if t < 0:
                return total
            shifted[t] -= 1
            shifted += [k - 1] * (n - i)
        return total - engine.count_within_ceiling(shifted, k)

    return head


def generator_row(params, r):
    """Row r as (orbit, position-in-orbit), ranked by minimal representative.

    The rows below x sum |S| over the necklaces below x whose orbit stays
    within {0, ..., d}: a sum over necklaces, so the search takes a head
    (`_row_head`) and, after the first digit delta, searches only the words
    with no digit below delta, in radix q - delta (`indexing` module
    docstring).  Each probe is one two-sided count under the ceiling
    word(d), and the search returns the rows below the orbit it ends on,
    so the row's position in its orbit is r minus them.

    The head serves q = 2 too, where its one evaluation, head(1), has
    k = 1 letter and builds no table: against the search with no head and
    the model over [0, 2^n] that it replaced, (2, 20) took 4.97 -> 4.91
    probes and 0.70 ms per search either way over 150 rows drawn as the
    field benchmark draws them, and 10.26 -> 11.33 probes and
    1.01-1.04 -> 1.07-1.11 ms with d and r uniform.
    At q > 2 the head halves the two-sided probes at (2^16, 3) and
    (2^16, 4): 8.72 -> 4.11 and 10.89 -> 5.01 per search.

    The search gets no run closed form, so it keeps the digit floor: an
    unrank's run head counts the orbits with short runs over all words,
    and the rows under a ceiling have no such count.
    """
    ctx = params.ctx
    q = ctx.q
    if r < 1:
        raise ValueError("rows are 1-based")
    total = generator_row_count(params)
    if r > total:
        raise TooBig(f"row {r} beyond {total} generator rows")
    ceiling = _word(params, params.d).digits
    rep, below = indexing._search(
        ctx.n, q, r, lambda x: engine.count_below_with_ceiling(x.digits, ceiling, q), total,
        _row_head(ceiling, q, total))
    orbit = _orbit(rep, "generator")
    if max_rotation(rep)[0].digits > ceiling:
        raise InvariantViolated("generator row orbit leaves {0, ..., d}")
    return orbit, r - below


def subfield_basis(ctx, ell):
    """Deterministic F_q-basis of the subfield fixed by the ell-th Frobenius power.

    Returns ell elements of F_{q^n}, monic in T and of distinct degrees: the
    reduced echelon kernel basis of a -> a^(q^ell) - a, whose images
    tau^i - T^i, tau = Frob^ell(T), are two running products.  Bases are
    cached on ctx per ell; every call returns a fresh list.
    """
    n = ctx.n
    if ell < 1 or n % ell != 0:
        raise NotADivisor(f"{ell} does not divide the extension degree {n}")
    if ell in ctx.subfield_bases:
        return list(ctx.subfield_bases[ell])
    k, tau = ctx.kernel, ctx.generator
    for _ in range(ell):
        tau = frobenius(ctx, tau)
    tau, tau_i, t_i, images = k.pack(tau), k.one, k.one, []
    for _ in range(n):
        images.append(k.sub(tau_i, t_i))
        tau_i, t_i = k.mul(tau_i, tau), k.mul(t_i, k.t)
    kernel = fq_kernel_basis(k, images)
    if len(kernel) != ell:
        raise InvariantViolated("fixed-subfield dimension mismatch; field bug")
    basis = ctx.subfield_bases[ell] = tuple(k.unpack(x) for x in kernel)
    return list(basis)


def generator_value(ctx, row, alpha):
    """Entry of the generator row (orbit, j) at column alpha; lies in F_q.

    With orbit minimum m and basis element beta of the row, the entry is
    sum_k beta^(q^k) alpha^(m q^k) = sum_k Frob^k(gamma), gamma = beta alpha^m,
    over k < |orbit|; alpha^0 = 1 even for alpha = 0.  The sum runs on the
    packed kernel, with one pack of beta and alpha and one unpack.  alpha^m
    is the kernel's pow: Straus's simultaneous powering over the base-q
    digits of m where the field's (q, n) favours it (`gf` module docstring).
    """
    orbit, j = row
    k = ctx.kernel
    beta = k.pack(subfield_basis(ctx, orbit.size)[j - 1])
    if orbit.m == 0:
        gamma = beta
    elif ctx.is_zero(alpha):
        gamma = 0
    else:
        gamma = k.mul(beta, k.pow(k.pack(alpha), orbit.m))
    total = term = gamma
    for _ in range(orbit.size - 1):
        term = k.frobenius(term)
        total = k.add(total, term)
    total = k.unpack(total)
    if len(total) > 1:
        raise NotInBaseField("generator entry escaped the base field; basis bug")
    return total[0] if total else ctx.base.zero


def generator_entry(params, r, alpha):
    """Evaluation of the r-th basis polynomial at column alpha; lies in F_q."""
    return generator_value(params.ctx, generator_row(params, r), alpha)


# ---------------------------------------------------------------------------
# parity side


def parity_row_count(params):
    """Orbits with minimum element at most d: orbit rank below word(d+1)."""
    threshold = NkString.from_int(params.ctx.n, params.ctx.q, params.d + 1)
    return counting.count_necklaces_below(threshold)


def parity_row(params, r):
    """The r-th orbit with minimum at most d, in minimal-representative order.

    Those orbits come first in that order, so row r is the r-th necklace,
    and it exists iff that necklace exists and its value is at most d.  The
    search runs first; `parity_row_count`'s table is built only to word the
    error past the last row.
    """
    ctx = params.ctx
    if r < 1:
        raise ValueError("rows are 1-based")
    rep = indexing.index_necklace(ctx.n, ctx.q, r)
    if rep is indexing.TOO_LARGE or rep.to_int() > params.d:
        raise TooBig(f"row {r} beyond {parity_row_count(params)} parity rows")
    return _orbit(rep, "parity")


def parity_value(ctx, orbit, alpha):
    """Entry of the parity row `orbit` at the nonzero column alpha: alpha^m, by the kernel's pow."""
    return ctx.pow(alpha, orbit.m)


def parity_entry(params, r, alpha):
    """alpha raised to the row orbit's minimum; alpha must be nonzero."""
    if params.ctx.is_zero(alpha):
        raise ZeroColumn("parity columns are indexed by nonzero field elements")
    return parity_value(params.ctx, parity_row(params, r), alpha)


# ---------------------------------------------------------------------------
# column addressing (CLI matrices) and brute-force row enumeration (tests, selftest)


def column_element(ctx, index):
    """Generator-matrix column order: 0 first, then g^0, g^1, ..."""
    if index == 0:
        return ctx.zero
    return generator_power(ctx, index - 1)


def nonzero_column_element(ctx, index):
    """Parity-matrix column order over nonzero elements: g^0, g^1, ..."""
    return generator_power(ctx, index)


def _brute_orbits(params):
    """(orbit, maximum) for every orbit of Z_{q^n-1} under multiplication by q.

    Each orbit is first reached at its minimum, so they come out in
    ascending order of their minimum.
    """
    n, q = params.ctx.n, params.ctx.q
    if q**n > 2**20:
        raise TooBig("brute row enumeration guardrail")
    modulus = q**n - 1
    seen = set()
    for a in range(modulus):
        if a in seen:
            continue
        orbit = {a}
        b = a * q % modulus
        while b != a:
            orbit.add(b)
            b = b * q % modulus
        seen |= orbit
        yield OrbitSet(a, len(orbit)), max(orbit)


def brute_generator_rows(params):
    """All qualifying (orbit, j) rows by explicit orbit enumeration."""
    rows = [
        (orbit, j)
        for orbit, top in _brute_orbits(params)
        if top <= params.d
        for j in range(1, orbit.size + 1)
    ]
    return rows, len(rows)


def brute_parity_orbits(params):
    """Orbits with minimum at most d by explicit enumeration, ascending."""
    return [orbit for orbit, _ in _brute_orbits(params) if orbit.m <= params.d]
