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

from dataclasses import dataclass
from functools import lru_cache

from . import counting
from .errors import InvariantViolated, NotADivisor, NotInBaseField, TooBig, ZeroColumn
from .gf import fq_kernel_basis, frobenius, pstrip
from .indexing import _search
from .words import NkString, fundamental_period, max_rotation, min_rotation

MATRIX_COLUMN_LIMIT = 2**14


@dataclass(frozen=True)
class BchParams:
    ctx: object  # FqnCtx
    d: int

    def __post_init__(self):
        if not (0 <= self.d < self.ctx.q**self.ctx.n - 1):
            raise ValueError("designed-distance parameter out of range")


@dataclass(frozen=True)
class OrbitSet:
    """An orbit of Z_{q^n-1} under multiplication by q: minimum and size."""

    m: int
    size: int


def _word(params, value):
    return NkString.from_int(params.ctx.n, params.ctx.q, value)


def _orbit_from_word(word):
    rep, _ = min_rotation(word)
    return OrbitSet(rep.to_int(), fundamental_period(word))


# ---------------------------------------------------------------------------
# generator side


def generator_row_count(params):
    """Total rows: the sum of |S| over orbits entirely inside {0, ..., d}.

    Words whose whole orbit stays within the bound are all words minus those
    with some rotation above it, and the latter is a plain below-count on
    the complemented alphabet.
    """
    from .engine import count_below
    from .words import complement

    ctx = params.ctx
    ceiling = _word(params, params.d)
    exceed = count_below(complement(ceiling).digits, ctx.q)
    return ctx.q**ctx.n - exceed


@lru_cache(maxsize=4096)
def _cumulative_rows(n, q, x_digits, d_digits):
    x = NkString(n, q, x_digits)
    ceiling = NkString(n, q, d_digits)
    return counting.count_words_below_with_ceiling(x, ceiling)


def generator_row(params, r):
    """Row r as (orbit, position-in-orbit), ranked by minimal representative."""
    ctx = params.ctx
    n, q = ctx.n, ctx.q
    if r < 1:
        raise ValueError("rows are 1-based")
    if r > generator_row_count(params):
        raise TooBig(f"row {r} beyond {generator_row_count(params)} generator rows")
    ceiling = _word(params, params.d)

    def cum(word):
        return _cumulative_rows(n, q, word.digits, ceiling.digits)

    rep = _search(n, q, r, cum)
    if min_rotation(rep)[0].digits != rep.digits:
        raise InvariantViolated("generator row search ended off a minimal rotation")
    if max_rotation(rep)[0].digits > ceiling.digits:
        raise InvariantViolated("generator row orbit leaves {0, ..., d}")
    return _orbit_from_word(rep), r - cum(rep)


def subfield_basis(ctx, ell):
    """Deterministic F_q-basis of the subfield fixed by the ell-th Frobenius power.

    Returns exactly ell elements of F_{q^n}, the echelon kernel basis of the
    linear map a -> a^(q^ell) - a on coefficient vectors.  Bases are cached
    on ctx per ell; every call returns a fresh list.
    """
    n = ctx.n
    if ell < 1 or n % ell != 0:
        raise NotADivisor(f"{ell} does not divide the extension degree {n}")
    if ell in ctx.subfield_bases:
        return list(ctx.subfield_bases[ell])
    base = ctx.base
    columns = []
    for i in range(n):
        t_i = ctx.element_from_int(ctx.q**i)  # the basis monomial T^i
        image = t_i
        for _ in range(ell):
            image = frobenius(ctx, image)
        diff = ctx.sub(image, t_i)
        vec = list(diff) + [base.zero] * (n - len(diff))
        columns.append(vec)
    rows = [[columns[c][r] for c in range(n)] for r in range(n)]
    kernel = fq_kernel_basis(base, rows, n)
    if len(kernel) != ell:
        raise AssertionError("fixed-subfield dimension mismatch; field bug")
    basis = ctx.subfield_bases[ell] = tuple(pstrip(base, vec) for vec in kernel)
    return list(basis)


def generator_entry(params, r, alpha):
    """Evaluation of the r-th basis polynomial at column alpha; lies in F_q.

    With orbit minimum m and basis element beta of the row, the entry is
    sum_k beta^(q^k) alpha^(m q^k) = sum_k Frob^k(gamma), gamma = beta alpha^m,
    over k < |orbit|; alpha^0 = 1 even for alpha = 0.
    """
    ctx = params.ctx
    orbit, j = generator_row(params, r)
    beta = subfield_basis(ctx, orbit.size)[j - 1]
    if orbit.m == 0:
        gamma = beta
    elif ctx.is_zero(alpha):
        gamma = ctx.zero
    else:
        gamma = ctx.mul(beta, ctx.pow(alpha, orbit.m))
    total = term = gamma
    for _ in range(orbit.size - 1):
        term = frobenius(ctx, term)
        total = ctx.add(total, term)
    if len(total) > 1:
        raise NotInBaseField("generator entry escaped the base field; basis bug")
    return total[0] if total else ctx.base.zero


# ---------------------------------------------------------------------------
# parity side


def parity_row_count(params):
    """Orbits with minimum element at most d: orbit rank below word(d+1)."""
    threshold = NkString.from_int(params.ctx.n, params.ctx.q, params.d + 1)
    return counting.count_necklaces_below(threshold)


def parity_row(params, r):
    """The r-th orbit with minimum at most d, in minimal-representative order."""
    ctx = params.ctx
    n, q = ctx.n, ctx.q
    if r < 1:
        raise ValueError("rows are 1-based")
    if r > parity_row_count(params):
        raise TooBig(f"row {r} beyond {parity_row_count(params)} parity rows")
    rep = _search(n, q, r, counting.count_necklaces_below)
    if min_rotation(rep)[0].digits != rep.digits:
        raise InvariantViolated("parity row search ended off a minimal rotation")
    return _orbit_from_word(rep)


def parity_entry(params, r, alpha):
    """alpha raised to the row orbit's minimum; alpha must be nonzero."""
    if params.ctx.is_zero(alpha):
        raise ZeroColumn("parity columns are indexed by nonzero field elements")
    orbit = parity_row(params, r)
    return params.ctx.pow(alpha, orbit.m)


# ---------------------------------------------------------------------------
# column addressing and brute-force row enumeration (tests, CLI)


def column_element(ctx, index):
    """Generator-matrix column order: 0 first, then g^0, g^1, ..."""
    if index == 0:
        return ctx.zero
    return ctx.pow(ctx.generator, index - 1)


def nonzero_column_element(ctx, index):
    """Parity-matrix column order over nonzero elements: g^0, g^1, ..."""
    return ctx.pow(ctx.generator, index)


def brute_generator_rows(params):
    """All qualifying (orbit, j) rows by explicit orbit enumeration."""
    ctx = params.ctx
    n, q = ctx.n, ctx.q
    if q**n > 2**20:
        raise TooBig("brute row enumeration guardrail")
    modulus = q**n - 1
    seen = set()
    orbits = []
    for a in range(modulus):
        if a in seen:
            continue
        orbit = {a}
        b = a * q % modulus
        while b != a:
            orbit.add(b)
            b = b * q % modulus
        seen |= orbit
        orbits.append(orbit)
    rows = []
    for orbit in sorted(orbits, key=min):
        if max(orbit) <= params.d:
            for j in range(1, len(orbit) + 1):
                rows.append((OrbitSet(min(orbit), len(orbit)), j))
    return rows, len(rows)


def brute_parity_orbits(params):
    ctx = params.ctx
    n, q = ctx.n, ctx.q
    if q**n > 2**20:
        raise TooBig("brute row enumeration guardrail")
    modulus = q**n - 1
    seen = set()
    out = []
    for a in range(modulus):
        if a in seen:
            continue
        orbit = {a}
        b = a * q % modulus
        while b != a:
            orbit.add(b)
            b = b * q % modulus
        seen |= orbit
        if min(orbit) <= params.d:
            out.append(OrbitSet(min(orbit), len(orbit)))
    out.sort(key=lambda s: s.m)
    return out
