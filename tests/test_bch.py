from functools import lru_cache
from itertools import combinations

import hypothesis
import pytest
from hypothesis import strategies as st

from conftest import assert_reduced_echelon, packed_span, primitive_field
from necklaces import bch, counting, gf
from necklaces.errors import InvariantViolated, NotADivisor, NotInBaseField, TooBig, ZeroColumn


@pytest.fixture(scope="module")
def f8():
    base = gf.default_fq_ctx(2)
    ctx = gf.FqnCtx(base, 3, ((1,), (1,), (), (1,)))  # T^3+T+1
    assert gf.certify_primitive(ctx, gf.factorize(ctx.order))
    return ctx


def _vec(ctx, a):
    return list(a) + [ctx.base.zero] * (ctx.n - len(a))


def test_params_validation(f8):
    with pytest.raises(ValueError):
        bch.BchParams(f8, 7)  # must stay below q^n - 1
    with pytest.raises(ValueError):
        bch.BchParams(f8, -1)


def test_generator_row_counts(f8):
    assert bch.generator_row_count(bch.BchParams(f8, 4)) == 4
    assert bch.generator_row_count(bch.BchParams(f8, 3)) == 1
    assert bch.generator_row_count(bch.BchParams(f8, 0)) == 1


def test_parity_row_counts(f8):
    assert bch.parity_row_count(bch.BchParams(f8, 3)) == 3
    assert bch.parity_row_count(bch.BchParams(f8, 0)) == 1
    assert bch.parity_row_count(bch.BchParams(f8, 1)) == 2


def test_rows_match_brute_enumeration(f8):
    for d in range(7):
        params = bch.BchParams(f8, d)
        rows, count = bch.brute_generator_rows(params)
        assert bch.generator_row_count(params) == count
        for r in range(1, count + 1):
            assert bch.generator_row(params, r) == rows[r - 1], (d, r)
        with pytest.raises(TooBig):
            bch.generator_row(params, count + 1)
        orbits = bch.brute_parity_orbits(params)
        assert bch.parity_row_count(params) == len(orbits)
        for r in range(1, len(orbits) + 1):
            assert bch.parity_row(params, r) == orbits[r - 1]
        with pytest.raises(TooBig):
            bch.parity_row(params, len(orbits) + 1)


def test_rows_match_brute_on_larger_fields():
    cases = [(2, 5, (0, 3, 11, 30)), (3, 4, (0, 7, 40)), (5, 3, (0, 9, 100))]
    for q, n, ds in cases:
        base = gf.default_fq_ctx(q)
        fctx = gf.find_primitive_polynomial(
            base, n, gf.factorize(q**n - 1), rng_seed=19
        )
        for d in ds:
            params = bch.BchParams(fctx, d)
            rows, count = bch.brute_generator_rows(params)
            assert bch.generator_row_count(params) == count, (q, n, d)
            sample = range(1, count + 1) if count <= 40 else range(1, count + 1, 7)
            for r in sample:
                assert bch.generator_row(params, r) == rows[r - 1]
            orbits = bch.brute_parity_orbits(params)
            assert bch.parity_row_count(params) == len(orbits)
            sample = (
                range(1, len(orbits) + 1)
                if len(orbits) <= 40
                else range(1, len(orbits) + 1, 5)
            )
            for r in sample:
                assert bch.parity_row(params, r) == orbits[r - 1]


@lru_cache(maxsize=None)
def _row_field(q, n):
    return primitive_field(q, n)


_ROW_FIELDS = [(2, 5), (2, 8), (3, 2), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (7, 3), (9, 2),
               (9, 3), (16, 2), (16, 3)]


@st.composite
def _row_params(draw):
    """(q, n, d): d over the whole range, its ends, or the top q^(n-1) values as on the bench.

    The top values have first digit q - 1 and any later digits, so their
    ceilings often have a digit below the head's first digit.
    """
    q, n = draw(st.sampled_from(_ROW_FIELDS), label="field")
    top = q**n - 2
    d = draw(st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top),
                       st.integers(top + 2 - q ** (n - 1), top)), label="d")
    return q, n, d


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(_row_params())
def test_generator_rows_match_brute_at_large_alphabets(params):
    """Every row of every drawn (q, d): each search takes the head and the floor, q = 2 too."""
    q, n, d = params
    params = bch.BchParams(_row_field(q, n), d)
    rows, count = bch.brute_generator_rows(params)
    assert bch.generator_row_count(params) == count
    assert [bch.generator_row(params, r) for r in range(1, count + 1)] == rows, (q, n, d)


def test_orbit_set_invariant(f8):
    modulus = 7
    for d in (1, 3, 4):
        params = bch.BchParams(f8, d)
        for r in range(1, bch.parity_row_count(params) + 1):
            orbit = bch.parity_row(params, r)
            assert orbit.m * pow(f8.q, orbit.size, modulus) % modulus == orbit.m
            for smaller in range(1, orbit.size):
                assert orbit.m * pow(f8.q, smaller, modulus) % modulus != orbit.m


def test_subfield_basis(f8):
    assert bch.subfield_basis(f8, 1) == [((1,),)]
    full = bch.subfield_basis(f8, 3)
    assert len(full) == 3
    for beta in full:
        assert f8.pow(beta, f8.q**3) == beta
    base = gf.default_fq_ctx(2)
    f4 = gf.FqnCtx(base, 2, ((1,), (1,), (1,)))
    assert gf.certify_primitive(f4, gf.factorize(f4.order))
    assert bch.subfield_basis(f4, 1) == [((1,),)]
    assert bch.subfield_basis(f4, 2) == [((1,),), ((), (1,))]
    with pytest.raises(NotADivisor):
        bch.subfield_basis(f8, 2)


def test_subfield_basis_fixed_by_frobenius_power():
    base = gf.default_fq_ctx(3)
    fctx = gf.find_primitive_polynomial(base, 4, gf.factorize(3**4 - 1), rng_seed=23)
    for ell in (1, 2, 4):
        basis = bch.subfield_basis(fctx, ell)
        assert len(basis) == ell
        for beta in basis:
            assert fctx.pow(beta, fctx.q**ell) == beta


@pytest.mark.parametrize("q, n", [(2, 20), (3, 20), (2, 32), (2**16, 3), (4, 6), (9, 8), (2, 6)])
def test_subfield_basis_is_the_reduced_basis_of_the_fixed_subfield(q, n):
    """ell elements fixed by Frob^ell, monic, of increasing degrees, 0 at each other's degrees.

    Those conditions pin the basis without reference to any elimination; up
    to q^n = 2^12 the span is also compared with the enumerated subfield.
    """
    fctx = primitive_field(q, n)
    k = fctx.kernel
    for ell in counting.divisors(n):
        basis = bch.subfield_basis(fctx, ell)
        assert len(basis) == ell
        for beta in basis:
            assert fctx.pow(beta, q**ell) == beta
        assert_reduced_echelon(basis, fctx.base.one)
        if q**n <= 2**12:
            fixed = {x for x in map(k.from_int, range(q**n)) if k.pow(x, q**ell) == x}
            assert packed_span(k, [k.pack(beta) for beta in basis]) == fixed


def test_subfield_basis_checks_its_dimension(monkeypatch):
    """With Frobenius the identity every image is 0, and each proper subfield is refused."""
    monkeypatch.setattr(bch, "frobenius", lambda ctx, a: a)
    fctx = primitive_field(2, 6)
    for ell in (1, 2, 3):
        with pytest.raises(InvariantViolated):
            bch.subfield_basis(fctx, ell)
    assert fctx.subfield_bases == {}


def test_generator_entries_lie_in_base_field(f8):
    for d in (0, 1, 3, 4):
        params = bch.BchParams(f8, d)
        for r in range(1, bch.generator_row_count(params) + 1):
            for c in range(8):
                val = bch.generator_entry(params, r, bch.column_element(f8, c))
                assert val in ((), (1,))


@pytest.mark.parametrize("q, n", [(2, 4), (2, 6), (3, 4), (4, 2)])
def test_generator_value_refuses_an_entry_outside_the_base_field(q, n):
    """A basis element outside F_{q^s} makes the orbit sum leave F_q, and that raises.

    With beta = T (primitive, so not in F_{q^s} for s < n) and alpha = g^0 = 1,
    gamma = T and Frob(T + T^q + ... + T^(q^(s-1))) differs from it by
    T^(q^s) - T != 0.
    """
    base = gf.default_fq_ctx(q)
    ctx = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), rng_seed=7)
    order = ctx.order
    orbits = []
    for m in range(1, order):
        members = {m * q**k % order for k in range(n)}
        if min(members) == m and len(members) < n:
            orbits.append(bch.OrbitSet(m, len(members)))
    assert orbits
    columns = [bch.column_element(ctx, c) for c in range(ctx.size)]
    for orbit in orbits:
        for j in range(1, orbit.size + 1):
            for alpha in columns:
                bch.generator_value(ctx, (orbit, j), alpha)  # the true basis never raises
        true_basis = ctx.subfield_bases[orbit.size]
        ctx.subfield_bases[orbit.size] = (ctx.generator,)
        with pytest.raises(NotInBaseField):
            bch.generator_value(ctx, (orbit, 1), bch.column_element(ctx, 1))
        ctx.subfield_bases[orbit.size] = true_basis


def test_generator_entry_examples(f8):
    params = bch.BchParams(f8, 4)
    # the constant row evaluates identically at every column
    first = bch.generator_entry(params, 1, bch.column_element(f8, 0))
    for c in range(8):
        assert bch.generator_entry(params, 1, bch.column_element(f8, c)) == first
    # rows from orbits without 0 vanish at the zero column
    for r in (2, 3, 4):
        assert bch.generator_entry(params, r, f8.zero) == ()
    # direct field recomputation of the orbit {1,2,4} rows
    orbit, j = bch.generator_row(params, 2)
    assert (orbit.m, orbit.size, j) == (1, 3, 1)
    beta = bch.subfield_basis(f8, 3)[0]
    for c in range(8):
        alpha = bch.column_element(f8, c)
        acc = f8.zero
        bp = beta
        for k in range(3):
            exp = (1 * 2**k) % 7
            if not f8.is_zero(alpha):
                acc = f8.add(acc, f8.mul(bp, f8.pow(alpha, exp)))
            bp = gf.frobenius(f8, bp)
        want = acc[0] if acc else ()
        assert bch.generator_entry(params, 2, alpha) == want


def test_parity_entries(f8):
    params = bch.BchParams(f8, 3)
    for r in range(1, 4):
        orbit = bch.parity_row(params, r)
        for c in range(7):
            alpha = bch.nonzero_column_element(f8, c)
            assert bch.parity_entry(params, r, alpha) == f8.pow(alpha, orbit.m)
    # d = 0: single all-ones row
    p0 = bch.BchParams(f8, 0)
    for c in range(7):
        assert bch.parity_entry(p0, 1, bch.nonzero_column_element(f8, c)) == f8.one
    with pytest.raises(ZeroColumn):
        bch.parity_entry(params, 1, f8.zero)


def test_generator_parity_orthogonality(f8):
    # dot products over the full field (zero column included, with 0^0 = 1)
    for d in (1, 3):
        params = bch.BchParams(f8, d)
        cols = [bch.column_element(f8, c) for c in range(8)]
        for r in range(1, bch.generator_row_count(params) + 1):
            code = [bch.generator_entry(params, r, a) for a in cols]
            for pr in range(1, bch.parity_row_count(params) + 1):
                orbit = bch.parity_row(params, pr)
                dot = f8.zero
                for alpha, bit in zip(cols, code):
                    if bit != (1,):
                        continue
                    if f8.is_zero(alpha):
                        term = f8.one if orbit.m == 0 else f8.zero
                    else:
                        term = f8.pow(alpha, orbit.m)
                    dot = f8.add(dot, term)
                assert f8.is_zero(dot), (d, r, pr)


def _f2_rank(columns):
    rows = [list(col) for col in columns]
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _expanded_parity_matrix(f8, params):
    cols = [bch.nonzero_column_element(f8, c) for c in range(7)]
    rows = []
    for pr in range(1, bch.parity_row_count(params) + 1):
        entries = [bch.parity_entry(params, pr, a) for a in cols]
        for coord in range(3):
            rows.append(
                [
                    e[coord][0] if coord < len(e) and len(e[coord]) else 0
                    for e in entries
                ]
            )
    return rows


def test_distance_property(f8):
    for d in (1, 3, 4):
        params = bch.BchParams(f8, d)
        rows = _expanded_parity_matrix(f8, params)
        for subset in combinations(range(7), d):
            columns = [[row[c] for row in rows] for c in subset]
            assert _f2_rank(columns) == d, (d, subset)


def test_column_elements(f8):
    assert bch.column_element(f8, 0) == f8.zero
    assert bch.column_element(f8, 1) == f8.one
    assert bch.column_element(f8, 2) == f8.generator
    seen = {bch.column_element(f8, c) for c in range(8)}
    assert len(seen) == 8
    seen = {bch.nonzero_column_element(f8, c) for c in range(7)}
    assert len(seen) == 7 and f8.zero not in seen


def test_row_search_invariants_raise(f8, monkeypatch):
    """The row searches check their result with raises, which survive python -O."""
    params = bch.BchParams(f8, 4)
    true_least_rotation = bch._least_rotation

    def shifted(digits):  # row 2 of both searches is the aperiodic 001: start 1 is off minimal
        start, period = true_least_rotation(digits)
        return start + 1, period

    monkeypatch.setattr(bch, "_least_rotation", shifted)
    with pytest.raises(InvariantViolated):
        bch.parity_row(params, 2)
    with pytest.raises(InvariantViolated):
        bch.generator_row(params, 2)
