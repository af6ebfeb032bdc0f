import pytest

from necklaces import gf, indexing, irreducible
from necklaces.errors import NotAperiodic
from necklaces.indexing import TOO_LARGE
from necklaces.oracle import brute_irreducibles, closed_form_counts
from necklaces.words import NkString


def _primitive_ctx(q, n, seed=11):
    base = gf.default_fq_ctx(q)
    return gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), seed)


def test_count_examples():
    assert irreducible.count_irreducible(2, 3) == 2
    assert irreducible.count_irreducible(2, 1) == 2
    assert irreducible.count_irreducible(3, 2) == 3


def test_count_matches_closed_form_and_brute():
    for q, ns in ((2, range(1, 8)), (3, range(1, 5)), (4, (1, 2, 3)), (5, (1, 2, 3))):
        for n in ns:
            cnt = irreducible.count_irreducible(q, n)
            if n == 1:
                assert cnt == q
            else:
                assert cnt == closed_form_counts(n, q)[1]
            assert cnt == len(brute_irreducibles(q, n))


def test_indexing_is_a_bijection_at_desk_scale():
    cases = (
        [(2, n) for n in range(2, 7)]
        + [(3, n) for n in range(2, 5)]
        + [(4, n) for n in (2, 3)]
        + [(5, n) for n in (2, 3)]
    )
    for q, n in cases:
        base = gf.default_fq_ctx(q)
        fctx = _primitive_ctx(q, n)
        expect = brute_irreducibles(q, n)
        cnt = irreducible.count_irreducible(q, n)
        got = [irreducible.index_irreducible(fctx, i) for i in range(1, cnt + 1)]
        assert len(set(got)) == cnt
        key = lambda f: gf.poly_to_int(base, f)
        assert sorted(got, key=key) == expect, (q, n)
        assert irreducible.index_irreducible(fctx, cnt + 1) is TOO_LARGE


def test_outputs_are_monic_irreducible_of_right_degree():
    fctx = _primitive_ctx(3, 3)
    base = fctx.base
    for i in range(1, irreducible.count_irreducible(3, 3) + 1):
        f = irreducible.index_irreducible(fctx, i)
        assert len(f) == 4 and f[-1] == base.one
        assert gf.is_irreducible(base, f)


def test_degree_one_special_case():
    # index 1 is T itself; the remaining indices walk the powers of the root
    fctx = _primitive_ctx(5, 1)
    base = fctx.base
    polys = [irreducible.index_irreducible(fctx, i) for i in range(1, 6)]
    assert polys[0] == (base.zero, base.one)
    assert len(set(polys)) == 5
    for f in polys:
        assert len(f) == 2 and f[-1] == base.one
    assert irreducible.index_irreducible(fctx, 6) is TOO_LARGE
    # q = 2, n = 1: exactly T and T+1
    f21 = _primitive_ctx(2, 1)
    assert irreducible.index_irreducible(f21, 1) == (f21.base.zero, f21.base.one)
    assert irreducible.index_irreducible(f21, 2) == (f21.base.one, f21.base.one)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_degree_one_is_a_bijection_for_every_seed(q):
    # advice of modulus T (class of T = 0) would map two indices to T
    base = gf.default_fq_ctx(q)
    expect = brute_irreducibles(q, 1)
    for seed in range(20):
        fctx = _primitive_ctx(q, 1, seed=seed)
        got = [irreducible.index_irreducible(fctx, i) for i in range(1, q + 1)]
        assert sorted(got, key=lambda f: gf.poly_to_int(base, f)) == expect, seed


def test_advice_independence_of_output_set():
    for q, n in ((2, 3), (2, 4)):
        cnt = irreducible.count_irreducible(q, n)
        images = []
        for seed in (3, 77):
            fctx = _primitive_ctx(q, n, seed=seed)
            images.append(
                frozenset(
                    irreducible.index_irreducible(fctx, i) for i in range(1, cnt + 1)
                )
            )
        assert images[0] == images[1]


def test_specific_small_case():
    fctx = _primitive_ctx(2, 2)
    assert fctx.modulus == ((1,), (1,), (1,))
    assert irreducible.index_irreducible(fctx, 1) == ((1,), (1,), (1,))
    fctx3 = _primitive_ctx(2, 3)
    outs = {irreducible.index_irreducible(fctx3, i) for i in (1, 2)}
    assert outs == {((1,), (1,), (), (1,)), ((1,), (), (1,), (1,))}


def test_requires_primitive_context():
    base = gf.default_fq_ctx(2)
    ctx = gf.FqnCtx(base, 3, ((1,), (1,), (), (1,)))
    with pytest.raises(ValueError):
        irreducible.index_irreducible(ctx, 1)
    with pytest.raises(ValueError):
        irreducible.index_irreducible(_primitive_ctx(2, 3), 0)


def test_periodic_exponent_word_raises(monkeypatch):
    fctx = _primitive_ctx(2, 3)
    monkeypatch.setattr(indexing, "index_lyndon", lambda n, q, i: NkString(n, q, (q - 1,) * n))
    with pytest.raises(NotAperiodic):
        irreducible.index_irreducible(fctx, 1)
