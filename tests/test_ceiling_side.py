"""Each row search builds its per-row tables once.

A generator row search probes many thresholds under one ceiling, and the
ceiling side of every probe, with the row total, comes from one memo entry
(`engine._ceiling_side`).  Each head evaluation adds one table, on a
smaller alphabet under its shifted ceiling.  A parity row is searched first
and checked after, so the row count's table at word(d + 1) is built only
past the last row.
"""

import random
from itertools import product

import pytest

from conftest import brute_orbit_below, primitive_field
from necklaces import bch, counting, engine, indexing
from necklaces.errors import TooBig
from necklaces.words import NkString, complement, prenecklace_at_least


def _tables(monkeypatch):
    """(prenecklace, alphabet) for each table `engine.count_below_by_period` builds."""
    table, built = engine.count_below_by_period, []

    def recording(a, p, q, periods):
        built.append((tuple(a), q))
        return table(a, p, q, periods)

    monkeypatch.setattr(engine, "count_below_by_period", recording)
    return built


@pytest.mark.parametrize("q, n", [(2, 20), (4, 6), (2**16, 3)])
def test_generator_entry_builds_one_table_per_ceiling(q, n, monkeypatch):
    """The row's ceiling first, then one per head evaluation whose shifted ceiling has a word.

    At q = 2 that is the ceiling's alone: the head's one probe, at digit 1,
    has k = 1 letter and no shifted ceiling.
    """
    fctx = primitive_field(q, n)
    built = _tables(monkeypatch)
    count, probes = engine.count_below_with_ceiling, []
    monkeypatch.setattr(engine, "count_below_with_ceiling",
                        lambda *args: probes.append(args) or count(*args))
    within, ceilings = engine.count_within_ceiling, []
    monkeypatch.setattr(engine, "count_within_ceiling",
                        lambda c, k: ceilings.append((tuple(c), k)) or within(c, k))
    rng = random.Random(q + n)
    for _ in range(3):
        params = bch.BchParams(fctx, rng.randint(q**n - q**(n - 1), q**n - 2))
        r = rng.randint(1, bch.generator_row_count(params))
        counting.clear_caches()
        built.clear()
        probes.clear()
        ceilings.clear()
        bch.generator_entry(params, r, fctx.element_from_int(rng.randrange(q**n)))
        flipped = complement(NkString.from_int(n, q, params.d)).digits
        heads = [(tuple(prenecklace_at_least([k - 1 - c for c in shifted])[0]), k)
                 for shifted, k in dict.fromkeys(ceilings[1:])]
        assert ceilings[0] == (NkString.from_int(n, q, params.d).digits, q)
        assert built == [(tuple(prenecklace_at_least(flipped)[0]), q)] + heads, (params.d, r)
        assert all(k < q for _, k in heads) and len(heads) <= 3, (params.d, r)
        assert len(probes) >= 3, (params.d, r)


def test_parity_entry_builds_no_table_at_the_bound(monkeypatch):
    q, n = 2, 20
    fctx = primitive_field(q, n)
    built = _tables(monkeypatch)
    rng = random.Random(20)
    for _ in range(4):
        params = bch.BchParams(fctx, rng.randint(q**n - q**(n - 1), q**n - 2))
        r = rng.randint(1, bch.parity_row_count(params))
        counting.clear_caches()
        built.clear()
        bch.parity_entry(params, r, fctx.element_from_int(rng.randrange(1, q**n)))
        bound = NkString.from_int(n, q, params.d + 1).digits
        assert built and tuple(prenecklace_at_least(bound)[0]) not in built, (params.d, r)


def _brute_with_ceiling(x, ceiling, q):
    n = len(x)
    words = [NkString(n, q, y) for y in product(range(q), repeat=n)]
    x, flipped = NkString(n, q, x), complement(NkString(n, q, ceiling))
    return sum(brute_orbit_below(y, x) and not brute_orbit_below(complement(y), flipped)
               for y in words)


@pytest.mark.parametrize("order", [(2, 3), (3, 2)])
def test_ceiling_memo_is_keyed_by_alphabet(order):
    """One ceiling's digits under two alphabets are two ceilings."""
    ceiling = (1, 0, 1, 1)
    counting.clear_caches()
    for q in order:
        for x in product(range(q), repeat=len(ceiling)):
            want = _brute_with_ceiling(x, ceiling, q)
            assert engine.count_below_with_ceiling(x, ceiling, q) == want, (x, q)
    assert engine._ceiling_side.cache_info().currsize == 2


def test_clear_caches_clears_the_ceiling_memo():
    engine.count_below_with_ceiling((0, 1, 1), (1, 1, 0), 2)
    assert engine._ceiling_side.cache_info().currsize >= 1
    counting.clear_caches()
    assert engine._ceiling_side.cache_info().currsize == 0


@pytest.mark.parametrize("q, n, d", [(2, 6, 11), (2, 6, 62), (3, 4, 40), (3, 4, 79), (4, 3, 21)])
def test_parity_row_boundary(q, n, d):
    """Row rows(d) exists; past it TooBig names rows(d), on a necklace above d or past them all."""
    params = bch.BchParams(primitive_field(q, n), d)
    rows = bch.parity_row_count(params)
    assert bch.parity_row(params, rows) == bch.brute_parity_orbits(params)[-1]
    assert indexing.index_necklace(n, q, rows + 1).to_int() > d
    past = counting.count_necklaces(n, q) + 1
    assert indexing.index_necklace(n, q, past) is indexing.TOO_LARGE
    for r in (rows + 1, past):
        with pytest.raises(TooBig) as raised:
            bch.parity_row(params, r)
        assert str(raised.value) == f"row {r} beyond {rows} parity rows"
