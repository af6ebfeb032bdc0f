"""Long runs of fresh public calls do not grow memory without bound.

Every cache on the counting and field paths has a maxsize, so once the
caches are full the traced memory stops growing: the reading after the
second half of a run stays within a small margin of the reading after the
first half.
"""

import gc
import random
import tracemalloc

from necklaces import bch, counting, engine, gf, indexing, irreducible
from necklaces.words import NkString

SIZES = [(32, 2), (10, 2**26)]
FIELDS = [(16, 2), (27, 2)]


def _readings(run, halves):
    """Traced memory after run(calls) for each calls in halves, from empty caches."""
    counting.clear_caches()
    tracemalloc.start()
    try:
        readings = []
        for calls in halves:
            run(calls)
            gc.collect()  # also empties the tuple free lists, which tracemalloc counts
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        counting.clear_caches()
    return readings


def _run(rng, calls):
    """Fresh necklace ranks; every 40th call is a necklace or Lyndon unrank instead."""
    for k in range(calls):
        if k % 40 < 39:
            n, q = SIZES[k % 2]
            indexing.reverse_index_necklace(NkString.from_int(n, q, rng.randrange(q**n)))
        else:
            n, q = SIZES[k // 40 % 2]
            lyndon = k // 80 % 2 == 1
            total = counting.orbits_in_closed_form(n, q, lyndon)
            index = indexing.index_lyndon if lyndon else indexing.index_necklace
            index(n, q, rng.randrange(1, total + 1))


def test_counting_caches_stay_bounded():
    rng = random.Random(6)
    first, second = _readings(lambda calls: _run(rng, calls), (1000, 1000))
    assert second <= first + 32 * 1024, (first, second)


def _field_run(rng, fields, calls):
    """Fresh generator entries; every fourth call an irreducible index or a parity entry instead.

    The fields take turns in blocks of 8 calls, so each gets every kind.
    """
    for k in range(calls):
        fctx = fields[k // 8 % 2]
        size = fctx.q**fctx.n
        if k % 8 == 3:
            irreducible.index_irreducible(
                fctx, rng.randrange(1, irreducible.count_irreducible(fctx.q, fctx.n) + 1))
            continue
        params = bch.BchParams(fctx, rng.randrange(size // 2, size - 1))
        alpha = bch.nonzero_column_element(fctx, rng.randrange(size - 1))
        if k % 8 == 7:
            bch.parity_entry(params, rng.randrange(1, bch.parity_row_count(params) + 1), alpha)
        else:
            r = rng.randrange(1, bch.generator_row_count(params) + 1)
            bch.generator_entry(params, r, alpha)


def test_field_caches_stay_bounded():
    """The threshold and ceiling memos (256 entries each) fill in the first half.

    Under tracemalloc these calls run about 11 times slower, so the second
    half is less than a third of the first.  The divisor tables and closed
    forms hold a few keys per context, each context's subfield bases one per
    divisor of n, and its fixed-base table of generator powers
    (`gf.generator_power`) 15 per hex digit of the group order, built once.
    """
    fields = [gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, gf.factorize(q**n - 1), 1)
              for q, n in FIELDS]
    tables = [f.generator_powers for f in fields]
    sizes = [15 * -(-f.order.bit_length() // 4) for f in fields]
    rng = random.Random(7)
    full, table_sizes = [], []

    def run(calls):
        _field_run(rng, fields, calls)
        full.append([c.cache_info().currsize == c.cache_info().maxsize
                     for c in (counting._count_dividing_cached, engine._ceiling_side)])
        table_sizes.append([len(t) if f.generator_powers is t else None
                            for f, t in zip(fields, tables)])

    first, second = _readings(run, (1600, 400))
    assert full[0] == [True, True], full
    assert table_sizes == [sizes, sizes], (table_sizes, sizes)
    assert second <= first + 32 * 1024, (first, second)
