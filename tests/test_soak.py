"""A long run of fresh ranks and unranks does not grow memory without bound.

Every cache on the counting path has a maxsize, so once the caches are full
the traced memory stops growing: the reading after the second half of the
run stays within a small margin of the reading after the first half.
"""

import gc
import random
import tracemalloc

from necklaces import counting, indexing
from necklaces.words import NkString

SIZES = [(32, 2), (10, 2**26)]


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
    counting.clear_caches()
    tracemalloc.start()
    try:
        readings = []
        for _ in range(2):
            _run(rng, 1000)
            gc.collect()  # also empties the tuple free lists, which tracemalloc counts
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        counting.clear_caches()
    first, second = readings
    assert second <= first + 32 * 1024, readings
