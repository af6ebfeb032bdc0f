import importlib
import itertools
import pkgutil
import random

import pytest

from conftest import (
    all_words,
    brute_count_below,
    brute_necklaces_below,
    primitive_field,
)
import necklaces
from necklaces import bch, counting, engine, indexing, programs
from necklaces.errors import InvariantViolated, NotADivisor
from necklaces.oracle import _longest_zero_run, brute_orbits, closed_form_counts
from necklaces.words import NkString, parse_word


def w(text, q=2):
    return parse_word(text, q)


def test_divisors_and_mobius():
    assert counting.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert counting.divisors(1) == [1]
    assert counting.mobius(1) == 1
    assert counting.mobius(12) == 0
    assert counting.mobius(30) == -1
    assert [counting.mobius(m) for m in (2, 3, 4, 6, 9, 10)] == [-1, -1, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        counting.mobius(0)


def test_dividing_count_examples():
    assert counting.count_words_below_period_dividing(w("10"), 2) == 3
    assert counting.count_words_below_period_dividing(w("11"), 1) == 1
    assert counting.count_words_below_period_dividing(w("0000"), 2) == 0
    for p in (3, 0):
        with pytest.raises(NotADivisor):
            counting.count_words_below_period_dividing(w("0110"), p)
        with pytest.raises(NotADivisor):
            counting.count_words_below_period_exact(w("0110"), p)


def test_exact_count_examples():
    assert counting.count_words_below_period_exact(w("10"), 2) == 2
    assert counting.count_words_below_period_exact(w("0000"), 4) == 0
    assert counting.count_words_below_period_exact(w("1111"), 4) == 12


def test_necklaces_below_examples():
    assert counting.count_necklaces_below(w("011")) == 2
    assert counting.count_necklaces_below(w("000")) == 0
    assert counting.count_necklaces_below(w("111")) == 3


def test_lyndon_below_examples():
    assert counting.count_lyndon_below(w("111")) == 2
    assert counting.count_lyndon_below(w("0000")) == 0
    assert counting.count_lyndon_below(w("1111")) == 3


def test_totals():
    assert counting.count_necklaces(1, 7) == 7
    assert counting.count_lyndon(1, 7) == 7
    assert counting.count_necklaces(4, 2) == 6
    assert counting.count_lyndon(3, 2) == 2
    for n in range(1, 13):
        neck, lyn = closed_form_counts(n, 2)
        assert counting.count_necklaces(n, 2) == neck
        assert counting.count_lyndon(n, 2) == lyn
    for n in range(1, 8):
        neck, lyn = closed_form_counts(n, 3)
        assert counting.count_necklaces(n, 3) == neck
        assert counting.count_lyndon(n, 3) == lyn
    # a large-alphabet spot check against the closed forms
    q = 10**12 + 39
    neck, lyn = closed_form_counts(6, q)
    assert counting.count_necklaces(6, q) == neck
    assert counting.count_lyndon(6, q) == lyn


_TOTAL_SIZES = ([(n, q) for n in range(1, 13) for q in (2, 3, 4, 5, 7)]
                + [(32, 2), (80, 2), (10, 2**26), (56, 2**16), (6, 10**12 + 39)])


@pytest.mark.parametrize("n, q", _TOTAL_SIZES)
def test_totals_agree_with_the_engine_below_the_top_word(n, q):
    """Burnside and Witt equal the engine's count below (q-1)^n plus that word's orbit.

    The all-(q-1) word is its own orbit of size 1, aperiodic only when n = 1.
    """
    top = NkString(n, q, (q - 1,) * n)
    assert counting.count_necklaces(n, q) == counting.count_necklaces_below(top) + 1
    assert counting.count_lyndon(n, q) == counting.count_lyndon_below(top) + (n == 1)


def test_totals_make_no_engine_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a total reached the engine")

    counting.clear_caches()  # a memo hit would hide an engine call
    monkeypatch.setattr(engine, "count_below", refuse)
    for n, q in _TOTAL_SIZES + [(8000, 2)]:
        totals = counting.count_necklaces(n, q), counting.count_lyndon(n, q)
        assert totals == closed_form_counts(n, q), (n, q)
    assert counting._count_dividing_cached.cache_info().currsize == 0


@pytest.mark.parametrize("n, q, message", [(0, 2, "word length must be positive"),
                                           (-3, 5, "word length must be positive"),
                                           (3, 1, "alphabet size must be at least 2"),
                                           (0, 0, "word length must be positive")])
def test_totals_refuse_what_a_word_refuses(n, q, message):
    for count in (counting.count_necklaces, counting.count_lyndon):
        with pytest.raises(ValueError, match=message):
            count(n, q)
    with pytest.raises(ValueError, match=message):
        NkString(n, q, (0,) * max(n, 0))


def test_counts_match_brute_force_exhaustively():
    for q, top in ((2, 8), (3, 5)):
        for n in range(1, top + 1):
            for x in all_words(n, q):
                assert counting.count_necklaces_below(x) == brute_necklaces_below(x)
                for p in counting.divisors(n):
                    got = counting.count_words_below_period_dividing(x, p)
                    assert got == brute_count_below(x, p, dividing=True), (x, p)
                    got = counting.count_words_below_period_exact(x, p)
                    assert got == brute_count_below(x, p, dividing=False), (x, p)


def test_divisor_sum_consistency_and_divisibility():
    rng = random.Random(23)
    for n, q in ((12, 2), (6, 3), (4, 5), (8, 2)):
        for _ in range(60):
            x = NkString.from_int(n, q, rng.randrange(q**n))
            leq = {
                p: counting.count_words_below_period_dividing(x, p)
                for p in counting.divisors(n)
            }
            for p in counting.divisors(n):
                parts = [
                    counting.count_words_below_period_exact(x, i)
                    for i in counting.divisors(p)
                ]
                assert sum(parts) == leq[p]
            for p in counting.divisors(n):
                assert counting.count_words_below_period_exact(x, p) % p == 0


def test_monotonicity():
    for n in (5, 8):
        prev = 0
        for v in range(2**n):
            cur = counting.count_necklaces_below(NkString.from_int(n, 2, v))
            assert cur >= prev
            prev = cur


def test_paths_agree():
    """The engine and the paper's branching programs both count as brute force does."""
    rng = random.Random(29)
    for q in (3, 4, 5, 6):
        for n in range(1, 5):
            if q**n <= 260:
                values = range(q**n)
            else:
                values = [rng.randrange(q**n) for _ in range(80)]
            for v in values:
                x = NkString.from_int(n, q, v)
                want = brute_count_below(x, n, dividing=True)
                assert counting.count_words_below_period_dividing(x, n) == want, (q, n, v)
                assert programs.count_rotation_below(x) == want, (q, n, v)


def test_orbit_count_invariants_raise(monkeypatch):
    """A count not divisible by its orbit size is a bug, reported as such.

    W_1, W_2, W_4 = 0, 1, 2 gives exact counts E_2 = 1 and E_4 = 1, which
    sizes 2 and 4 do not divide.
    """
    monkeypatch.setattr(counting, "_count_dividing_cached", lambda digits, q: (0, 1, 2))
    with pytest.raises(InvariantViolated):
        counting.count_necklaces_below(w("0110"))
    with pytest.raises(InvariantViolated):
        counting.count_lyndon_below(w("0110"))


@pytest.mark.parametrize("count", [counting.count_necklaces_below, counting.count_lyndon_below],
                         ids=["necklaces", "lyndon"])
def test_orbit_count_reads_its_table_once(count):
    """A cold orbit count looks its threshold's W table up once, not once per divisor."""
    counting.clear_caches()
    before = counting._count_dividing_cached.cache_info()
    count(w("001011001101"))
    after = counting._count_dividing_cached.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == 1
    assert after.misses - before.misses == 1


def _package_memos():
    """Every lru_cache wrapper at module or class level in the `necklaces` modules."""
    memos = {}
    for info in pkgutil.iter_modules(necklaces.__path__):
        module = importlib.import_module(f"necklaces.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for scope in scopes:
            for name, value in scope.items():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    memos[f"{info.name}.{name}"] = value
    return memos


def test_clear_caches_empties_every_package_memo():
    """After a rank, an unrank, a gen entry and a pc entry, clear_caches leaves no memo entry."""
    fctx = primitive_field(4, 3)
    params = bch.BchParams(fctx, 50)
    indexing.reverse_index_necklace(w("0010110011"))
    indexing.index_lyndon(10, 2, 40)
    bch.generator_entry(params, 3, fctx.element_from_int(9))
    bch.parity_entry(params, 3, fctx.element_from_int(9))
    memos = _package_memos()
    assert {"counting._count_dividing_cached", "counting._run_table",
            "engine._ceiling_side"} <= set(memos)
    assert any(memo.cache_info().currsize for memo in memos.values())
    counting.clear_caches()
    left = {name: memo.cache_info().currsize for name, memo in memos.items()}
    assert not any(left.values()), left


def test_two_sided_count():
    from necklaces.words import max_rotation, min_rotation

    rng = random.Random(31)
    for q, n in ((2, 7), (3, 4), (5, 3)):
        for _ in range(80):
            x = NkString.from_int(n, q, rng.randrange(q**n))
            cap = NkString.from_int(n, q, rng.randrange(q**n))
            got = counting.count_words_below_with_ceiling(x, cap)
            want = sum(
                1
                for y in all_words(n, q)
                if min_rotation(y)[0].digits < x.digits
                and max_rotation(y)[0].digits <= cap.digits
            )
            assert got == want, (q, n, x.digits, cap.digits)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_run_table_counts_orbits_with_short_zero_runs(q):
    """The closed forms by runs equal a count over the enumerated orbits, every r <= n.

    r = n is every orbit, which `orbits_in_closed_form` gives; below n the
    table's necklace and Lyndon counts, and its prefix sums of the linear
    words with no zero run longer than r.
    """
    for n in range(1, 9):
        runs = [(_longest_zero_run(rep.digits), size) for rep, size in brute_orbits(n, q)]
        for r in range(n + 1):
            want = (sum(1 for run, _ in runs if run <= r),
                    sum(1 for run, size in runs if run <= r and size == n))
            if r == n:
                got = counting.orbits_in_closed_form(n, q), counting.orbits_in_closed_form(n, q, True)
                assert got == want, (n, r)
                continue
            sums, necklaces, lyndon = counting._run_table(n, q, r)
            assert (necklaces, lyndon) == want, (n, r)
            if n <= 6:
                for t in range(n):
                    linear = sum(1 for w in itertools.product(range(q), repeat=t)
                                 if _longest_zero_run(w + (1,)) <= r)
                    assert sums[t + r + 2] - sums[t + r + 1] == linear, (n, r, t)
