import functools
import itertools
import math
import random

import pytest

from necklaces import counting, indexing
from necklaces.errors import InvariantViolated, NotAperiodic
from necklaces.indexing import TOO_LARGE
from necklaces.oracle import brute_orbits
from necklaces.words import NkString, fundamental_period, min_rotation, parse_word


def w(text, q=2):
    return parse_word(text, q)


def test_index_necklace_examples():
    got = [indexing.index_necklace(3, 2, j) for j in range(1, 5)]
    assert [g.digits for g in got] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert indexing.index_necklace(3, 2, 5) is TOO_LARGE
    for j in range(1, 8):
        assert indexing.index_necklace(1, 7, j).digits == (j - 1,)
    assert indexing.index_necklace(1, 7, 8) is TOO_LARGE
    assert indexing.index_necklace(4, 2, 4).digits == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        indexing.index_necklace(3, 2, 0)


def test_reverse_index_examples():
    res = indexing.reverse_index_necklace(w("110"))
    assert res.rank == 3 and res.canonical.digits == (0, 1, 1)
    assert indexing.reverse_index_necklace(w("000")).rank == 1
    assert indexing.reverse_index_necklace(w("1111")).rank == 6


def test_lyndon_examples():
    assert indexing.index_lyndon(3, 2, 1).digits == (0, 0, 1)
    assert indexing.index_lyndon(3, 2, 2).digits == (0, 1, 1)
    assert indexing.index_lyndon(3, 2, 3) is TOO_LARGE
    got = [indexing.index_lyndon(2, 3, j).digits for j in (1, 2, 3)]
    assert got == [(0, 1), (0, 2), (1, 2)]
    res = indexing.reverse_index_lyndon(w("10"))
    assert res.rank == 1 and res.canonical.digits == (0, 1)
    with pytest.raises(NotAperiodic):
        indexing.reverse_index_lyndon(w("0101"))


def test_bijection_against_enumeration():
    for q, top in ((2, 10), (3, 6)):
        for n in range(1, top + 1):
            orbits = brute_orbits(n, q)
            reps = [rep for rep, _ in orbits]
            total = counting.count_necklaces(n, q)
            assert total == len(reps)
            for j, rep in enumerate(reps, start=1):
                got = indexing.index_necklace(n, q, j)
                assert got.digits == rep.digits, (n, q, j)
                assert indexing.reverse_index_necklace(rep).rank == j
            assert indexing.index_necklace(n, q, total + 1) is TOO_LARGE

            lyndon = [rep for rep, size in orbits if size == n]
            assert counting.count_lyndon(n, q) == len(lyndon)
            for j, rep in enumerate(lyndon, start=1):
                got = indexing.index_lyndon(n, q, j)
                assert got.digits == rep.digits
                assert indexing.reverse_index_lyndon(rep).rank == j
            assert indexing.index_lyndon(n, q, len(lyndon) + 1) is TOO_LARGE


def test_round_trip_on_arbitrary_words():
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randrange(1, 9)
        q = rng.choice([2, 3, 5])
        x = NkString.from_int(n, q, rng.randrange(q**n))
        res = indexing.reverse_index_necklace(x)
        back = indexing.index_necklace(n, q, res.rank)
        assert back.digits == min_rotation(x)[0].digits


def test_outputs_are_ordered_and_canonical():
    for n, q in ((7, 2), (4, 3)):
        total = counting.count_necklaces(n, q)
        prev = None
        for j in range(1, total + 1):
            word = indexing.index_necklace(n, q, j)
            assert min_rotation(word)[0].digits == word.digits
            if prev is not None:
                assert prev < word.digits
            prev = word.digits
        for j in range(1, counting.count_lyndon(n, q) + 1):
            word = indexing.index_lyndon(n, q, j)
            assert fundamental_period(word) == word.n


@pytest.fixture
def probes(monkeypatch):
    """Records every orbit count below a threshold, the calls an unrank's search probes.

    The totals are closed forms, so after clearing the list an unrank's
    probes number len(probes).
    """
    calls = []
    for name in ("count_necklaces_below", "count_lyndon_below"):
        real = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda x, real=real: calls.append(x) or real(x))
    return calls


def test_probe_budget(probes):
    for n, q, j in ((10, 2, 50), (5, 3, 7), (4, 97, 1000)):
        probes.clear()
        indexing.index_necklace(n, q, j)
        assert len(probes) <= n * math.ceil(math.log2(q)) + 2


def _next_necklace(digits, q):
    """Next necklace after `digits` in lexicographic order (FKM algorithm).

    Steps through prenecklaces: bump the last digit below q-1 at position i,
    extend periodically with period i+1, and stop at the first prenecklace
    whose period divides n.  Needs no counting, so it is a reference that is
    independent of the engine.
    """
    a = list(digits)
    n = len(a)
    while True:
        i = n - 1
        while a[i] == q - 1:
            i -= 1
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = a[j - i - 1]
        if n % (i + 1) == 0:
            return tuple(a)


def _words(n, q):
    """The walk's map for a bracket over all q^n words: x's base-q expansion."""
    return functools.partial(indexing._word, n, q, 0)


@pytest.mark.parametrize("n, q", [(6, 2), (8, 2), (4, 3), (3, 4), (3, 5)])
def test_walk_reaches_every_rank_from_the_bottom(n, q):
    orbits = brute_orbits(n, q)
    weights = {"necklace": lambda a, p: 1, "lyndon": lambda a, p: p == n}
    reps = {"necklace": [rep for rep, _ in orbits],
            "lyndon": [rep for rep, size in orbits if size == n]}
    for kind, weight in weights.items():
        for j, rep in enumerate(reps[kind], start=1):
            assert indexing._walk(n, q, 0, q**n, j, weight, _words(n, q)) == (rep, j - 1), (kind, j)


@pytest.mark.parametrize("n, q", [(6, 2), (8, 2), (4, 3), (3, 5)])
def test_walk_passes_the_weight_below_its_answer(n, q):
    """From any lo, the passed weight is the weight of the necklaces in [lo, answer).

    Each necklace weighs its orbit size, or 0 when its digit sum is a
    multiple of 3, the way a generator row search weighs an orbit that
    leaves its ceiling.
    """
    def weight(a, p):
        return 0 if sum(a) % 3 == 0 else p

    orbits = brute_orbits(n, q)
    rng = random.Random(n * 100 + q)
    for lo in sorted({0, q**n // 2} | {rng.randrange(q**n) for _ in range(6)}):
        passed = 0
        for rep, size in orbits:
            own = weight(rep.digits, size)
            if rep.to_int() < lo or not own:
                continue
            for target in {passed + 1, passed + own}:
                got = indexing._walk(n, q, lo, q**n, target, weight, _words(n, q))
                assert got == (rep, passed), (lo, target)
            passed += own


def test_walk_raises_on_an_off_by_one_count(monkeypatch):
    """An undercounting `below` sends the walk past hi, which raises."""
    n, q = 10, 2
    true_below = counting.count_necklaces_below
    monkeypatch.setattr(counting, "count_necklaces_below", lambda x: max(0, true_below(x) - 1))
    # The last necklace with first digit 0: the bracket's top is the closed
    # form's, so no probe can lower it to meet the undercount.  Its first
    # run is 1, and the run head's closed forms pin both ends of that
    # bracket; at n = 8 it holds at most n necklaces and the walk starts
    # before any probe, so the undercount never shows.
    j = counting.count_necklaces(n, q) - counting.orbits_in_closed_form(n, q - 1)
    with pytest.raises(InvariantViolated):
        indexing.index_necklace(n, q, j)
    # Weights that never reach the target run off the last prenecklace.
    with pytest.raises(InvariantViolated):
        indexing._walk(n, q, 0, q**n, 1, lambda a, p: 0, _words(n, q))


@pytest.mark.parametrize("kind, n, draws", [("necklace", 32, 150), ("lyndon", 64, 40)])
def test_seeded_ranks_within_bisection(probes, kind, n, draws):
    """Seeded binary unranks take no more probes than plain bisection's n.

    Binary orbit counts pile up at the low end of the interval, where plain
    false position spends the search's two probes of slack.
    """
    unrank = indexing.index_necklace if kind == "necklace" else indexing.index_lyndon
    total = (counting.count_necklaces if kind == "necklace" else counting.count_lyndon)(n, 2)
    rng = random.Random(21)
    for _ in range(draws):
        j = rng.randint(1, total)
        probes.clear()
        unrank(n, 2, j)
        assert len(probes) <= n, (j, len(probes))


@pytest.mark.parametrize("kind", ["necklace", "lyndon"])
@pytest.mark.parametrize("n, q, draws", [(10, 2**26, 40), (16, 2**64, 10), (3, 2**16, 60)],
                         ids=["n10-q2^26", "n16-q2^64", "n3-q2^16"])
def test_large_alphabet_ranks_take_about_n_probes(probes, kind, n, q, draws):
    """Seeded unranks at large q take at most n + 2 probes on average and 2n at most.

    After the first digit d the search runs in radix q - d over the words
    with no digit below d.  In radix q the count is flat wherever a later
    digit is below d, and the search took about 2n probes on average.
    """
    unrank = indexing.index_necklace if kind == "necklace" else indexing.index_lyndon
    total = (counting.count_necklaces if kind == "necklace" else counting.count_lyndon)(n, q)
    rng = random.Random(n * 31 + q)
    counts = []
    for j in [1, total] + [rng.randint(1, total) for _ in range(draws)]:
        probes.clear()
        unrank(n, q, j)
        counts.append(len(probes))
    assert sum(counts) <= (n + 2) * len(counts), sorted(counts)
    assert max(counts) <= 2 * n, sorted(counts)


@pytest.mark.parametrize("kind", ["necklace", "lyndon"])
def test_binary_ranks_search_only_the_run_floor(probes, kind):
    """Seeded (32, 2) unranks take at most 8.5 probes on average, and 15 at the 99th percentile.

    The run head pins the necklace's first run of zeros, r, in closed form,
    and the word phase searches only the words 0^r 1 w' with no zero run in
    w' longer than r.  Searching every word after the first digit, the
    search took about 12.5 probes on average on these ranks, and 21 to 24
    at the 99th percentile.
    """
    n, q = 32, 2
    unrank = indexing.index_necklace if kind == "necklace" else indexing.index_lyndon
    total = (counting.count_necklaces if kind == "necklace" else counting.count_lyndon)(n, q)
    rng = random.Random(n * 31 + q)
    counts = []
    for j in [1, total] + [rng.randint(1, total) for _ in range(400)]:
        probes.clear()
        unrank(n, q, j)
        counts.append(len(probes))
    counts.sort()
    assert sum(counts) <= 8.5 * len(counts), counts
    assert counts[len(counts) * 99 // 100] <= 15, counts[-10:]


def _longest_run(digits, d):
    return max((len(run) for run in "".join("x" if c == d else " " for c in digits).split()),
               default=0)


@pytest.mark.parametrize("q, top", [(2, 10), (3, 6), (4, 5), (5, 4)])
def test_run_map_lists_the_run_bounded_words_in_order(q, top):
    """_run_map(n, q, d, r) is an order-keeping bijection onto the words d^r e w'.

    e > d, and w' has no run of d longer than r; the reference sorts every
    such word, enumerated one by one.
    """
    for n in range(2, top + 1):
        for d in range(q - 1):
            for r in range(1, n):
                want = sorted((d,) * r + (e,) + rest
                              for e in range(d + 1, q)
                              for rest in itertools.product(range(d, q), repeat=n - r - 1)
                              if _longest_run(rest, d) <= r)
                size, word = indexing._run_map(n, q, d, r)
                assert [word(x).digits for x in range(size)] == want, (n, d, r)
                for x in (-1, size):
                    with pytest.raises(ValueError):
                        word(x)


@pytest.mark.parametrize("n", [24, 40, 64], ids=["n24", "n40", "n64"])
@pytest.mark.parametrize("q", [2, 3, 2**20], ids=["q2", "q3", "q2^20"])
def test_consecutive_necklaces_have_consecutive_ranks(n, q):
    # Canonical thresholds are the engine's worst case; check them at sizes
    # past brute-force enumeration.  Words over {0, q-1} make the successor
    # carry and extend periodically also when q is large.
    rng = random.Random(n * 1000 + q)
    for alphabet in ((0, q - 1),) * 2 + (range(q),) * 2:
        digits = tuple(rng.choice(alphabet) for _ in range(n))
        word = min_rotation(NkString(n, q, digits))[0]
        if all(d == q - 1 for d in word.digits):
            continue
        succ = NkString(n, q, _next_necklace(word.digits, q))
        assert min_rotation(succ)[0] == succ
        rank = indexing.reverse_index_necklace(word).rank
        assert indexing.reverse_index_necklace(succ).rank == rank + 1


def test_rank_result_is_frozen():
    res = indexing.reverse_index_necklace(w("01"))
    with pytest.raises(Exception):
        res.rank = 5
