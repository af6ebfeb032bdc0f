"""The interpolation search behind every unrank: probe budget, answers, closed forms.

Every search is checked against a plain bisection written here (or, where
that takes too many two-sided counts, against its answer's successor), and
its probes against the budget n * ceil(log2 q) + 2.  The closed form that
pins the first digit is checked against the engine and against the oracle.
`hypothesis` properties drive the search with synthetic counts,
derandomized so the suite gives the same result on every run; every
search takes a head, so the counts sum a weight over necklaces, as its
contract asks.
"""

import math
import random

import hypothesis
import pytest
from hypothesis import strategies as st

from necklaces import bch, counting, engine, gf, indexing
from necklaces.oracle import brute_orbits, closed_form_counts
from necklaces.words import NkString, max_rotation


def bisect(n, q, j, below):
    """Largest word x with below(x) < j, by plain binary search."""
    lo, hi = 0, q**n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if below(NkString.from_int(n, q, mid)) < j:
            lo = mid
        else:
            hi = mid - 1
    return NkString.from_int(n, q, lo)


def budget(n, q):
    return n * math.ceil(math.log2(q)) + 2


@pytest.fixture
def searches(monkeypatch):
    """Runs every indexing._search through a wrapper that counts its probes.

    Yields the list of (n, q, j, below, answer, probes), one per search;
    the answer is the (word, count below it) pair that the search returns.
    It also spies `indexing._walk` and requires each search's closing walk
    to take at most 4n successor steps, whatever the weights.
    """
    seen, steps = [], []
    search, walk, successor = indexing._search, indexing._walk, indexing.next_prenecklace

    def stepped(a, q):
        steps[-1] += 1
        return successor(a, q)

    def walked(*args):
        steps.append(0)
        return walk(*args)

    def counted(n, q, j, below, *args):
        probes = 0

        def probe(x):
            nonlocal probes
            probes += 1
            return below(x)

        steps.clear()
        got = search(n, q, j, probe, *args)
        assert sum(steps) <= 4 * n, (n, q, j, steps)
        seen.append((n, q, j, below, got, probes))
        return got

    monkeypatch.setattr(indexing, "_search", counted)
    monkeypatch.setattr(indexing, "_walk", walked)
    monkeypatch.setattr(indexing, "next_prenecklace", stepped)
    return seen


def check(searches):
    for n, q, j, below, got, probes in searches:
        assert probes <= budget(n, q), (n, q, j, probes)
        want = bisect(n, q, j, below)
        assert got == (want, below(want)), (n, q, j)
    searches.clear()


UNRANK = {"necklace": (indexing.index_necklace, counting.count_necklaces),
          "lyndon": (indexing.index_lyndon, counting.count_lyndon)}


@pytest.mark.parametrize("kind", sorted(UNRANK))
@pytest.mark.parametrize("n, q", [(1, 7), (8, 2), (10, 2), (4, 3), (3, 4), (5, 5), (3, 16),
                                  (2, 97)])
def test_every_rank_within_budget(searches, kind, n, q):
    unrank, count = UNRANK[kind]
    for j in range(1, count(n, q) + 1):
        unrank(n, q, j)
        check(searches)


@pytest.mark.parametrize("kind", sorted(UNRANK))
@pytest.mark.parametrize("n, q, draws", [(32, 2, 6), (10, 2**26, 4), (16, 2**64, 1)],
                         ids=["n32-q2", "n10-q2^26", "n16-q2^64"])
def test_seeded_ranks_within_budget(searches, kind, n, q, draws):
    unrank, count = UNRANK[kind]
    rng = random.Random(n * 7919 + q)
    total = count(n, q)
    for j in [1, total] + [rng.randint(1, total) for _ in range(draws)]:
        unrank(n, q, j)
        check(searches)


def test_bch_row_searches_within_budget(searches):
    base = gf.default_fq_ctx(2)
    ctx = gf.FqnCtx(base, 5, ((1,), (), (1,), (), (), (1,)))  # T^5+T^2+1
    assert gf.certify_primitive(ctx, gf.factorize(ctx.order))
    for d in (1, 6, 13, 22, 30):
        params = bch.BchParams(ctx, d)
        for r in range(1, bch.generator_row_count(params) + 1):
            bch.generator_row(params, r)
        for r in range(1, bch.parity_row_count(params) + 1):
            bch.parity_row(params, r)
        assert len(searches) == bch.generator_row_count(params) + bch.parity_row_count(params)
        check(searches)


@pytest.mark.parametrize("kind", sorted(UNRANK))
def test_head_evaluates_the_total_once(monkeypatch, kind):
    """Each head call runs one closed form, on q - d letters; the q-letter total runs once.

    The head is built from the total, so no closed form runs on 0 letters.
    """
    unrank, count = UNRANK[kind]
    n, q = 10, 2**26
    letters, heads = [], []
    closed_form, search = counting.orbits_in_closed_form, indexing._search

    def counted(n, k, lyndon=False):
        letters.append(k)
        return closed_form(n, k, lyndon)

    def spied(n, q, j, below, total, head, weight, runs):
        def counted_head(d):
            heads.append(d)
            return head(d)
        return search(n, q, j, below, total, counted_head, weight, runs)

    monkeypatch.setattr(counting, "orbits_in_closed_form", counted)
    monkeypatch.setattr(indexing, "_search", spied)
    rng, total = random.Random(23), count(n, q)
    for j in [1, total] + [rng.randint(1, total) for _ in range(8)]:
        letters.clear()
        heads.clear()
        unrank(n, q, j)
        assert heads and all(0 < d < q for d in heads)
        assert letters.count(q) == 1, (j, len(heads), letters.count(q))
        assert sorted(k for k in letters if k != q) == sorted(q - d for d in heads)


def _head_word(n, q, d):
    return NkString(n, q, (d,) + (0,) * (n - 1))


@pytest.mark.parametrize("n, q", [(1, 5), (6, 2), (4, 3), (3, 4), (10, 2**26),
                                  (6, 10**12 + 39)])
def test_closed_form_first_digit(n, q):
    if q <= 5:
        digits = range(q)
    else:
        rng = random.Random(q)
        digits = [0, 1, q // 2, q - 1] + [rng.randrange(q) for _ in range(4)]
    necklaces, lyndon = counting.count_necklaces(n, q), counting.count_lyndon(n, q)
    for d in digits:
        word = _head_word(n, q, d)
        assert (necklaces - counting.orbits_in_closed_form(n, q - d)
                == counting.count_necklaces_below(word))
        assert (lyndon - counting.orbits_in_closed_form(n, q - d, lyndon=True)
                == counting.count_lyndon_below(word))
    assert (necklaces, lyndon) == closed_form_counts(n, q)


@st.composite
def _flat_counts(draw):
    """(n, q, cum): cum[x] is the sum of per-word weights over the words below x.

    Nonzero weights sit after gaps that are short or up to the whole
    interval long, so cum has the long flat stretches that a generator
    row's count has where orbits leave the ceiling.
    """
    q = draw(st.integers(2, 16), label="q")
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    n = draw(st.integers(1, n_max), label="n")
    size = q**n
    gap = st.one_of(st.integers(0, 3), st.integers(0, size - 1))
    runs = draw(st.lists(st.tuples(gap, st.integers(1, 50)), min_size=1, max_size=24),
                label="runs")
    weights, at = [0] * size, 0
    for skip, w in runs:
        at += skip
        if at >= size:
            break
        weights[at] += w
        at += 1
    cum = [0]
    for w in weights:
        cum.append(cum[-1] + w)
    return n, q, cum


def _on_necklaces(n, q, cum, periods=False):
    """(moved, weights): cum moved onto the necklaces, and each necklace's weight.

    Each word reads cum at the least necklace >= it.  The count then rises
    only across necklaces, as a count with a head must (`indexing._search`),
    and keeps cum's shape and its flat stretches.  A necklace weighs its
    rise, which `weights` maps its digits to.  With `periods` every necklace
    that rises weighs its period instead, as a generator row's count does.
    """
    reps = brute_orbits(n, q)
    starts = [rep.to_int() for rep, _ in reps] + [q**n]
    moved, weights = [0], {}
    for (rep, period), x, nxt in zip(reps, starts, starts[1:]):
        rise = cum[nxt] - cum[x]  # the necklace x stands for the words in [x, nxt)
        weights[rep.digits] = period if periods and rise else rise
        moved += [moved[-1] + weights[rep.digits]] * (nxt - x)
    return moved, weights


def _check_search(n, q, j, cum, weights):
    """The search against bisection on cum, within the probe and head budgets."""
    want = bisect(n, q, j, lambda x: cum[x.to_int()])
    probes = heads = 0

    def below(x):
        nonlocal probes
        probes += 1
        return cum[x.to_int()]

    def head(d):
        nonlocal heads
        heads += 1
        return cum[d * q ** (n - 1)]

    got = indexing._search(n, q, j, below, cum[-1], head, lambda a, p: weights[tuple(a)])
    assert got == (want, cum[want.to_int()]), (n, q, j)
    assert probes <= budget(n, q), (n, q, j, probes)
    # The first digit's budget ceil(log2 q) + 2, and one to spare.
    assert heads <= math.ceil(math.log2(q)) + 3, (n, q, j, heads)


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(_flat_counts(), st.data())
def test_search_contract_on_flat_counts(counts, data):
    """On cum's runs moved onto necklaces, each weighing its period, as a generator row's do."""
    n, q, cum = counts
    cum, weights = _on_necklaces(n, q, cum, periods=True)
    _check_search(n, q, data.draw(st.integers(1, cum[-1]), label="j"), cum, weights)


@pytest.mark.parametrize("power", [3, 12], ids=["3-head", "12-head"])
def test_search_past_the_float_range(power):
    """Past q^n = 2^1024 the search needs ratios only: no int becomes a float.

    At q^n = 2^1152 the count is a generator row's under a ceiling whose
    first digit is q - 1 and whose other digits `power` seeds: periods
    summed over the necklaces below x, 0 for those whose orbit leaves the
    ceiling.  Bisection would take 1152 two-sided counts per rank, so the
    answer x is checked against its successor: below(x) < j <= below(x + 1).
    """
    rng, heads = random.Random(1120), 0
    n, q, seeded = 9, 2**128, random.Random(power)
    ceiling = (q - 1,) + tuple(seeded.randrange(q) for _ in range(n - 1))
    total = engine.count_within_ceiling(ceiling, q)
    row_head = bch._row_head(ceiling, q, total)

    def count(x):
        return engine.count_below_with_ceiling(x.digits, ceiling, q)

    def head(d):
        nonlocal heads
        heads += 1
        return row_head(d)

    def weight(a, p):
        return p if max_rotation(NkString(n, q, tuple(a)))[0].digits <= ceiling else 0

    for j in [1, total, total // 2] + [rng.randint(1, total) for _ in range(3)]:
        probes = heads = 0

        def below(x):
            nonlocal probes
            probes += 1
            return count(x)

        got = indexing._search(n, q, j, below, total, head, weight)
        x = got[0].to_int()
        assert got[1] == count(got[0]) < j, (power, j)
        assert x == q**n - 1 or count(NkString.from_int(n, q, x + 1)) >= j, (power, j)
        assert probes <= budget(n, q), (power, j, probes)
        assert heads <= math.ceil(math.log2(q)) + 3, (power, j, heads)


@pytest.mark.parametrize("kind", sorted(UNRANK))
def test_unrank_round_trips_past_the_float_range(kind):
    """Past 2^1024 in q^n, and in q itself, where the first digit's model runs."""
    unrank, count = UNRANK[kind]
    rank = {"necklace": indexing.reverse_index_necklace,
            "lyndon": indexing.reverse_index_lyndon}[kind]
    for n, q in [(70, 2**16), (3, 2**1100), (2, 2**2000)]:
        rng, total = random.Random(n), count(n, q)
        for j in [1, total] + [rng.randint(1, total) for _ in range(3)]:
            word = unrank(n, q, j)
            assert rank(word) == indexing.RankResult(j, word), (n, j)


def test_generator_rows_do_not_lock_in(searches):
    """Rows of F_{(2^16)^3} drawn as the field benchmark draws them.

    Plain false position on the concave row count aims its first probes far
    past the answer, and then the window admits only midpoints: without the
    model, 13 of these 60 searches took all 50 probes.  With the head and
    the digit floor they take 4.12 probes on average, against 9.07 with no
    head, and 3.97 once they close with the walk.
    """
    q, n = 2**16, 3
    base = gf.default_fq_ctx(q)
    ctx = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), rng_seed=1)
    d0 = q**n - q ** (n - 1)
    rows = bch.generator_row_count(bch.BchParams(ctx, d0))
    rng = random.Random(5)
    for _ in range(60):
        d, r = rng.randint(d0, q**n - 2), rng.randint(1, rows)
        bch.generator_row(bch.BchParams(ctx, d), r)
    probes = [seen[-1] for seen in searches]
    assert len(probes) == 60
    assert max(probes) < budget(n, q), sorted(probes)
    assert sum(probes) / len(probes) <= 6, sorted(probes)
    check(searches)


def _row_field(q, n):
    base = gf.default_fq_ctx(q)
    return gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), rng_seed=1)


def test_generator_rows_close_with_the_walk(searches):
    """150 rows of F_(4^6) drawn as the field benchmark draws them.

    The word phase stops at 4n words and walks the rest, so a (4, 6) row
    takes 3.84 two-sided counts on average here, against 6.10 when it
    stopped once at most n rows were left in the bracket and never walked.
    """
    q, n = 4, 6
    ctx = _row_field(q, n)
    d0 = q**n - q ** (n - 1)
    rows = bch.generator_row_count(bch.BchParams(ctx, d0))
    rng = random.Random(5)
    for _ in range(150):
        d, r = rng.randint(d0, q**n - 2), rng.randint(1, rows)
        bch.generator_row(bch.BchParams(ctx, d), r)
    probes = [seen[-1] for seen in searches]
    assert len(probes) == 150
    assert sum(probes) / len(probes) <= 4.5, sorted(probes)
    check(searches)


@pytest.mark.parametrize("seed", [11, 5, 23])
def test_uniform_binary_rows_stay_under_the_budget(searches, seed):
    """60 rows of F_(2^20) with d and r uniform: none takes the whole budget.

    A q = 2 row's count is flat wherever orbits leave the ceiling, the
    stairs on which the pull toward the midpoint costs probes.  Stopping
    once at most n rows were left, 4, 1 and 6 of these searches at seeds
    11, 5 and 23 took all n + 2 = 22 probes; stopping at 4n words, none
    takes more than 16.
    """
    q, n = 2, 20
    ctx, rng = _row_field(q, n), random.Random(seed)
    for _ in range(60):
        params = bch.BchParams(ctx, rng.randint(0, q**n - 2))
        bch.generator_row(params, rng.randint(1, bch.generator_row_count(params)))
    probes = [seen[-1] for seen in searches]
    assert len(probes) == 60
    assert max(probes) < budget(n, q), sorted(probes)
    check(searches)


@pytest.mark.parametrize("q, n, offsets, draws", [
    (2, 12, (-1, 0, 1, 3, 9, 40, 200), None),
    (4, 6, (0, 1, 5, 17, 60), 40),
], ids=["2-12", "4-6"])
def test_row_walks_cross_zero_weight_necklaces(searches, q, n, offsets, draws):
    """Rows whose ceiling lets few orbits in: most necklaces weigh 0.

    At q = 2 and d near 2^(n-1) the ceiling lets in 1 to 6 of the 352
    necklaces (1 to 47 rows); at (4, 6) and d near d0 = 3 * 4^5, 131 to
    158 of 700.  A stop on the rows left in the bracket walks across long
    stretches of zero-weight necklaces; the `searches` fixture holds every
    walk to 4n steps.  Every row at q = 2, `draws` seeded rows per d at
    (4, 6).
    """
    ctx, rng = _row_field(q, n), random.Random(q * n)
    for offset in offsets:
        params = bch.BchParams(ctx, q ** (n - 1) * (q - 1) + offset)
        rows = bch.generator_row_count(params)
        for r in range(1, rows + 1) if draws is None else (
                [1, rows] + [rng.randint(1, rows) for _ in range(draws)]):
            bch.generator_row(params, r)
        check(searches)


@pytest.mark.parametrize("kind", sorted(UNRANK))
def test_first_digit_does_not_lock_in(monkeypatch, kind):
    """At (10, 2^26) the first digit takes at most 4 closed forms.

    Plain false position took all 28 of the digit budget on 45 of these 200
    ranks, of either kind.
    """
    unrank, count = UNRANK[kind]
    n, q = 10, 2**26
    heads, search = [], indexing._search

    def spied(n, q, j, below, total, head, weight, runs):
        def counted_head(d):
            heads[-1] += 1
            return head(d)
        return search(n, q, j, below, total, counted_head, weight, runs)

    monkeypatch.setattr(indexing, "_search", spied)
    rng, total = random.Random(26), count(n, q)
    for _ in range(200):
        heads.append(0)
        unrank(n, q, rng.randint(1, total))
    assert max(heads) <= 4, sorted(heads)[-10:]


@pytest.mark.parametrize("kind, n, q, draws", [
    ("necklace", 32, 2, 60), ("necklace", 64, 2, 20), ("necklace", 12, 3, 60),
    ("lyndon", 40, 3, 20), ("necklace", 256, 2, 0),
], ids=["necklace-32-2", "necklace-64-2", "necklace-12-3", "lyndon-40-3", "necklace-256-2"])
def test_run_head_within_budget(monkeypatch, kind, n, q, draws):
    """The run head is one `_narrow` over n - r: at most n.bit_length() + 2 closed forms.

    At (256, 2) only the first and last ranks: j = 1 ends at r = n, the far
    end of the bracket from r = 1.
    """
    unrank, count = UNRANK[kind]
    calls, search = [], indexing._search

    def spied(n, q, j, below, total, head, weight, runs):
        def counted_runs(d, r):
            calls[-1] += 1
            return runs(d, r)
        return search(n, q, j, below, total, head, weight, counted_runs)

    monkeypatch.setattr(indexing, "_search", spied)
    rng, total = random.Random(n * q), count(n, q)
    for j in [1, total] + [rng.randint(1, total) for _ in range(draws)]:
        calls.append(0)
        unrank(n, q, j)
    assert any(calls) and max(calls) <= n.bit_length() + 2, sorted(calls)[-10:]


@st.composite
def _shaped_counts(draw):
    """(n, q, cum) with cum close to T * (1 - (1 - x/q^n)^n), or to T * (x/q^n)^n.

    The first, concave shape is the one the probe model expects (the share
    of words whose least rotation lies below x); the second, convex one is
    its opposite.  Each word's weight is the shape's rise across it plus a
    seeded jitter, floored at 0.
    """
    q = draw(st.integers(2, 16), label="q")
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    n = draw(st.integers(1, n_max), label="n")
    convex = draw(st.booleans(), label="convex")
    size = q**n
    scale = draw(st.integers(1, 4 * size), label="scale")
    jitter = draw(st.integers(0, 6), label="jitter")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    if convex:
        def shape(x):
            return scale * x**n // size**n
    else:
        def shape(x):
            return scale - scale * (size - x) ** n // size**n
    cum = [0]
    for x in range(size):
        rise = shape(x + 1) - shape(x) + rng.randint(-jitter, jitter)
        cum.append(cum[-1] + max(rise, 0))
    if cum[-1] == 0:
        cum[-1] = 1
    return n, q, cum


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(_shaped_counts(), st.data())
def test_search_contract_on_shaped_counts(counts, data):
    """On cum moved onto necklaces, which keeps its shape."""
    n, q, cum = counts
    cum, weights = _on_necklaces(n, q, cum)
    _check_search(n, q, data.draw(st.integers(1, cum[-1]), label="j"), cum, weights)


@st.composite
def _necklace_weights(draw):
    """(n, q, weights, cum): weights from 0 to 3 on the necklaces only.

    weights maps each necklace's digits to its weight, and cum[x] sums them
    over the necklaces below x, as a count with a `weight` does.  A drawn
    share of the necklaces weighs 0, so some counts are flat across whole
    first-digit buckets.
    """
    q = draw(st.integers(3, 16), label="q")
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    n = draw(st.integers(1, n_max), label="n")
    empty = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]), label="empty")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    reps = [rep for rep, _ in brute_orbits(n, q)]
    weights = {rep.digits: rng.randint(0, 3) if rng.random() >= empty else 0 for rep in reps}
    if not any(weights.values()):
        weights[rng.choice(reps).digits] = rng.randint(1, 3)
    cum = [0]
    for x in range(q**n):
        cum.append(cum[-1] + weights.get(NkString.from_int(n, q, x).digits, 0))
    return n, q, weights, cum


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(_necklace_weights(), st.data())
def test_search_contract_with_a_weight(counts, data):
    """With a head and a weight the word phase skips words with a digit below the first.

    Against bisection over every word, at the first and last ranks and one
    drawn between them.
    """
    n, q, weights, cum = counts
    total = cum[-1]
    heads = 0

    def head(d):
        nonlocal heads
        heads += 1
        return cum[d * q ** (n - 1)]

    def weight(a, p):
        return weights[tuple(a)]

    for j in sorted({1, total, data.draw(st.integers(1, total), label="j")}):
        want = bisect(n, q, j, lambda x: cum[x.to_int()])
        probes = heads = 0

        def below(x):
            nonlocal probes
            probes += 1
            return cum[x.to_int()]

        got = indexing._search(n, q, j, below, total, head, weight)
        assert got == (want, cum[want.to_int()]), (n, q, j)
        assert probes <= budget(n, q), (n, q, j, probes)
        assert heads <= math.ceil(math.log2(q)) + 3, (n, q, j, heads)


_X = 2**40
_SAFEGUARD_COUNTS = {
    # Illinois: false position on a strongly convex count keeps its high
    # end and creeps up from below; on the mirrored concave count it keeps
    # its low end.  Halving the kept end's weight moves the point across.
    "illinois-convex": (lambda x: x**8 // _X**7, _X, 15.5),
    "illinois-concave": (lambda x: _X - (_X - x) ** 8 // _X**7, _X, 16.5),
    # The delta pull: on milder curves false position lands on one side
    # for a few probes before Illinois turns it; the pull toward the
    # midpoint shrinks the far side meanwhile.
    "pull-convex": (lambda x: x**3 // _X**2, _X, 11.5),
    "pull-concave": (lambda x: _X - (_X - x) ** 3 // _X**2, _X, 12.5),
    # The target j - 1/2: on steps 2^20 words wide, aiming at j puts the
    # point on the step's top whenever count_hi = j, and the bracket loses
    # one word a probe while Illinois doubles a zero weight.
    "target-stairs": (lambda x: x >> 20, _X >> 20, 30),
}


@pytest.mark.parametrize("name", sorted(_SAFEGUARD_COUNTS))
def test_narrow_safeguards_pay(name):
    """Mean probes of `_narrow` on counts where one safeguard pays, over 40 seeded targets.

    Each bound sits between the search's mean and the mean with that
    safeguard taken out (Illinois weights, delta pull, target j - 1/2):
    over five seeds of targets, 13.4-14.4 against 16.4-19.3 (convex) and
    12.4-15.3 against 17.5-22.2 (concave) for Illinois; 9.5-10.5 against
    11.8-14.2 and 9.6-10.9 against 12.5-17.5 for the pull; 27 against 42,
    the whole budget, for the target.  The answers are checked as well.
    """
    count, top, bound = _SAFEGUARD_COUNTS[name]
    rng, total = random.Random(1), 0
    for _ in range(40):
        j = rng.randint(1, top)
        probes = 0

        def counted(x):
            nonlocal probes
            probes += 1
            return count(x)

        lo, hi, count_lo, count_hi = indexing._narrow(2, j, counted, 0, _X, 0, top, 42)
        assert hi - lo == 1 and count_lo == count(lo) < j <= count(hi) == count_hi, (name, j)
        total += probes
    assert total <= bound * 40, (name, total / 40)
