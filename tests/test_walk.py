"""engine.count_below, the closed-walk count on the path ("chain") automaton
of the least prenecklace, and engine._count_inside, the closed-walk count on
the event graph of two such paths, against an independent reference, and
engine.count_below_with_ceiling against brute force on every short pair.

The reference is the substring-trie pair walk the engine used to count the
words with every rotation inside [x, ceiling] before the event graph: it
decides "some rotation is below x" as a contiguous or a wraparound witness
on the substring trie of x, and shares no code with either closed-walk
count.  `reference_walk` runs it under the all-top ceiling, which excludes
no word, as the reference for count_below.  Brute force over every word
checks all of them at short sizes.
"""

import itertools
import random
from bisect import bisect_left

import pytest

from necklaces import bch, engine, gf
from necklaces.words import NkString, borders, min_rotation, prenecklace_at_least

# ---------------------------------------------------------------------------
# the substring-trie pair walk (reference only)
#
# An automaton decides "some rotation of y is strictly below x" as the union
# of two events:
#
#   * contiguous: y contains a substring x[0:m]c with c < x[m] (the rotation
#     through that substring drops below x while still inside the copied part);
#   * wraparound: for some a >= 1, y ends with x[0:a] and y[0:n-a] < x[a:n]
#     (the rotation by a starts with x's own prefix and drops strictly later).
#
# The contiguous side is a KMP match length.  The wraparound side compares
# y's prefix against every suffix x[a:] at once.  While a comparison is open,
# y[0:j] = x[a:a+j] for every open shift a, so a state with open comparisons
# is a node of the substring trie of x: it is reached by exactly one prefix,
# its match length is fixed, and it carries its open shifts and the mask of
# final match lengths already certified by shifts that closed below (a shift
# m certifies the match lengths whose border chain contains m, `up_mask[m]`).
# A state with no open shift moves by the border chain alone.
# `_transitions` returns the ordered partition of the symbols that do not
# fire, the intervals on which the move is constant.  The walk intersects the
# two sides' partitions (the ceiling side's reversed) layer by layer, merging
# equal pairs, and counts a final pair when neither side accepts.


class _Tables:
    """Per-threshold tables over the KMP border chains of x."""

    def __init__(self, digits, q):
        self.x = digits
        self.q = q
        n = self.n = len(digits)
        border = borders(digits)

        # up_mask[m], m >= 1: bitmask of the match lengths whose border chain
        # contains m, i.e. the final states in which a word ending with
        # x[0:m] is ending with that border of the matched prefix as well.
        # (Shifts are at least 1, so up_mask[0] is never read.)
        up_mask = [0] * (n + 1)
        for ell in range(n, 0, -1):
            up_mask[ell] |= 1 << ell
            up_mask[border[ell]] |= up_mask[ell]
        self.up_mask = up_mask

        # fire_above[ell]: a contiguous witness fires iff the symbol read at
        # match length ell is below this, the largest x[m] over the border
        # chain of ell; extend[ell]: the match length after reading it, m + 1
        # for the longest such m.  Larger symbols drop the match length to 0.
        fire_above, extend = [digits[0]] * n, [1] * n
        for ell in range(1, n):
            b = border[ell]
            if digits[ell] >= fire_above[b]:
                fire_above[ell], extend[ell] = digits[ell], ell + 1
            else:
                fire_above[ell], extend[ell] = fire_above[b], extend[b]
        self.fire_above = fire_above
        self.extend = extend


def _transitions(tab, state, j):
    """Ordered partition of {fire_above[ell], ..., q-1} for `state` reading symbol j.

    A state is (match length ell, mask, open shifts), live while some shift is
    open.  Returns (first symbol, size, next state) in ascending symbol order;
    the smaller symbols fire a contiguous witness.  A symbol equal to open
    shifts' next digit keeps those with a digit left open; every other symbol
    closes them all.  The shifts whose next digit exceeds the symbol end
    below, so their up_mask joins the mask.
    """
    ell, mask, shifts = state
    x, n, up_mask = tab.x, tab.n, tab.up_mask
    f = tab.fire_above[ell]
    groups = {f: []}
    for a in shifts:
        groups.setdefault(x[a + j], []).append(a)
    out = []
    top = tab.q
    for v in sorted(groups, reverse=True):
        if v < f:
            break
        if top > v + 1:
            out.append((v + 1, top - v - 1, (0, mask, ())))
        group = groups[v]
        out.append((v, 1, (tab.extend[ell] if v == f else 0, mask,
                           tuple(a for a in group if a + j + 1 < n))))
        for a in group:
            mask |= up_mask[a]
        top = v
    out.reverse()
    return out


def _accepts(state):
    ell, mask, _ = state
    return (mask >> ell) & 1


def _pair_moves(lo, hi, pair, j):
    """(size, next pair) for a pair of states, on the symbols where neither fires.

    The hi side reads complemented symbols, so its partition is reversed
    before the two are intersected.
    """
    slo, shi = pair
    q = lo.q
    plo = _transitions(lo, slo, j)
    phi = [(q - c - size, size, out) for c, size, out in reversed(_transitions(hi, shi, j))]
    moves = []
    i = k = 0
    while i < len(plo) and k < len(phi):
        c0, s0, out_lo = plo[i]
        c1, s1, out_hi = phi[k]
        start, end = max(c0, c1), min(c0 + s0, c1 + s1)
        if end > start:
            moves.append((end - start, (out_lo, out_hi)))
        i += end == c0 + s0
        k += end == c1 + s1
    return moves


def trie_count_inside(digits, flipped, q):
    """#{y : no rotation of y below `digits`, none of its complement below `flipped`}.

    With `flipped` the complemented ceiling, these are the words with every
    rotation inside [digits, ceiling].
    """
    n = len(digits)
    lo, hi = _Tables(tuple(digits), q), _Tables(tuple(flipped), q)
    start = (0, 0, tuple(range(1, n)))
    frontier = {(start, start): 1}
    memo = {}  # pair with no open shift -> its moves, the same at every layer
    for j in range(n):
        nxt = {}
        for pair, cnt in frontier.items():
            moves = memo.get(pair)
            if moves is None:
                moves = _pair_moves(lo, hi, pair, j)
                if not pair[0][2] and not pair[1][2]:
                    memo[pair] = moves
            for size, key in moves:
                nxt[key] = nxt.get(key, 0) + cnt * size
        frontier = nxt
    return sum(cnt for (slo, shi), cnt in frontier.items()
               if not _accepts(slo) and not _accepts(shi))


def reference_walk(digits, q):
    """The trie pair walk's count of words with a rotation below digits."""
    n = len(digits)
    return q**n - trie_count_inside(digits, (0,) * n, q)  # (0,) * n: the top, complemented


def _canonical(n, q, digits):
    return min_rotation(NkString(n, q, tuple(digits)))[0].digits


def _thresholds():
    rng = random.Random(12)
    out = []
    for n, q in ((40, 2), (24, 3), (16, 5), (20, 2**16), (12, 2**100)):
        for _ in range(16):
            digits = [rng.randrange(q) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (q - 1,) * n))  # all-top
        for p in (1, 2, 3, 4, 5):  # periodic
            block = [rng.randrange(q) for _ in range(p)]
            out.append((q, tuple(block * (n // p) + block[:n % p])))
    q = 2**20  # digits 0 and 1 only: long borders and long runs of resets
    for n in (8, 16, 24, 32):
        for _ in range(8):
            digits = [rng.randrange(2) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (0,) * (n - 1) + (1,)))
        out.append((q, (1,) * n))
    return out


THRESHOLDS = _thresholds()


def test_threshold_set_is_large_enough():
    assert len(set(THRESHOLDS)) >= 200


@pytest.mark.parametrize("q, digits", [
    pytest.param(q, digits, id=f"{i}-n{len(digits)}") for i, (q, digits) in enumerate(THRESHOLDS)])
def test_chain_matches_reference_walk(q, digits):
    assert engine.count_below(digits, q) == reference_walk(digits, q)


def test_count_below_matches_brute_force_on_every_short_word():
    """Every threshold of every size up to n = 10 at q = 2, 6 at q = 3, 4 at q = 4, 5."""
    for q, top in ((2, 10), (3, 6), (4, 4), (5, 4)):
        for n in range(1, top + 1):
            words = list(itertools.product(range(q), repeat=n))
            least = sorted(min((y + y)[s:s + n] for s in range(n)) for y in words)
            for x in words:
                assert engine.count_below(x, q) == bisect_left(least, x), (x, q)


def test_ceiling_count_matches_brute_force_on_every_pair():
    """Every (x, ceiling) pair up to n = 6 at q = 2, 4 at q = 3, 3 at q = 4, 2 at q = 5."""
    pairs = 0
    for q, top in ((2, 6), (3, 4), (4, 3), (5, 2)):
        for n in range(1, top + 1):
            words = list(itertools.product(range(q), repeat=n))
            rotations = ([(y + y)[s:s + n] for s in range(n)] for y in words)
            spans = [(min(r), max(r)) for r in rotations]
            for cap in words:
                least = sorted(lo for lo, hi in spans if hi <= cap)
                for x in words:
                    want = bisect_left(least, x)
                    assert engine.count_below_with_ceiling(x, cap, q) == want, (x, cap, q)
                    pairs += 1
    assert pairs == 17858


def _random_pairs(n, q, count, rng):
    """Pairs (x, complemented ceiling): half uniform, half with x low and the ceiling high."""
    out = []
    for i in range(count):
        x = [rng.randrange(q) for _ in range(n)]
        cap = [rng.randrange(q) for _ in range(n)]
        if i % 2:  # a wide interval: many words with every rotation inside it
            head = rng.randrange(1, n // 2 + 1)
            x[:head] = [rng.randrange(q // 2 + 1)] * head
            cap[:head] = [rng.randrange(q // 2, q)] * head
        out.append((tuple(x), tuple(q - 1 - d for d in cap)))
    return out


@pytest.mark.parametrize("n, q", [
    (8, 2), (16, 2), (24, 2), (8, 3), (12, 3), (6, 5), (12, 5), (6, 2**8), (3, 2**16), (4, 2**16)])
def test_event_graph_matches_trie_on_random_pairs(n, q):
    rng = random.Random(n * 1000 + q % 997)
    for x, flipped in _random_pairs(n, q, 24, rng):
        inside = engine._count_inside(x, *prenecklace_at_least(flipped), q)
        assert inside == trie_count_inside(x, flipped, q), (x, flipped, q)


def _generator_row_probes(q, n, searches, monkeypatch):
    """The (threshold, ceiling) pairs that real bch.generator_row searches probe."""
    fctx = gf.find_primitive_polynomial(gf.default_fq_ctx(q), n, gf.factorize(q**n - 1), 1)
    probes = []
    count = engine.count_below_with_ceiling

    def record(digits, ceiling, q):
        probes.append((tuple(digits), tuple(ceiling)))
        return count(digits, ceiling, q)

    monkeypatch.setattr(engine, "count_below_with_ceiling", record)
    rng = random.Random(71)
    for _ in range(searches):
        params = bch.BchParams(fctx, rng.randint(q**n - q**(n - 1), q**n - 2))
        bch.generator_row(params, rng.randint(1, bch.generator_row_count(params)))
    return probes


@pytest.mark.parametrize("q, n, searches", [(4, 6, 12), (2**16, 3, 12), (2, 20, 3)])
def test_event_graph_matches_trie_on_generator_row_probes(q, n, searches, monkeypatch):
    probes = _generator_row_probes(q, n, searches, monkeypatch)
    assert len(probes) >= 3 * searches
    for digits, ceiling in probes:
        flipped = tuple(q - 1 - d for d in ceiling)
        inside = engine._count_inside(digits, *prenecklace_at_least(flipped), q)
        assert inside == trie_count_inside(digits, flipped, q), (digits, ceiling, q)
