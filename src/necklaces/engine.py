"""Exact counting of words with a rotation below (or above) a threshold.

count_below counts #{y in Sigma^n : some rotation of y < x}, and
count_below_with_ceiling those with no rotation above a ceiling as well.
Sets of symbols enter as their sizes, exact big integers, so the work is
polynomial in n and log q.

count_below replaces x by a, the least prenecklace >= x, with p the least
period of a, and counts closed walks (Kociumaka, Radoszewski and Rytter,
CPM 2014; Sawada and Williams, JDA 2017):

  1. Only the necklaces (least rotations) below x matter, and none lies in
     [x, a), since a necklace is a prenecklace: x and a count the same words.
  2. Each border b of a[:k] has a[b] <= a[k], so the KMP automaton of a is a
     path.  At state k the symbol a[k] extends the match, the
     g_k = q - 1 - a[k] larger symbols reset it to 0, and the smaller ones
     complete a witness a[:k]c < a[:k+1].  At length n the path goes on as
     at n - p, a's longest border.
  3. A word y has no rotation below a iff yy has no witness.  Then the state
     after each copy of y is the longest suffix of y shorter than n that is
     a prefix of a.  So these words are exactly the witness-free closed
     walks of length n, each counted once at its start state s.
  4. A walk without a reset stays on the cycle n - p, ..., n - 1, so there
     are p of them if p | n and none otherwise.  Cut a walk with a reset at
     its first reset.  After the cut it goes from 0 back to 0, empty or
     ending with a reset, in one of f_L ways of length L (f_0 = 1,
     f_L = sum_{k<L} g_k f_(L-1-k)), then runs from 0 to s.  Before the cut
     it runs from s to m = n - 1 - L and takes one of g_m resets.  The two
     runs join into the run 0 -> m, and s is any of its n - L states.

So the count is q^n - sum_{L<n} (n - L) g_(n-1-L) f_L - (p if p | n else 0),
with n(n - 1)/2 multiply-adds for the f_L and no special case.

count_below_with_ceiling is a complement.  A rotation of y exceeds the
ceiling c exactly when the matching rotation of the complemented word drops
below the complemented ceiling c', so q^n - count_below(c') words have no
rotation above c; take away the V words with every rotation inside [x, c].
`_count_inside` counts V by running, on x and on c', an automaton that
decides "some rotation of y is strictly below x" as the union of two events:

  * contiguous: y contains a substring x[0:m]c with c < x[m] (the rotation
    through that substring drops below x while still inside the copied part);
  * wraparound: for some a >= 1, y ends with x[0:a] and y[0:n-a] < x[a:n]
    (the rotation by a starts with x's own prefix and drops strictly later).

The contiguous side is a KMP match length; no piece of symbols on which it
fires, on either side, is walked.  The wraparound side compares y's prefix
against every suffix x[a:] at once.  While a comparison is open,
y[0:j] = x[a:a+j] for every open shift a, so a state with open comparisons
is a node of the substring trie of x: it is reached by exactly one prefix,
its match length is fixed, and it carries its open shifts and the mask of
final match lengths already certified by shifts that closed below (a shift
m certifies the match lengths whose border chain contains m, `up_mask[m]`).
Grouping the open shifts by their next digit gives the node's children; any
other symbol closes every comparison, and a running OR of the groups above
it gives its mask.  A state with no open shift is resolved: it moves by the
border chain alone and never changes its mask.  `_transitions` returns the
ordered partition of the symbols that do not fire, the intervals on which
the move is constant.  The walk intersects the two sides' partitions (the
ceiling side's reversed) layer by layer, merging equal pairs, and counts a
final pair when neither side accepts.
"""

from operator import mul

from .words import borders, prenecklace_at_least


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


def count_below(digits, q):
    """#{y in Sigma^n : some rotation of y is lexicographically below digits}."""
    a, p = prenecklace_at_least(digits)
    n = len(a)
    g = [q - 1 - d for d in a]
    f = [1]
    for _ in range(1, n):
        f.append(sum(map(mul, g, reversed(f))))  # sum_{k<L} g_k f_(L-1-k), L = len(f)
    resets = sum((n - L) * g[n - 1 - L] * f[L] for L in range(n))
    return q**n - resets - (p if n % p == 0 else 0)


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


def _count_inside(digits, flipped, q):
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


def count_below_with_ceiling(digits, ceiling, q):
    """#{y : some rotation below `digits` and no rotation above `ceiling`}."""
    flipped = tuple(q - 1 - d for d in ceiling)
    return q**len(digits) - count_below(flipped, q) - _count_inside(digits, flipped, q)
