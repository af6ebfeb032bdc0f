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
     runs join into the run 0 -> m, and s is any of its n - L states.  At
     q = 2 every g_k is 0 or 1, so f_L is the plain sum of the f_(L-1-k)
     over the resets k < L, with no multiplies.

So the count is q^n - sum_{L<n} (n - L) g_(n-1-L) f_L - (p if p | n else 0),
with n(n - 1)/2 multiply-adds for the f_L and no special case.  It is also
W_n, the last of the counts that counting's Mobius sums read:

  5. For d | n let W_d count the words whose period divides d and which
     have a rotation below x.  Such a word is b^(n/d) for a block b of
     length d, and its least rotation is m^(n/d), m the least rotation of b.
     By step 1, m^(n/d) < x iff m^(n/d) < a.  That holds when m < a[:d],
     which the length-d count at the prenecklace a[:d] counts, and fails
     when m > a[:d].  If m = a[:d], a[:d] is a necklace whose least period
     d' divides d.  A prefix of a of length >= p has least period p, so if
     p <= d then d' = p and m^(n/d) = a, not below a; if p > d, a breaks
     period d' with a larger digit, so m^(n/d) < a and its d' words count.
     The length-d count at a[:d] subtracts d' exactly when d' | d, so for
     p > d the two terms cancel, and p | d cannot hold.  So every W_d reads
     the g_k and f_L of the one prenecklace a:
     W_d = q^d - sum_{L<d} (d - L) g_(d-1-L) f_L - (p if p | d else 0).

count_below_with_ceiling is a complement.  A rotation of y exceeds the
ceiling c exactly when the matching rotation of the complemented word drops
below the complemented ceiling c', so q^n - count_below(c') words have no
rotation above c; take away the V words with every rotation inside [x, c].
The ceiling side does not depend on x: `_ceiling_side` builds it once per
(c, q), as b, the least prenecklace >= c', its period and
q^n - count_below(b), in a bounded memo, so the probes of a row search, all
under one ceiling, share one table, and `count_within_ceiling`, which
`bch.generator_row_count` reads, is the same entry.  A row search's head
(`bch._row_head`) reads `count_within_ceiling` too, under shifted ceilings
on fewer letters, one entry each.  `_count_inside` counts
V by closed walks on two KMP paths at once:

  6. By step 1 on each side, V counts the words with no rotation below a,
     the least prenecklace >= x, with least period pa, and none above u,
     the complement of the least prenecklace >= c', with least period pu.
  7. Step 2 mirrored: at state k of u's path the symbol u[k] extends the
     match, the smaller ones reset it and the larger ones complete a witness
     above u.  On both paths at once, a state (i, k) allows the symbols
     [a[i], u[k]].  If a[i] = u[k] the walk is forced to (i + 1, k + 1); if
     a[i] > u[k] the state is dead; if a[i] < u[k] it is an event: a[i] goes
     to (i + 1, 0), u[k] to (0, k + 1) and the u[k] - a[i] - 1 symbols in
     between to (0, 0).  A side at n goes on as at n - p for that side.
  8. By step 3 on each side, the words of V are exactly the closed walks of
     length n on these moves, each counted once at its start state.
  9. After an event the walk is at an axis state (i, 0) or (0, k).  These
     2n - 1 states are the nodes of the event graph.  From a node the walk
     takes r forced steps to its first event, then one of the event's
     moves: an edge of length r + 1 with multiplicity 1, 1 or
     u[k] - a[i] - 1.  A node with no event within n steps has no edge.
 10. Cut a walk with an event after each event: it becomes a closed walk
     of edges, and it starts at one of its n states.  With A(x) the
     adjacency of the event graph, entry (v, w) the multiplicity of the
     edge v -> w times x^(its length), these walks number [x^n](-x Q'/Q)
     for Q = det(I - A(x)): the transfer-matrix method (Stanley,
     Enumerative Combinatorics I, 4.7).  Elimination takes the determinant
     one pivot at a time, nodes farthest from (0, 0) first.  The pivot of
     a node v with self-loop series s is 1 - s.  Eliminating v routes
     every edge y -> v of weight w and v -> z of weight f into an edge
     y -> z of weight w c f, where c = 1/(1 - s), the returns to v, is
     (1 + s)(1 + s^2)(1 + s^4)...  Since -x (1 - s)'/(1 - s) = x s' c, v
     adds [x^n](x s' c).  Any order gives the same determinant.  Resets land
     near (0, 0), so the far nodes seldom close a cycle, and few fill edges
     appear.  Every series has non-negative coefficients and is kept to
     degree n as one integer, x^t in the slot of W bits at t*W, so a
     product is one multiply and one mask.  The moves are deterministic,
     so slot t of a walk series counts distinct strings of t symbols, at
     most q^t, and slot t of x s' or of x s' c at most t q^t: W =
     bits((n + 1) q^n) + 1 holds them.  Slots above n may overflow, but a
     carry moves only upward, into slots that are masked away.
 11. A walk without an event is forced throughout, so each side stays on its
     cycle (step 4): pa | n, pu | n, and the cycles read the same periodic
     word.  a[:pa] is a Lyndon word and u[:pu] the complement of one, both
     primitive, so that needs pa = pu and a[:pa] a rotation of u[:pu]; then
     each of the pa states of a's cycle has exactly one partner: pa walks.
"""

from functools import lru_cache
from itertools import compress
from operator import mul

from .words import prenecklace_at_least


def count_below_by_period(a, p, q, periods):
    """[W_d for d in periods]: step 5 for the prenecklace a of least period p.

    Builds f once, up to the largest period asked for; each W_d then costs
    d multiply-adds.
    """
    top = max(periods, default=0)
    g = [q - 1 - c for c in a[:top]]
    f = [1]
    if q == 2:  # every g_k is 0 or 1: f_L sums f_(L-1-k) over the resets k
        for _ in range(1, top):
            f.append(sum(compress(reversed(f), g)))
    else:
        for _ in range(1, top):
            f.append(sum(map(mul, g, reversed(f))))  # sum_{k<L} g_k f_(L-1-k), L = len(f)
    return [
        q**d
        - sum(map(mul, f, map(mul, range(d, 0, -1), reversed(g[:d]))))  # (d - L) g_(d-1-L) f_L
        - (p if d % p == 0 else 0)
        for d in periods
    ]


def count_below(digits, q, periods=None):
    """#{y in Sigma^n : some rotation of y is lexicographically below digits}.

    Given divisors of n as `periods`, [W_d for d in periods] instead: step 5, one table.
    """
    a, p = prenecklace_at_least(digits)
    if periods is None:
        return count_below_by_period(a, p, q, (len(a),))[0]
    return count_below_by_period(a, p, q, periods)


def _count_inside(digits, b, pu, q):
    """#{y : no rotation of y below `digits`, none of its complement below b}.

    b is the least prenecklace >= the complemented ceiling, pu its least
    period, so these are the words with every rotation inside
    [digits, ceiling]: steps 6-11 of the module docstring.
    """
    a, pa = prenecklace_at_least(digits)
    n = len(a)
    u = [q - 1 - d for d in b]
    wrap_a, wrap_u = n - pa, n - pu
    W = ((n + 1) * q**n).bit_length() + 1  # step 10: x^t is 1 << t*W
    keep, slot = (1 << (n + 1) * W) - 1, (1 << W) - 1
    # Node (i, 0) is i and node (0, k) is -k.  edges[y][z]: the series of the
    # walks y -> z through the nodes eliminated so far; into[z]: their sources.
    edges = {}
    for v in range(1 - n, n):
        i, k = (v, 0) if v >= 0 else (0, -v)
        for span in range(1, n + 1):  # span: the forced steps, plus the event
            lo, hi = a[i], u[k]
            if lo != hi:
                break
            i = i + 1 if i + 1 < n else wrap_a
            k = k + 1 if k + 1 < n else wrap_u
        else:
            continue
        if lo > hi:
            continue
        step = 1 << span * W
        out = {i + 1 if i + 1 < n else wrap_a: step}
        x = -(k + 1) if k + 1 < n else -wrap_u
        out[x] = out.get(x, 0) + step
        if hi - lo > 1:
            out[0] = out.get(0, 0) + (hi - lo - 1) * step
        edges[v] = out
    into = {v: set() for v in edges}
    for v, out in edges.items():
        for x in [x for x in out if x not in into]:  # no edge leaves x
            del out[x]
        for x in out:
            into[x].add(v)

    free = pa == pu and n % pa == 0 and any(u[s:pa] + u[:s] == a[:pa] for s in range(pa))
    total = pa if free else 0
    for v in sorted(edges, key=abs, reverse=True):  # farthest from (0, 0) first
        out, sources = edges.pop(v), into.pop(v)
        s = out.pop(v, 0)
        sources.discard(v)
        c = 1
        if s:
            c, power = 1 + s, s * s & keep  # c = (1 + s)(1 + s^2)(1 + s^4)...
            while power:
                c = c * (1 + power) & keep
                power = power * power & keep
            ds = 0  # x s': the sum over t >= 1 of s with its slots below t cleared
            for t in range(W, s.bit_length(), W):
                ds += s >> t << t
            total += ds * c >> n * W & slot
        for x in out:
            into[x].discard(v)
        for y in sources:
            row = edges[y]
            w = row.pop(v)
            if c != 1:
                w = w * c & keep
            for x, f in out.items():
                fill = w * f & keep
                if fill:
                    row[x] = row.get(x, 0) + fill
                    into[x].add(y)
    return total


@lru_cache(maxsize=256)
def _ceiling_side(ceiling, q):
    """(b, pb, q^n - count_below(b)): b the least prenecklace >= the complemented ceiling.

    The one table of a ceiling, kept across the probes of a row search.
    """
    b, pb = prenecklace_at_least(tuple(q - 1 - d for d in ceiling))
    return tuple(b), pb, q ** len(b) - count_below_by_period(b, pb, q, (len(b),))[0]


def count_within_ceiling(ceiling, q):
    """#{y : no rotation above `ceiling`}."""
    return _ceiling_side(tuple(ceiling), q)[2]


def count_below_with_ceiling(digits, ceiling, q):
    """#{y : some rotation below `digits` and no rotation above `ceiling`}."""
    b, pb, within = _ceiling_side(tuple(ceiling), q)
    return within - _count_inside(digits, b, pb, q)
