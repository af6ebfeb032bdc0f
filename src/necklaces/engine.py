"""Exact counting of words with a rotation below (or above) a threshold.

Counts #{y in Sigma^n : some rotation of y < x} without enumerating the
alphabet: at every step the symbol space {0, ..., q-1} is split into the few
intervals on which the transition is constant, and each interval contributes
its size (an exact big integer) as a multiplicity.  This keeps the work
polynomial in n and log q.

The automaton decides "some rotation of y is strictly below x" as the union
of two events:

  * contiguous: y contains a substring x[0:m]c with c < x[m] (the rotation
    through that substring drops below x while still inside the copied part);
  * wraparound: for some a >= 1, y ends with x[0:a] and y[0:n-a] < x[a:n]
    (the rotation by a starts with x's own prefix and drops strictly later).

The contiguous side is a KMP match length plus an absorbing FIRED outcome.
The wraparound side compares y's prefix against every suffix x[a:] at once.
While a comparison is open, y[0:j] = x[a:a+j] for every open shift a, so a
state with open comparisons is a node of the substring trie of x: it is
reached by exactly one prefix, its match length is fixed, and it carries its
open shifts and the mask of final match lengths already certified by shifts
that closed below (a shift m certifies the match lengths whose border chain
contains m, `up_mask[m]`).  Grouping the open shifts by their next digit
gives the node's children; any other symbol closes every comparison, and a
running OR of the groups above it gives its mask.  A state with no open
shift is resolved: it moves by the border chain alone and never changes its
mask.  `_transitions` returns the ordered partition of the symbols for
either kind of state.

count_below walks the O(n^2) live nodes layer by layer, records each
resolution as an event (symbols left, match length, mask), and charges every
event once from a backward table over (symbols left, match length) that
holds all masks side by side in one big integer (_charge_resolved).
count_below_with_ceiling runs a second automaton on the complemented
ceiling, merges the two sides' partitions (the ceiling side's reversed) and
carries its resolved pairs forward, merging equal pairs.
"""

from .words import NkString, borders, complement

FIRED = None  # outcome of the symbols on which a contiguous witness fires


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
    """Ordered partition of {0, ..., q-1} for `state` reading symbol j.

    A state is (match length, mask, open shifts), live while some shift is
    open.  Returns (first symbol, size, outcome) in ascending symbol order;
    the outcome is FIRED or the next state.  A symbol equal to open shifts'
    next digit keeps those with a digit left open; every other symbol closes
    them all.  The shifts whose next digit exceeds the symbol end below, so
    their up_mask joins the mask.
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
    if f:
        out.append((0, f, FIRED))
    out.reverse()
    return out


def _accepts(state):
    ell, mask, _ = state
    return (mask >> ell) & 1


def count_below(digits, q):
    """#{y in Sigma^n : some rotation of y is lexicographically below digits}."""
    n = len(digits)
    if all(d == 0 for d in digits):
        return 0
    tab = _Tables(tuple(digits), q)
    pow_q = [1] * (n + 1)
    for i in range(1, n + 1):
        pow_q[i] = pow_q[i - 1] * q

    # Walk the live nodes; each is reached by one prefix, so every piece
    # counts its size.  A piece that resolves is recorded as an event
    # (symbols left, match length, mask) and charged by _charge_resolved.
    # At n = 1 no shift exists: the start state steps once as it is, and its
    # resolved pieces, with no symbol left and mask 0, accept nothing.
    events = {}
    fired_total = 0
    live = [(0, 0, tuple(range(1, n)))]
    for j in range(n):
        tail = pow_q[n - j - 1]
        nxt = []
        for state in live:
            for _, size, out in _transitions(tab, state, j):
                if out is FIRED:
                    fired_total += size * tail
                elif out[2]:
                    nxt.append(out)
                else:
                    key = (n - j - 1, out[0], out[1])
                    events[key] = events.get(key, 0) + size
        live = nxt
    return fired_total + _charge_resolved(tab, events, pow_q)


def _charge_resolved(tab, events, pow_q):
    """Total accepted completions of the resolved states in `events`.

    A resolved state (ell, mask) moves by the border chain alone.  Of the
    symbols read at match length ell, those below fire_above[ell] fire a
    contiguous witness; fire_above[ell] itself extends the longest border
    with that digit; every larger symbol drops to match length 0.  With r
    symbols left, its accepted completions are F_r[ell], those that fire
    later, plus those that never fire and end on a match length whose bit is
    set in the mask.  With f = fire_above[ell], e = extend[ell] and
    g = q - 1 - f the number of symbols that drop,

        F_0[ell] = 0,  F_r[ell] = f * q^(r-1) + F_(r-1)[e] + g * F_(r-1)[0].

    F_r does not depend on the mask.  The second part is computed for every
    mask at once: each mask gets a slot of W bits in one big integer, and
    V_r[ell] holds all slots,

        V_0[ell]  has the low bit of slot i set iff bit ell of mask i is set;
        V_r[ell]  = V_(r-1)[e] + g * V_(r-1)[0].

    A slot never exceeds q^r < 2^W, so slots never carry into each other.
    Two rows are kept at a time.
    """
    if not events:
        return 0
    n, q = tab.n, tab.q
    masks = sorted({mask for _, _, mask in events})
    slot = {mask: i for i, mask in enumerate(masks)}
    wbytes = (pow_q[n].bit_length() + 8) // 8
    width, top = 8 * wbytes, (1 << 8 * wbytes) - 1
    by_row = {}
    for (r, ell, mask), cnt in events.items():
        by_row.setdefault(r, []).append((ell, slot[mask], cnt))

    row = []
    for ell in range(n + 1):
        packed = bytearray(wbytes * len(masks))
        for i, mask in enumerate(masks):
            if (mask >> ell) & 1:
                packed[i * wbytes] = 1
        row.append(int.from_bytes(packed, "little"))
    fired = [0] * (n + 1)
    moves = [(f, e, q - 1 - f) for f, e in zip(tab.fire_above, tab.extend)]

    total = 0
    for r in range(1, max(by_row) + 1):
        tail, zero, fired_zero = pow_q[r - 1], row[0], fired[0]
        row = [row[e] + g * zero for _, e, g in moves[:n - r + 1]]
        fired = [f * tail + fired[e] + g * fired_zero for f, e, g in moves[:n - r + 1]]
        for ell, i, cnt in by_row.get(r, ()):
            total += cnt * (fired[ell] + ((row[ell] >> (width * i)) & top))
    return total


def _pair_moves(lo, hi, pair, j):
    """(size, next pair) for a pair of states, pieces whose hi side fires dropped.

    The hi side reads complemented symbols, so its partition is reversed
    before the two are merged; a fired lo side stays fired.
    """
    slo, shi = pair
    q = lo.q
    plo = [(0, q, FIRED)] if slo is FIRED else _transitions(lo, slo, j)
    phi = [(q - c - size, size, out) for c, size, out in reversed(_transitions(hi, shi, j))]
    moves = []
    i = k = c = 0
    while c < q:
        c0, s0, out_lo = plo[i]
        c1, s1, out_hi = phi[k]
        end = min(c0 + s0, c1 + s1)
        if out_hi is not FIRED:  # else some rotation already exceeds the ceiling
            moves.append((end - c, (out_lo, out_hi)))
        i += end == c0 + s0
        k += end == c1 + s1
        c = end
    return moves


def count_below_with_ceiling(digits, ceiling, q):
    """#{y : some rotation below `digits` and no rotation above `ceiling`}.

    The "above" side reuses the "below" automaton on complemented words: a
    rotation of y exceeds the ceiling exactly when the matching rotation of
    the complemented word drops below the complemented ceiling.
    """
    n = len(digits)
    if all(d == 0 for d in digits):
        return 0
    lo = _Tables(tuple(digits), q)
    hi = _Tables(complement(NkString(n, q, tuple(ceiling))).digits, q)

    start = (0, 0, tuple(range(1, n)))
    frontier = {(start, start): 1}
    memo = {}  # pair with no open shift -> its moves, the same at every layer
    for j in range(n):
        nxt = {}
        for pair, cnt in frontier.items():
            moves = memo.get(pair)
            if moves is None:
                moves = _pair_moves(lo, hi, pair, j)
                slo, shi = pair
                if not shi[2] and (slo is FIRED or not slo[2]):
                    memo[pair] = moves
            for size, key in moves:
                nxt[key] = nxt.get(key, 0) + cnt * size
        frontier = nxt

    total = 0
    for (slo, shi), cnt in frontier.items():
        if not _accepts(shi) and (slo is FIRED or _accepts(slo)):
            total += cnt
    return total
