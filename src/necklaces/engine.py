"""Exact counting of words with a rotation below (or above) a threshold.

Counts #{y in Sigma^n : some rotation of y < x} by a forward dynamic program
over an implicit deterministic automaton, without enumerating the alphabet:
at every step the symbol space {0, ..., q-1} is split into the few intervals
on which the transition is constant, and each interval contributes its size
(an exact big integer) as a multiplicity.  This keeps the work polynomial in
n and log q.

The automaton decides "some rotation of y is strictly below x" as the union
of two events:

  * contiguous: y contains a substring x[0:m]c with c < x[m] (the rotation
    through that substring drops below x while still inside the copied part);
  * wraparound: for some a >= 1, y ends with x[0:a] and y[0:n-a] < x[a:n]
    (the rotation by a starts with x's own prefix and drops strictly later).

The contiguous side is a border-chain (KMP) state plus an absorbing fired
bit.  For the wraparound side, all still-open comparisons of y's prefix
against suffixes of x have read the same symbols, so the open set is
determined by one anchor suffix plus the layer; when the last comparison
closes, the full profile of resolved outcomes is a function of (anchor,
layer, rank of the closing symbol) and x's self-comparison table, and is
immediately collapsed to the only thing the future can ask: the set of
final border-chain lengths that would certify acceptance, stored as a
bitmask.

A resolved state never changes its mask again: it moves by the border chain
alone, and its accepted completions depend only on (symbols left, match
length, mask).  So count_below runs the forward pass over the states with
open comparisons only, records each resolution as an event, and charges
every event once from a backward table over (symbols left, match length)
that holds all masks side by side in one big integer, so that the work per
table entry is big-integer arithmetic, not one dict entry per state
(_charge_resolved).  count_below_with_ceiling pairs two automata and still
carries its resolved states forward, merging states with equal masks.
"""

from .words import NkString, complement


class _Tables:
    """Per-threshold precomputation: borders, border chains, suffix LCPs."""

    def __init__(self, digits, q):
        self.x = digits
        self.q = q
        n = len(digits)
        self.n = n

        border = [0] * (n + 1)
        k = 0
        for i in range(1, n):
            while k > 0 and digits[i] != digits[k]:
                k = border[k]
            if digits[i] == digits[k]:
                k += 1
            border[i + 1] = k
        self.border = border

        chains = []
        for ell in range(n + 1):
            c = [ell]
            while c[-1] > 0:
                c.append(border[c[-1]])
            chains.append(tuple(c))
        self.chains = chains

        # up_mask[m]: bitmask of match lengths whose border chain contains m,
        # i.e. the final states in which a word ending with x[0:m] is ending
        # with that border of the matched prefix as well.
        up_mask = [0] * (n + 1)
        for ell in range(n + 1):
            for m in chains[ell]:
                if m >= 1:
                    up_mask[m] |= 1 << ell
        self.up_mask = up_mask

        # eqmap[ell]: symbol value -> next match length (longest extension);
        # fire_above[ell]: a contiguous witness fires iff the symbol is below
        # this, the largest digit on the border chain.
        self.eqmap = []
        self.fire_above = []
        for ell in range(n):
            m_of = {}
            for m in chains[ell]:
                v = digits[m]
                if v not in m_of or m > m_of[v]:
                    m_of[v] = m
            self.eqmap.append({v: m + 1 for v, m in m_of.items()})
            self.fire_above.append(max(m_of))
        self.eqmap.append(None)
        self.fire_above.append(None)

        # lcp[a][b] = length of the longest common prefix of x[a:] and x[b:].
        lcp = [[0] * (n + 1) for _ in range(n + 1)]
        for a in range(n - 1, -1, -1):
            row = lcp[a]
            nxt = lcp[a + 1]
            for b in range(n - 1, -1, -1):
                if digits[a] == digits[b]:
                    row[b] = nxt[b + 1] + 1
        self.lcp = lcp

        self._lives_cache = {}
        self._diverged_below = {}

    def lives(self, j, anchor):
        """Open wraparound shifts after j symbols equal to x[anchor:anchor+j]."""
        key = (j, anchor)
        got = self._lives_cache.get(key)
        if got is None:
            lcp_a = self.lcp[anchor]
            got = tuple(a for a in range(1, self.n - j) if lcp_a[a] >= j)
            self._lives_cache[key] = got
        return got

    def death_mask(self, anchor, layer, closing):
        """Acceptance mask after the last open comparison closes.

        The result is the OR of up_mask over the shifts m whose rotation ends
        strictly below.  Two kinds of shift qualify.  A shift that diverged
        from the anchor suffix before this layer (lcp < layer) is below when
        its digit at the divergence exceeds the anchor's; that set depends on
        (anchor, layer) only and is read from a per-anchor prefix OR.  A shift
        still open at this layer reads `closing` next and is below when its
        next threshold digit exceeds it.
        """
        below = self._diverged_below.get(anchor)
        if below is None:
            below = self._diverged_below[anchor] = self._diverged_prefix(anchor)
        mask = below[layer]
        x, up_mask = self.x, self.up_mask
        for m in self.lives(layer, anchor):
            if x[m + layer] > closing:
                mask |= up_mask[m]
        return mask

    def _diverged_prefix(self, anchor):
        # at[L]: OR of up_mask[m] over the shifts m that diverge from
        # x[anchor:] at some d < L inside both suffixes, with x[m+d] above
        # x[anchor+d].  Open comparisons at anchor all end before n - anchor.
        x, n = self.x, self.n
        lcp_a = self.lcp[anchor]
        at = [0] * (n + 1)
        for m in range(1, n):
            d = lcp_a[m]
            if d < n - m and d < n - anchor and x[m + d] > x[anchor + d]:
                at[d + 1] |= self.up_mask[m]
        for d in range(1, n + 1):
            at[d] |= at[d - 1]
        return at


# Wraparound keys: ("L", anchor) while comparisons are open, afterwards the
# integer acceptance mask (0 when nothing can certify, or when n == 1).


def _step_breakpoints(tab, ell, wkey, j):
    vals = set(tab.eqmap[ell])
    if type(wkey) is tuple:
        vals.update(tab.x[a + j] for a in tab.lives(j, wkey[1]))
    return vals


def _step(tab, ell, wkey, j, c):
    """Advance one unfired state by symbol c; returns "FIRED" or (ell', wkey')."""
    if c < tab.fire_above[ell]:
        return "FIRED"
    ell2 = tab.eqmap[ell].get(c, 0)
    if type(wkey) is not tuple:
        return ell2, wkey
    anchor = wkey[1]
    lives = tab.lives(j, anchor)
    boundary = tab.n - j - 1
    survivors = [a for a in lives if tab.x[a + j] == c and a < boundary]
    if survivors:
        return ell2, ("L", survivors[0])
    return ell2, tab.death_mask(anchor, j, c)


def _pieces(q, breakpoints):
    """Split {0,...,q-1} into constant-transition pieces: (representative, size)."""
    out = []
    prev = -1
    for v in sorted(breakpoints):
        if v >= q:
            continue
        gap = v - prev - 1
        if gap > 0:
            out.append((prev + 1, gap))
        out.append((v, 1))
        prev = v
    gap = q - prev - 1
    if gap > 0:
        out.append((prev + 1, gap))
    return out


def _final_accepts(ell, wkey):
    return type(wkey) is int and (wkey >> ell) & 1


def count_below(digits, q):
    """#{y in Sigma^n : some rotation of y is lexicographically below digits}."""
    n = len(digits)
    if all(d == 0 for d in digits):
        return 0
    tab = _Tables(tuple(digits), q)
    pow_q = [1] * (n + 1)
    for i in range(1, n + 1):
        pow_q[i] = pow_q[i - 1] * q

    # Forward pass over the states with open comparisons only.  A state that
    # resolves is recorded as an event (symbols left, match length, mask) and
    # charged afterwards by _charge_resolved.
    events = {}
    fired_total = 0
    if n == 1:
        events[(1, 0, 0)] = 1  # no wraparound shift exists: resolved at once
        live = {}
    else:
        live = {(0, ("L", 1)): 1}
    for j in range(n):
        tail = pow_q[n - j - 1]
        nxt_live = {}
        for (ell, wkey), cnt in live.items():
            for c, size in _pieces(q, _step_breakpoints(tab, ell, wkey, j)):
                res = _step(tab, ell, wkey, j, c)
                if res == "FIRED":
                    fired_total += cnt * size * tail
                elif type(res[1]) is tuple:
                    nxt_live[res] = nxt_live.get(res, 0) + cnt * size
                else:
                    key = (n - j - 1, res[0], res[1])
                    events[key] = events.get(key, 0) + cnt * size
        live = nxt_live
    return fired_total + _charge_resolved(tab, events, pow_q)


def _charge_resolved(tab, events, pow_q):
    """Total accepted completions of the resolved states in `events`.

    A resolved state (ell, mask) moves by the border chain alone.  Of the
    symbols read at match length ell, those below fire_above[ell] fire a
    contiguous witness; fire_above[ell] itself extends the longest border
    with that digit; every larger symbol drops to match length 0.  With r
    symbols left, its accepted completions are F_r[ell], those that fire
    later, plus those that never fire and end on a match length whose bit is
    set in the mask.  With f = fire_above[ell], e = the extended match
    length and g = q - 1 - f the number of symbols that drop,

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
    moves = [(f, tab.eqmap[ell][f], q - 1 - f) for ell, f in enumerate(tab.fire_above[:n])]

    total = 0
    for r in range(1, max(by_row) + 1):
        tail, zero, fired_zero = pow_q[r - 1], row[0], fired[0]
        row = [row[e] + g * zero for _, e, g in moves[:n - r + 1]]
        fired = [f * tail + fired[e] + g * fired_zero for f, e, g in moves[:n - r + 1]]
        for ell, i, cnt in by_row.get(r, ()):
            total += cnt * (fired[ell] + ((row[ell] >> (width * i)) & top))
    return total


def count_below_with_ceiling(digits, ceiling, q):
    """#{y : some rotation below `digits` and no rotation above `ceiling`}.

    The "above" side reuses the "below" machinery on complemented words: a
    rotation of y exceeds the ceiling exactly when the matching rotation of
    the complemented word drops below the complemented ceiling.
    """
    n = len(digits)
    if all(d == 0 for d in digits):
        return 0
    lo = _Tables(tuple(digits), q)
    hi = _Tables(complement(NkString(n, q, tuple(ceiling))).digits, q)

    start = ("L", 1) if n >= 2 else 0
    # lo-side state becomes the string "FIRED" once a contiguous witness fires.
    frontier = {((0, start), (0, start)): 1}
    for j in range(n):
        nxt = {}
        for (slo, shi), cnt in frontier.items():
            vals = set()
            if slo != "FIRED":
                vals.update(_step_breakpoints(lo, slo[0], slo[1], j))
            # hi side reads complemented symbols: map its breakpoints back.
            vals.update(q - 1 - v for v in _step_breakpoints(hi, shi[0], shi[1], j))
            for c, size in _pieces(q, vals):
                if slo == "FIRED":
                    slo2 = "FIRED"
                else:
                    slo2 = _step(lo, slo[0], slo[1], j, c)
                shi2 = _step(hi, shi[0], shi[1], j, q - 1 - c)
                if shi2 == "FIRED":
                    continue  # some rotation already exceeds the ceiling
                key = (slo2, shi2)
                nxt[key] = nxt.get(key, 0) + cnt * size
        frontier = nxt

    total = 0
    for (slo, shi), cnt in frontier.items():
        if _final_accepts(*shi):
            continue
        if slo == "FIRED" or _final_accepts(*slo):
            total += cnt
    return total
