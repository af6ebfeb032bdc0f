"""Rank and unrank necklaces and Lyndon words in lexicographic order.

Orbits are ordered by their lexicographically least member.  Unranking
searches the words, read as integers in [0, q^n), for the largest one with
fewer than j orbits strictly below it, which is exactly the j-th minimal
representative.  One safeguarded interpolation loop, never more than two
probes beyond bisection, runs at two scales: over the first digit on the
closed-form orbit count, then over the words on the counted orbits; an
unrank runs it once more between them, over the first run on its closed
form.  The head, the count below (d, 0, ..., 0), is built from the
closed-form total: the orbits not below it are those over the q - d
letters {d, ..., q-1}.  Once at most 4n words remain in the bracket it
steps through the prenecklaces among them with the FKM successor (Ruskey,
Savage and Wang, J. Algorithms 1992): a step costs a few microseconds,
against tens for a probe, and the search would need about log2 4n more
probes.
Ranking counts the orbits below the canonical rotation.  Ranks are 1-based.

A necklace has no digit below its first one, d: a later, smaller digit
would start a smaller rotation.  So once the first digit is fixed, the
necklaces of its bucket are among the words (d, d + y), y one of the
(q - d)^(n-1) words of n - 1 digits in radix q - d, and the word phase
searches y in radix q - d with every digit offset by d (`_word`).  The
words it skips have a digit below d and leave the count flat, and the
bucket's counts carry over: no necklace lies in [(d, 0, ..., 0), d^n), so
y = 0, the word d^n, has the count of (d, 0, ..., 0), and the bracket's top
(q - d)^(n-1) stands for (d + 1, 0, ..., 0).  In base q the count is flat
wherever a later digit is below d, which interpolation does not know: a
probe that gains a whole digit is followed by one that gains about d/q of
one.  The floor holds for any count that sums a weight over necklaces, and
every search promises one: the necklace counts of an unrank, and
`bch.generator_row`'s rows, which weigh a necklace by its period, or 0 if
its orbit leaves the ceiling.  So every search takes the floor and
closes with a walk over that weight.  The floor also bounds the walk:
every prenecklace between two words of the bucket has no digit below d
either, so it is the image of a word between them, and a bracket of 4n
words holds at most 4n prenecklaces, whatever the weights.  At q = 2 the
map is the identity: d = 0, or d = 1 and one word.

The same holds for runs (the run floor): a necklace whose least rotation
starts d^r e, e > d, has no run of d longer than r, cyclically, since a
longer one would start a smaller rotation, d^(r+1) < d^r e.  So an
unrank's bucket splits by r, the first run of d.  The necklaces not below
d^r (d + 1) d^(n-r-1) are the orbits over {d, ..., q-1} whose cyclic runs
of d are all at most r, which `counting._run_table` counts in closed form
(r = n would give the head at d, and r = 0 the head at d + 1).  The run
head finds the least r whose count is below j with the same loop, over
x = n - r in [0, n], on which the count rises.  The word phase then
searches only the words d^r e w', e > d and w' with no run of d longer
than r (`_run_map`); the words it skips hold a longer run or a digit
below d and leave the count flat.  The counts carry over as for the digit
floor: no necklace lies between d^r (d + 1) d^(n-r-1) and the first such
word, nor between the last one and d^(r-1) (d + 1) d^(n-r).  The walk's
bound holds too: a prenecklace that starts d^r e has no run of d longer
than r, for its Lyndon prefix has none, cyclically.  At q = 2 most words
of a bucket hold a zero run longer than the necklace's first, and
interpolation stalled on them: over 1,500 seeded (32, 2) necklace ranks
the word probes went 12.66 -> 9.47 on average with the run floor, and to
7.92 with `_narrow`'s weaker pull.  A word over the bucket's m = q - d
letters holds about n / m^2 pairs dd, so past m^2 > 4n the floor removes
few words and a first run longer than 1 is rare; the run phase is skipped
there, since its fill and its slower map cost more than it saves (at
(10, 2^26) it saved no probe and took about 25% longer).

Over a whole range [0, X] the counts are strongly concave.  A word's least
rotation lies below t * q^n unless all n of its rotations lie above, and
were the rotations independent uniform words that would happen with
chance (1 - t)^n; an orbit of n words is counted once, so the share of the
orbits below t * q^n is close to 1 - (1 - t)^n.  For the first digit it is
exact up to periodic orbits: the words with no letter below d number
(q - d)^n.  Plain false position aims its first probes far past the answer
on such a count and spends the two probes of slack, after which the
projection window admits only midpoints, to the end of the budget.  So the
digit phase, whose bracket starts as the whole range [0, q] of the first
digit, takes its false-position point in s = 1 - (1 - x/q)^n and maps it
back to x; the model runs there only.  The words inside one first-digit
bucket do not follow that shape, so the word phase stays linear, and so
does the run head, whose count is a closed form over its bucket.
"""

import functools
import math

from . import counting
from .errors import InvariantViolated, NotAperiodic
from .words import (
    NkString,
    _Frozen,
    _least_rotation,
    min_rotation,
    next_prenecklace,
    prenecklace_at_least,
    rotate,
)


class _TooLargeType:
    """Distinguished successful answer for an index past the end of the set."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOO_LARGE"

    def __bool__(self):
        return False


TOO_LARGE = _TooLargeType()


class RankResult(_Frozen):
    __slots__ = ("rank", "canonical")

    def __init__(self, rank, canonical):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "canonical", canonical)


def _word(n, q, floor, x):
    """The word whose digits less `floor` are x's n digits in radix q - floor.

    With floor 0 that is x's base-q expansion.  The map keeps the order of
    the words, and its image is the words with no digit below `floor`.
    Raises ValueError unless 0 <= x < (q - floor)^n.
    """
    radix, digits = q - floor, [floor] * n
    for i in range(n - 1, -1, -1):
        x, d = divmod(x, radix)
        digits[i] += d
    if x:
        raise ValueError("value out of range for the given length")
    return NkString(n, q, tuple(digits))


def _run_map(n, q, d, r):
    """(size, word): word maps [0, size) in order onto the words d^r e w'.

    e runs over d + 1, ..., q - 1 and w' over the words of n - r - 1 digits
    in {d, ..., q - 1} with no run of d longer than r: x is e's offset
    times N plus w''s rank among the N such words.  w' is read digit by
    digit off `counting._run_table(n, q - d, r)`'s prefix sums, with z the
    run of d just written: with t digits left, G(t - 1, r - z - 1) words
    go on with d and B_(t-1) with each letter above it, where
    G(t, a) = [t <= a] + (q - d - 1) * (P_(t-1) - P_(t-2-a)) counts the
    words of length t whose first run of d is at most a.  Raises
    ValueError unless 0 <= x < size.
    """
    sums, k, rest = counting._run_table(n, q - d, r)[0], q - d - 1, n - r - 1
    block, lead = sums[n + 1] - sums[n], [d] * r  # B_rest = P_rest - P_(rest-1)

    def word(x):
        e, x = divmod(x, block)
        if not 0 <= e < k:
            raise ValueError("value out of range for the run-bounded words")
        digits, z = lead + [d + 1 + e], 0
        for t in range(rest, 0, -1):
            zeros = (t <= r - z) + k * (sums[t + r] - sums[t + z])
            if x < zeros:
                digits.append(d)
                z += 1
            else:
                c, x = divmod(x - zeros, sums[t + r + 1] - sums[t + r])
                digits.append(d + 1 + c)
                z = 0
        return NkString(n, q, tuple(digits))

    return k * block, word


def _walk(n, q, lo, hi, target, weight, word):
    """(x, passed): x the necklace in [lo, hi) where the weights summed from lo reach target.

    lo and hi stand for words through the search's map `word`.  Steps
    through the prenecklaces from the least one >= word(lo) with the FKM
    successor and sums weight(digits, period) over the necklaces among them
    (period | n); `passed` is that sum over the necklaces in [word(lo), x).
    Every prenecklace it visits is the image of a word in [lo, hi) (module
    docstring), so it takes at most hi - lo successor steps, whatever the
    weights.  Raises InvariantViolated if the sum has not reached target
    by word(hi - 1), or the walk runs past the last prenecklace.
    """
    a, p = prenecklace_at_least(word(lo).digits)
    last = list(word(hi - 1).digits)
    passed = 0
    while a <= last:
        if n % p == 0:
            w = weight(a, p)
            if passed + w >= target:
                return NkString(n, q, tuple(a)), passed
            passed += w
        p = next_prenecklace(a, q)
        if not p:
            raise InvariantViolated("necklace walk ran past the last prenecklace")
    raise InvariantViolated("necklace walk left the bracket; the counts disagree")


def _narrow(q, j, count, lo, hi, count_lo, count_hi, budget, stop=1, power=0):
    """(lo, hi, count_lo, count_hi) narrowed until hi - lo <= stop, a width in words.

    `stop` is 1 for the first digit and the run head, which end on one
    value, and 4n for the word phase, which walks the rest (`_search`).

    `count` is nondecreasing, count(lo) < j <= count(hi) throughout, and
    hi - lo <= 2^(budget-2) on entry.  Each probe is the Illinois-weighted
    false-position point aimed at j - 1/2 (ITP: Oliveira & Takahashi, ACM
    TOMS 2020), moved at most delta = width^2 / (4q * starting width)
    toward the midpoint and clamped into the projection window, which keeps
    the bracket after probe k at most 2^(budget-k-1) wide: at most `budget`
    probes.  With a pull of width^2 / (q * starting width) every first word
    probe at q = 2 was the midpoint, whatever the counts said: over 1,500
    seeded (32, 2) necklace unranks the run floor's search took 9.47 word
    probes with it and 7.92 with the pull of 4q.  Without the run floor the
    weaker pull lost (12.66 -> 13.29): the stronger one guarded the flat
    stretches that the floor now skips.  No pull at all did about as well
    as 4q on average but lost the tail at q = 3 ((12, 3): p99 14 probes
    against 11).

    `power` = n > 0 has one caller, `_search`'s digit phase, whose bracket
    starts as [0, X], X = q, the whole range of its variable.  While the
    bracket is wider than X / 2^40 the false-position point is taken in
    s = 1 - (1 - x/X)^n rather than in x (`_model_point`, which turns only
    ratios into floats).  A narrower bracket has closed in on the answer,
    where the count is locally linear, and interpolates in x.
    The Illinois weights, the delta pull and the window are the same either
    way, and so is the budget.
    """
    spread = 4 * q * (hi - lo)
    end = hi
    run = 0  # > 0: lo moved run times in a row; < 0: hi moved -run times
    while hi - lo > stop:
        width = hi - lo
        budget -= 1
        reach = 1 << budget
        low, high = max(lo + 1, hi - reach), min(hi - 1, lo + reach)
        mid = lo + width // 2
        # Twice the distances of the ends' counts from the target j - 1/2.
        short, over = 2 * (j - count_lo) - 1, 2 * (count_hi - j) + 1
        if run > 1:  # Illinois: halve the weight of an end kept twice or more
            short <<= run - 1
        elif run < -1:
            over <<= -run - 1
        if power and width << 40 > end:
            x = lo + _model_point(power, width / (end - lo), short / (short + over), width)
        else:
            x = lo + width * short // (short + over)
        delta = width * width // spread
        x += max(-delta, min(mid - x, delta))
        x = max(low, min(x, high))
        value = count(x)
        if value < j:
            lo, count_lo, run = x, value, max(run, 0) + 1
        else:
            hi, count_hi, run = x, value, min(run, 0) - 1
    return lo, hi, count_lo, count_hi


def _model_point(n, b, r, width):
    """Offset into the bracket [lo, lo + width] of its false-position point in s.

    s = 1 - (1 - x/X)^n; b = width / (X - lo) is the share of [lo, X] that
    the bracket covers and r the weighted share of the count's rise that
    lies below the target.  With y = (x - lo) / (X - lo),
    s(x) - s(lo) = (1 - s(lo)) * (1 - (1 - y)^n), so the point solves
    1 - (1 - y)^n = r * (1 - (1 - b)^n) and the offset is width * y / b.
    b and r come from int true division, which rounds the quotient of any
    two ints, and y / b scales width in 53-bit fixed point: no int becomes a
    float, so q^n past 2^1024 cannot overflow.  expm1 and log1p keep y
    accurate when b or r is small.
    """
    m = r * -math.expm1(n * math.log1p(-b)) if b < 1 else r
    y = -math.expm1(math.log1p(-m) / n) if m < 1 else 1.0
    return width * int(y / b * (1 << 53)) >> 53


def _search(n, q, j, below, total, head, weight, runs=None):
    """(x, below(x)), x the largest word with below(x) < j: one safeguarded interpolation loop.

    The contract: `below` is nondecreasing in the word, below(0^n) = 0,
    `total` is below at the virtual word q^n past the last one, and
    1 <= j <= total.  `head` is the closed form d -> below((d, 0, ..., 0))
    for 0 <= d <= q, with head(q) = total, and it promises that below(x)
    sums a nonnegative weight over the necklaces strictly below x.
    `weight` is that weight, weight(digits, period) for a necklace given
    as its digit list and the period of its least rotation: 1, or for
    Lyndon words 1 if the period is n, in an unrank; in
    `bch.generator_row` the period, or 0 if the necklace's greatest
    rotation is above the ceiling.  `runs`, if given, is the closed form
    (d, r) -> below(d^r (d + 1) d^(n-r-1)) for 0 <= d < q - 1 and
    1 <= r < n.  An unrank passes it; a count under a ceiling has no
    closed form by runs.

    `_narrow` runs over the digits [0, q] with budget ceil(log2 q) + 2 (so
    at most that many head evaluations), then over the words with budget
    n * ceil(log2 q) + 2.  The word phase after the first digit d runs over
    the words with no digit below d, in radix q - d (module docstring):
    only necklaces count, and a necklace has no digit below its first.
    At d = q - 1 that is d^n alone, and no word is probed.  With `runs`,
    d < q - 1 and (q - d)^2 <= 4n, the run head narrows x = n - r over
    [0, n], from the head at d (x = 0) to the head at d + 1 (x = n), with
    budget n.bit_length() + 2, to the least r with runs(d, r) < j; x = 0
    answers d^n.  At (256, 2) and j = 1, where r = n, it takes 2 closed
    forms and 0.4 ms with cold memos, against 15 and 1.8 ms for the
    doubling-then-bisection it replaced.  The word phase then runs over the
    words d^r e w' of `_run_map`, the run floor (module docstring).
    The digit phase interpolates in the model s = 1 - (1 - x/q)^n (module
    docstring), the word phase in x: inside one first-digit bucket the
    model did not pay (over 202 seeded necklace ranks at (10, 2^26), 10.96
    word probes per search plain in radix q - d, 22.57 with the model over
    the bucket, and 21.55 plain in radix q).

    The word phase stops once at most 4n words are left and, if more than
    one is, walks from lo to the necklace at which the weights reach
    j - below_lo.  Every prenecklace between word(lo) and word(hi - 1) lies
    in the floor's image (module docstring), so the walk takes at most 4n
    successor steps, whatever the weights.  A stop on the count,
    below_hi - below_lo <= n, bounds nothing where necklaces weigh 0, as
    under a ceiling: with it, a (2, 20) row search with d and r uniform
    walked 98 steps.  At (4, 6) a step with a row's weight costs about
    3 us, a two-sided count 25-58 us (medians over three ceilings, cold
    memos).  Two-sided counts per row search (400 rows drawn as the field
    benchmark draws them, 150 at (2, 20)), stopping at 2n, 3n and 4n words
    against the count stop: (4, 6) 4.42, 4.05 and 3.84 against 6.18,
    (2, 20) 3.51, 3.50 and 3.48 against 4.91, (2^16, 3) 3.98-3.99 against
    4.04.  Tables per unrank (1,000 seeded ranks, warm memos): (32, 2)
    necklaces 7.63, 7.48 and 7.34 against 7.59, (12, 3) 5.34, 5.07 and
    4.90 against 5.36, (10, 2^26) 11.10, 11.09 and 11.08 against 11.11.
    The longest walks were 23 steps at (4, 6) and 122 at (32, 2).

    The count comes with the word at no cost: it is below_lo when the
    probes close the bracket on lo, and below_lo plus the weight that the
    walk passed before its answer otherwise.
    """
    bits = (q - 1).bit_length()
    floor, _, below_lo, below_hi = _narrow(q, j, head, 0, q, 0, total, bits + 2, power=n)
    hi, word = (q - floor) ** (n - 1), functools.partial(_word, n, q, floor)
    if runs is not None and floor < q - 1 and (q - floor) ** 2 <= 4 * n:
        x, _, below_lo, below_hi = _narrow(q - floor, j, lambda x: runs(floor, n - x), 0, n,
                                           below_lo, below_hi, n.bit_length() + 2)
        if x == 0:
            return NkString(n, q, (floor,) * n), below_lo
        hi, word = _run_map(n, q, floor, n - x)
    lo, hi, below_lo, _ = _narrow(q, j, lambda x: below(word(x)), 0, hi, below_lo, below_hi,
                                  n * bits + 2, 4 * n)
    if hi - lo > 1:
        found, passed = _walk(n, q, lo, hi, j - below_lo, weight, word)
        return found, below_lo + passed
    return word(lo), below_lo


def _unrank(n, q, j, lyndon):
    """The j-th necklace, or Lyndon word if `lyndon`, or TOO_LARGE past the count."""
    if j < 1:
        raise ValueError("ranks are 1-based")
    total = (counting.count_lyndon if lyndon else counting.count_necklaces)(n, q)
    if j > total:
        return TOO_LARGE
    below = counting.count_lyndon_below if lyndon else counting.count_necklaces_below
    kind = 2 if lyndon else 1
    return _search(n, q, j, below, total,
                   lambda d: total - counting.orbits_in_closed_form(n, q - d, lyndon),
                   lambda a, p: not lyndon or p == n,
                   lambda d, r: total - counting._run_table(n, q - d, r)[kind])[0]


def index_necklace(n, q, j):
    """The j-th orbit's minimal representative, or TOO_LARGE past the count."""
    return _unrank(n, q, j, False)


def reverse_index_necklace(x):
    """Rank of x's orbit together with its minimal representative."""
    canonical, _ = min_rotation(x)
    rank = counting.count_necklaces_below(canonical) + 1
    return RankResult(rank, canonical)


def index_lyndon(n, q, j):
    """The j-th Lyndon word (aperiodic minimal representative), or TOO_LARGE."""
    return _unrank(n, q, j, True)


def reverse_index_lyndon(x):
    """Rank of x's orbit among aperiodic orbits; requires full period.

    One scan gives the period and the least rotation (`words._least_rotation`).
    """
    start, period = _least_rotation(x.digits)
    if period != x.n:
        raise NotAperiodic(f"word has period {period} < {x.n}")
    canonical = rotate(x, x.n - start)
    rank = counting.count_lyndon_below(canonical) + 1
    return RankResult(rank, canonical)
