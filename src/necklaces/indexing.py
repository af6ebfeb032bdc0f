"""Rank and unrank necklaces and Lyndon words in lexicographic order.

Orbits are ordered by their lexicographically least member.  Unranking
searches the words, read as integers in [0, q^n), for the largest one with
fewer than j orbits strictly below it, which is exactly the j-th minimal
representative.  The first digit comes from a closed form; the rest is an
interpolation search on the orbit count, which is smooth at the scale of
the whole interval, safeguarded so that it never takes more than two probes
beyond bisection.  Ranking counts the orbits below the canonical rotation.
Ranks are 1-based.
"""

from . import counting
from .errors import InvariantViolated, NotAperiodic
from .words import NkString, _Frozen, fundamental_period, min_rotation


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


class ProbeCounter:
    """Counts threshold-count evaluations made by one search (test hook)."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


def _search(n, q, j, below, total, head=None, probe_counter=None):
    """Largest word x with below(x) < j, by a safeguarded interpolation search.

    The contract: `below` is nondecreasing in the word, below(0^n) = 0,
    `total` is below at the virtual word q^n past the last one, and
    1 <= j <= total.  `head`, if given, is the closed form
    d -> below((d, 0, ..., 0)) for 0 <= d <= q; it pins the first digit
    without a probe, and head(q) must equal total.

    The answer lies in [lo, hi) with below(lo) < j <= below(hi).  Each probe
    is an Illinois-weighted false-position point aimed at j - 1/2 (ITP:
    Oliveira & Takahashi, ACM TOMS 2020), truncated toward the midpoint and
    projected so that the bracket after probe k is at most 2^(budget-k-1)
    wide, with budget = n * ceil(log2 q) + 2.  So no input takes more than
    `budget` probes: bisection's worst case plus two.
    """
    budget = n * (q - 1).bit_length() + 2
    lo, hi, below_lo, below_hi = 0, q**n, 0, total
    if head is not None:
        if head(q) != total:
            raise InvariantViolated("closed-form orbit count disagrees with the counted total")
        first, past = 0, q
        while past - first > 1:
            d = (first + past) // 2
            if head(d) < j:
                first = d
            else:
                past = d
        step = q ** (n - 1)
        lo, hi, below_lo, below_hi = first * step, past * step, head(first), head(past)
    # ITP truncation width^2 / spread: on the first probe one unit of the
    # bracket's leading free digit, shrinking quadratically with the bracket.
    spread = q * (hi - lo)
    probes = last = run = 0
    while hi - lo > 1:
        width = hi - lo
        reach = 1 << (budget - probes - 1)
        mid = lo + width // 2
        # Twice the distances of the ends' counts from the target j - 1/2.
        short, over = 2 * (j - below_lo) - 1, 2 * (below_hi - j) + 1
        if run > 1:  # Illinois: halve the weight of an end kept twice or more
            if last > 0:
                short <<= run - 1
            else:
                over <<= run - 1
        x = lo + width * short // (short + over)
        delta = width * width // spread
        if delta >= abs(mid - x):
            x = mid
        else:
            x += delta if x < mid else -delta
        x = max(lo + 1, hi - reach, min(x, hi - 1, lo + reach))
        if probe_counter is not None:
            probe_counter.bump()
        probes += 1
        value = below(NkString.from_int(n, q, x))
        side = 1 if value < j else -1
        if side > 0:
            lo, below_lo = x, value
        else:
            hi, below_hi = x, value
        run = run + 1 if side == last else 1
        last = side
    return NkString.from_int(n, q, lo)


def index_necklace(n, q, j, path="auto", probe_counter=None):
    """The j-th orbit's minimal representative, or TOO_LARGE past the count."""
    if j < 1:
        raise ValueError("ranks are 1-based")
    total = counting.count_necklaces(n, q, path)
    if j > total:
        return TOO_LARGE
    return _search(n, q, j, lambda x: counting.count_necklaces_below(x, path), total,
                   lambda d: counting.orbits_below_digit(n, q, d), probe_counter)


def reverse_index_necklace(x, path="auto"):
    """Rank of x's orbit together with its minimal representative."""
    canonical, _ = min_rotation(x)
    rank = counting.count_necklaces_below(canonical, path) + 1
    return RankResult(rank, canonical)


def index_lyndon(n, q, j, path="auto", probe_counter=None):
    """The j-th Lyndon word (aperiodic minimal representative), or TOO_LARGE."""
    if j < 1:
        raise ValueError("ranks are 1-based")
    total = counting.count_lyndon(n, q, path)
    if j > total:
        return TOO_LARGE
    return _search(n, q, j, lambda x: counting.count_lyndon_below(x, path), total,
                   lambda d: counting.orbits_below_digit(n, q, d, lyndon=True), probe_counter)


def reverse_index_lyndon(x, path="auto"):
    """Rank of x's orbit among aperiodic orbits; requires full period."""
    if fundamental_period(x) != x.n:
        raise NotAperiodic(f"word has period {fundamental_period(x)} < {x.n}")
    canonical, _ = min_rotation(x)
    rank = counting.count_lyndon_below(canonical, path) + 1
    return RankResult(rank, canonical)
