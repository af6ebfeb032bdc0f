"""Rank and unrank necklaces and Lyndon words in lexicographic order.

Orbits are ordered by their lexicographically least member.  Unranking binary
searches the integer interval [0, q^n - 1] for the largest word with fewer
than j orbits strictly below it, which lands exactly on the j-th minimal
representative; ranking counts the orbits below the canonical rotation.
Ranks are 1-based.
"""

from dataclasses import dataclass

from . import counting
from .errors import NotAperiodic
from .words import NkString, fundamental_period, min_rotation


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


@dataclass(frozen=True)
class RankResult:
    rank: int
    canonical: NkString


class ProbeCounter:
    """Counts threshold-count evaluations made by one search (test hook)."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


def _search(n, q, j, below, probe_counter=None):
    """Largest word x with below(x) < j, as an integer binary search.

    `below` must be nondecreasing in x and below(0...0) < j.
    """
    lo, hi = 0, q**n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe_counter is not None:
            probe_counter.bump()
        if below(NkString.from_int(n, q, mid)) < j:
            lo = mid
        else:
            hi = mid - 1
    return NkString.from_int(n, q, lo)


def index_necklace(n, q, j, path="auto", probe_counter=None):
    """The j-th orbit's minimal representative, or TOO_LARGE past the count."""
    if j < 1:
        raise ValueError("ranks are 1-based")
    if j > counting.count_necklaces(n, q, path):
        return TOO_LARGE
    return _search(n, q, j, lambda x: counting.count_necklaces_below(x, path), probe_counter)


def reverse_index_necklace(x, path="auto"):
    """Rank of x's orbit together with its minimal representative."""
    canonical, _ = min_rotation(x)
    rank = counting.count_necklaces_below(canonical, path) + 1
    return RankResult(rank, canonical)


def index_lyndon(n, q, j, path="auto", probe_counter=None):
    """The j-th Lyndon word (aperiodic minimal representative), or TOO_LARGE."""
    if j < 1:
        raise ValueError("ranks are 1-based")
    if j > counting.count_lyndon(n, q, path):
        return TOO_LARGE
    return _search(n, q, j, lambda x: counting.count_lyndon_below(x, path), probe_counter)


def reverse_index_lyndon(x, path="auto"):
    """Rank of x's orbit among aperiodic orbits; requires full period."""
    if fundamental_period(x) != x.n:
        raise NotAperiodic(f"word has period {fundamental_period(x)} < {x.n}")
    canonical, _ = min_rotation(x)
    rank = counting.count_lyndon_below(canonical, path) + 1
    return RankResult(rank, canonical)
