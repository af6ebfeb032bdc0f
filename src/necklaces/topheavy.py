"""Top-heavy canonical rotations for binary words of prime length.

A binary word is top-heavy when every prefix has normalized Hamming weight
at least the word's own; for prime length every non-constant word has
exactly one top-heavy rotation (the cycle lemma), so top-heavy words are
canonical orbit representatives and their count must equal the number of
binary necklaces.  This module is an independent check on the main
pipeline; all comparisons use integer cross-multiplication, never floats.
"""

from .counting import divisors
from .errors import ConstantString, NotBinary, NotPrime, TooBig
from .words import rotate

# count_top_heavy's limit; the first prime above it, 521, would take about 1.3 s
_MAX_N = 512


def _require_binary(x):
    if x.q != 2:
        raise NotBinary("top-heaviness is defined for binary words")


def is_top_heavy(x):
    """Every prefix weight-dense: n * S_j >= (j+1) * wt(x) for all prefixes."""
    _require_binary(x)
    n = x.n
    weight = sum(x.digits)
    prefix = 0
    for j, bit in enumerate(x.digits):
        prefix += bit
        if n * prefix < (j + 1) * weight:
            return False
    return True


def top_heavy_rotation(x):
    """The unique rightward shift i with rotate(x, i) top-heavy (n prime).

    The shift comes from the minimizer of the centered prefix-sum walk: the
    rotation beginning just after the walk's minimum never dips below zero
    again, and for prime length the minimizer is unique.
    """
    _require_binary(x)
    n = x.n
    if not (n >= 2 and len(divisors(n)) == 2):
        raise NotPrime(f"length {n} is not prime")
    weight = sum(x.digits)
    if weight in (0, n):
        raise ConstantString("constant words have no distinguished rotation")
    best_j = 0
    best_value = None
    prefix = 0
    for j, bit in enumerate(x.digits):
        prefix += bit
        value = n * prefix - (j + 1) * weight  # n * walk height, exact
        if best_value is None or value < best_value:
            best_value = value
            best_j = j
    return (n - (best_j + 1)) % n


def count_top_heavy(n):
    """Number of top-heavy binary words of length n (n prime).

    A word of weight w is top-heavy iff n * S_j >= j * w, that is
    S_j >= ceil(j * w / n), for every prefix length j.  For each w the
    count is a lattice-path count: one int holds, in W = n + 1 bits per
    slot, the number of admissible prefixes at each prefix weight s from
    the current floor ceil(j * w / n) up to w.  A slot counts at most
    C(j, s) < 2^n prefixes, so no slot carries into the next.  Appending a
    bit is row + (row << W), masked to the slots at most w; the slots
    below the new floor are shifted out (the floor rises by at most one a
    step).  After n steps the floor is w and slot 0 holds the count of
    weight w.

    That is O(n^2) big-int steps on at most (w + 1) * W bits each, with
    no call into the counting engine.  Measured in process on a shared
    2-vCPU host (Python 3.11): 0.9-2.0 ms for n = 53..73, 6 ms at 101,
    0.5 s at 401, 1.2-1.3 s at 509.  n above _MAX_N is refused with TooBig
    before the primality test, whose trial division is O(sqrt(n)) and
    never ends on a 19-digit n.
    """
    if n > _MAX_N:
        raise TooBig(f"length {n} exceeds the top-heavy count limit {_MAX_N}")
    if not (n >= 2 and len(divisors(n)) == 2):
        raise NotPrime(f"length {n} is not prime")
    width = n + 1
    total = 0
    for w in range(n + 1):
        row, floor = 1, 0
        for j in range(1, n + 1):
            row = (row + (row << width)) & ((1 << (w - floor + 1) * width) - 1)
            rise = -(-j * w // n) - floor
            row >>= rise * width
            floor += rise
        total += row
    return total
