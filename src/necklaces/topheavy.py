"""Top-heavy canonical rotations for binary words of prime length.

A binary word is top-heavy when every prefix has normalized Hamming weight
at least the word's own; for prime length every non-constant word has
exactly one top-heavy rotation (the cycle lemma), so top-heavy words are
canonical orbit representatives and their count must equal the number of
binary necklaces.  This module is an independent check on the main
pipeline; all comparisons use integer cross-multiplication, never floats.
"""

from .counting import divisors
from .errors import ConstantString, NotBinary, NotPrime
from .words import NkString, rotate


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

    Layered dynamic program: the state after j bits is the prefix weight
    together with the tightest weight cap floor(n * S / (j+1)) seen so far;
    a word is top-heavy exactly when its total weight is at most the cap.
    """
    if not (n >= 2 and len(divisors(n)) == 2):
        raise NotPrime(f"length {n} is not prime")
    # state: (prefix weight, running cap); cap n means "no constraint yet"
    frontier = {(0, n): 1}
    for j in range(n):
        nxt = {}
        for (s, cap), cnt in frontier.items():
            for bit in (0, 1):
                s2 = s + bit
                cap2 = min(cap, n * s2 // (j + 1))
                key = (s2, cap2)
                nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
    return sum(cnt for (s, cap), cnt in frontier.items() if s <= cap)
