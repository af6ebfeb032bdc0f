"""Indexing monic irreducible polynomials of degree n over F_q.

A degree-n irreducible corresponds to the orbit of its roots under the
q-power map; writing a nonzero field element as a power g^a of a primitive
root and a in base q identifies these orbits with aperiodic rotation orbits
of base-q words (multiplication by q rotates the digit word).  Indexing an
irreducible therefore unranks a Lyndon word, raises g to the word's integer
value (`gf.generator_power`, one table product per nonzero hex digit of the
exponent), and takes that root's minimal polynomial
(`gf.minimal_polynomial`): over a prime field the shortest recurrence of its
traces by Berlekamp-Massey, n - 1 packed multiplies and O(n^2) operations on
ints mod p, else the product of its conjugate linear factors.

The index order is inherited from the Lyndon lexicographic order of the
exponent words; it is not lexicographic on polynomial coefficients.
"""

from . import counting, indexing
from .errors import NotAperiodic
from .indexing import TOO_LARGE
from .gf import check_degree, format_fq, generator_power, minimal_polynomial


def count_irreducible(q, n):
    """|I_{q,n}|, the Lyndon total of length n over q letters.

    For n >= 2 the all-(q-1) digit word is periodic, so the excluded residue
    of the exponent correspondence never meets an aperiodic orbit and no
    correction is needed.  For n = 1 Witt's formula gives q, the monic
    linear polynomials: index_irreducible adds T for the excluded residue.
    """
    check_degree(n)
    return counting.count_lyndon(n, q)


def index_irreducible(fctx, i):
    """The i-th monic irreducible of degree n over F_q, or TOO_LARGE.

    Requires primitive advice: fctx.modulus must have a primitive root as
    the class of T.  Distinct indices give distinct polynomials, and the
    image over i = 1..count is exactly the set of monic irreducibles.
    """
    if not fctx.primitive:
        raise ValueError("irreducible indexing requires certified primitive advice")
    if i < 1:
        raise ValueError("indices are 1-based")
    q, n = fctx.q, fctx.n
    if i > count_irreducible(q, n):
        return TOO_LARGE
    if n == 1:
        # The root correspondence misses P(T) = T (root 0); prepend it.
        if i == 1:
            return (fctx.base.zero, fctx.base.one)
        root = generator_power(fctx, i - 2)
        scalar = root[0] if root else fctx.base.zero
        return (fctx.base.neg(scalar), fctx.base.one)
    word = indexing.index_lyndon(n, q, i)
    if word is TOO_LARGE:  # unreachable: count checked above
        raise NotAperiodic("lyndon index out of range")
    # aperiodicity excludes the all-(q-1) word, the missing exponent residue
    if all(d == q - 1 for d in word.digits):
        raise NotAperiodic("lyndon index returned the periodic all-(q-1) word")
    exponent = word.to_int()
    alpha = generator_power(fctx, exponent)
    return minimal_polynomial(fctx, alpha)


def format_poly(fctx, poly):
    """Low-first coefficient list, each coefficient an F_p vector."""
    return " ".join(format_fq(fctx.base, coeff) for coeff in poly)
