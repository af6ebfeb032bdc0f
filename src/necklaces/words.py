"""Words over an integer alphabet and their rotation structure.

A word of length n over the alphabet {0, ..., q-1} is stored as a tuple of
Python ints, most significant (leftmost) digit first, so that fixed-length
lexicographic order coincides with base-q integer order.  q may be an
arbitrary-precision integer; nothing here assumes symbols fit a machine word.

min_rotation and fundamental_period read the least rotation and its period
from one scan of the doubled word, by Duval's Lyndon factorization (J.-P.
Duval, "Factorizing words over an ordered alphabet", J. Algorithms 4, 1983).

Values are immutable and safe to share across threads.  Every function is
pure except next_prenecklace, which advances a caller's digit list in place.
"""

from .errors import InvalidBlock


class _Frozen:
    """Immutable value whose equality, hash and repr run over the fields in __slots__.

    Subclasses set their fields in __init__ with object.__setattr__.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class NkString(_Frozen):
    """A length-n word over {0, ..., q-1}, leftmost symbol first."""

    __slots__ = ("n", "q", "digits")

    def __init__(self, n, q, digits):
        if n < 1:
            raise ValueError("word length must be positive")
        if q < 2:
            raise ValueError("alphabet size must be at least 2")
        if not isinstance(digits, tuple):
            digits = tuple(digits)
        if len(digits) != n:
            raise ValueError("digit count does not match stated length")
        for d in digits:
            if not (0 <= d < q):
                raise ValueError(f"digit {d} outside alphabet of size {q}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_int(cls, n, q, value):
        """Word whose base-q expansion (n digits, leftmost most significant) is value."""
        if not (0 <= value < q**n):
            raise ValueError("value out of range for the given length")
        digits = []
        for _ in range(n):
            value, d = divmod(value, q)
            digits.append(d)
        return cls(n, q, tuple(reversed(digits)))

    def to_int(self):
        v = 0
        for d in self.digits:
            v = v * self.q + d
        return v


class BinWord(_Frozen):
    """A bit string carved into fixed-width blocks (block=1 for plain binary)."""

    __slots__ = ("bits", "block")

    def __init__(self, bits, block=1):
        if block < 1:
            raise ValueError("block width must be positive")
        if not isinstance(bits, tuple):
            bits = tuple(bits)
        if len(bits) % block != 0:
            raise ValueError("bit length must be a multiple of the block width")
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "block", block)


def bits_for(q):
    """Width of the binary encoding of one symbol: smallest t with 2**t >= q."""
    return max(1, (q - 1).bit_length())


def rotate(x, i):
    """Rotate x rightwards by i positions (the last symbol moves to the front)."""
    if i < 0:
        raise ValueError("rotation amount must be nonnegative")
    n = x.n
    i %= n
    if i == 0:
        return x
    return NkString(n, x.q, x.digits[n - i:] + x.digits[:n - i])


def borders(s):
    """KMP border table: b[i] is the longest proper border of s[:i], i = 0..len(s)."""
    n = len(s)
    b = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and s[i] != s[k]:
            k = b[k]
        if s[i] == s[k]:
            k += 1
        b[i + 1] = k
    return b


def _least_rotation(s):
    """(start, p): s[start:] + s[:start] is the least rotation of s, p its least period.

    Duval's factorization of ss: from each factor start i, scan the longest
    prenecklace ss[i:j], of least period p = j - k, then step i past its copies
    of the Lyndon factor ss[i:i+p].  From a start of the least rotation w^(n/|w|)
    on, ss is a prefix of www..., so the first scan to reach the end starts there.
    """
    end = 2 * len(s)
    ss = s + s
    i = 0
    while True:
        j, k = i + 1, i
        while j < end and ss[k] <= ss[j]:
            k = i if ss[k] < ss[j] else k + 1
            j += 1
        p = j - k
        if j == end:
            return i, p
        i += ((k - i) // p + 1) * p


def fundamental_period(x):
    """Smallest p with x equal to n/p copies of its length-p prefix; divides n.

    Rotation keeps the period, and the least rotation is (Lyndon root)^(n/p),
    so p is the root length that _least_rotation's scan ends on.
    """
    return _least_rotation(x.digits)[1]


def min_rotation(x):
    """Lexicographically least rotation of x and the smallest shift producing it.

    Returns (y, i) with rotate(x, i) == y and 0 <= i < fundamental_period(x).
    """
    start, period = _least_rotation(x.digits)
    shift = (x.n - start) % period
    return rotate(x, shift), shift


def prenecklace_at_least(digits):
    """Smallest prenecklace >= digits, as a digit list, with its period.

    A prenecklace is a prefix of some necklace; its period is the length of
    its longest Lyndon prefix.  That is also its least period, since a
    prenecklace is a power of that Lyndon word followed by a prefix of it;
    engine.count_below relies on this.  One FKM scan keeps the period p of
    the prefix read so far: a digit above a[i-p] makes the prefix
    Lyndon (p = i+1), an equal one keeps p, and the first digit below a[i-p]
    is where every word sharing the prefix stops being a prenecklace; raising
    it to a[i-p] and extending with period p gives the least one above.
    """
    a = list(digits)
    p = 1
    for i in range(1, len(a)):
        if a[i] > a[i - p]:
            p = i + 1
        elif a[i] < a[i - p]:
            for k in range(i, len(a)):
                a[k] = a[k - p]
            break
    return a, p


def next_prenecklace(a, q):
    """Advance the prenecklace a in place to the next one (FKM); return its period.

    Raises the last digit below q-1 at position i and extends with period
    i+1, which is the new prenecklace's period.  The prenecklace is a necklace iff
    its period divides len(a).  Returns 0, leaving a unchanged, past the
    last prenecklace (q-1)^n.
    """
    i = len(a) - 1
    while i >= 0 and a[i] == q - 1:
        i -= 1
    if i < 0:
        return 0
    a[i] += 1
    for k in range(i + 1, len(a)):
        a[k] = a[k - i - 1]
    return i + 1


def complement(x):
    """Digit-wise complement d -> q-1-d; reverses lexicographic order."""
    return NkString(x.n, x.q, tuple(x.q - 1 - d for d in x.digits))


def max_rotation(x):
    """Lexicographically greatest rotation of x and the smallest shift producing it."""
    greatest, shift = min_rotation(complement(x))
    return complement(greatest), shift


def orbit_below(y, x):
    """True iff some rotation of y is lexicographically strictly below x.

    Brute-force semantics over all n rotations; intended for oracles and
    small-scale checks, not for production counting.
    """
    if y.n != x.n or y.q != x.q:
        raise ValueError("words must share length and alphabet")
    n = y.n
    doubled = y.digits + y.digits
    return any(doubled[s:s + n] < x.digits for s in range(n))


def bin_encode(x):
    """Binary encoding: each symbol becomes its big-endian t-bit block.

    t = bits_for(q), so the encoding is strictly order-preserving on words of
    a common length, and rotating x by one symbol rotates the encoding by t bits.
    """
    t = bits_for(x.q)
    bits = []
    for d in x.digits:
        bits.extend((d >> (t - 1 - j)) & 1 for j in range(t))
    return BinWord(tuple(bits), t)


def bin_decode(w, q):
    """Inverse of bin_encode; raises InvalidBlock if a block's value is >= q."""
    t = w.block
    n = len(w.bits) // t
    if n < 1:
        raise ValueError("empty word")
    digits = []
    for i in range(n):
        v = 0
        for b in w.bits[i * t:(i + 1) * t]:
            v = (v << 1) | b
        if v >= q:
            raise InvalidBlock(f"block value {v} not below alphabet size {q}")
        digits.append(v)
    return NkString(n, q, tuple(digits))


def format_word(x):
    """Text form: digit string for q <= 10, comma-separated decimals otherwise."""
    if x.q <= 10:
        return "".join(str(d) for d in x.digits)
    return ",".join(str(d) for d in x.digits)


def parse_word(text, q):
    """Parse the text form produced by format_word."""
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    if q <= 10 and "," not in text:
        digits = tuple(int(c) for c in text)
    else:
        digits = tuple(int(part) for part in text.split(","))
    return NkString(len(digits), q, digits)
