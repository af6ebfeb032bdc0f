"""Words over an integer alphabet and their rotation structure.

A word of length n over the alphabet {0, ..., q-1} is stored as a tuple of
Python ints, most significant (leftmost) digit first, so that fixed-length
lexicographic order coincides with base-q integer order.  q may be an
arbitrary-precision integer; nothing here assumes symbols fit a machine word.

All functions are pure; values are immutable and safe to share across threads.
"""

from dataclasses import dataclass

from .errors import InvalidBlock


@dataclass(frozen=True)
class NkString:
    """A length-n word over {0, ..., q-1}, leftmost symbol first."""

    n: int
    q: int
    digits: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length must be positive")
        if self.q < 2:
            raise ValueError("alphabet size must be at least 2")
        if not isinstance(self.digits, tuple):
            object.__setattr__(self, "digits", tuple(self.digits))
        if len(self.digits) != self.n:
            raise ValueError("digit count does not match stated length")
        for d in self.digits:
            if not (0 <= d < self.q):
                raise ValueError(f"digit {d} outside alphabet of size {self.q}")

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


@dataclass(frozen=True)
class BinWord:
    """A bit string carved into fixed-width blocks (block=1 for plain binary)."""

    bits: tuple
    block: int = 1

    def __post_init__(self):
        if self.block < 1:
            raise ValueError("block width must be positive")
        if not isinstance(self.bits, tuple):
            object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) % self.block != 0:
            raise ValueError("bit length must be a multiple of the block width")
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")


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


def fundamental_period(x):
    """Smallest p with x equal to n/p copies of its length-p prefix; divides n."""
    n = x.n
    d = x.digits
    for p in range(1, n + 1):
        if n % p == 0 and all(d[i] == d[i % p] for i in range(p, n)):
            return p
    raise AssertionError("unreachable: n is always a period")


def _least_rotation_start(s):
    # Booth's algorithm: smallest index k such that s[k:]+s[:k] is the
    # lexicographically least rotation of s.
    n = len(s)
    s2 = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s2[j]
        i = f[j - k - 1]
        while i != -1 and sj != s2[k + i + 1]:
            if sj < s2[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s2[k + i + 1]:
            if sj < s2[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def min_rotation(x):
    """Lexicographically least rotation of x and the smallest shift producing it.

    Returns (y, i) with rotate(x, i) == y and 0 <= i < fundamental_period(x).
    """
    start = _least_rotation_start(x.digits)
    period = fundamental_period(x)
    shift = (x.n - start) % period
    return rotate(x, shift), shift


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


def is_witness(w, x):
    """True iff w = s0 where s1 is a prefix of the binary word x.

    A binary word is strictly below x exactly when one of its prefixes is a
    witness for x.
    """
    wb, xb = w.bits, x.bits
    m = len(wb)
    if m < 1 or m > len(xb) or wb[-1] != 0:
        return False
    return xb[m - 1] == 1 and wb[:m - 1] == xb[:m - 1]


def is_witness_prefix(s, x):
    """True iff s is a prefix of some witness for x (empty word counts iff any exist)."""
    sb, xb = s.bits, x.bits
    m = len(sb)
    last_one = _last_one_index(xb)
    if last_one is None:
        return False
    if m == 0:
        return True
    if m <= last_one and sb == xb[:m]:
        return True
    return m - 1 < len(xb) and xb[m - 1] == 1 and sb[-1] == 0 and sb[:m - 1] == xb[:m - 1]


def _last_one_index(bits):
    for i in range(len(bits) - 1, -1, -1):
        if bits[i] == 1:
            return i
    return None


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
