import random
from itertools import product

import pytest

from conftest import all_words, brute_orbit_below, brute_witnesses
from necklaces.errors import LayerMismatch
from necklaces.programs import (
    BranchingProgram,
    _PrefixTracker,
    accepts,
    build_alphabet_restriction,
    build_contiguous,
    build_intersection,
    build_rotation_witness,
    build_union,
    build_wraparound,
    count_accepted,
)
from necklaces.words import BinWord, NkString, bin_decode, bin_encode, bits_for


def bword(text):
    return BinWord(tuple(int(c) for c in text))


def accepted_set(bp):
    return {
        word
        for word in product(range(bp.alphabet_size), repeat=bp.num_layers)
        if accepts(bp, word)
    }


def has_contiguous_witness(z, witnesses):
    return any(
        z[i:i + len(wit)] == wit
        for wit in witnesses
        for i in range(len(z) - len(wit) + 1)
    )


def has_wraparound_witness(z, witnesses):
    n = len(z)
    for a in range(1, n):  # nonempty suffix, nonempty prefix
        for b in range(1, n - a + 1):
            if tuple(z[n - a:]) + tuple(z[:b]) in witnesses:
                return True
    return False


def test_count_accepted_trivial_programs():
    assert count_accepted(build_alphabet_restriction(5, 1, 2)) == 32
    assert count_accepted(build_contiguous(bword("000"))) == 0
    x = bword("10")
    bp = build_union(build_contiguous(x), build_wraparound(x))
    assert count_accepted(bp) == 3


def test_contiguous_examples():
    bp = build_contiguous(bword("10"))
    assert accepted_set(bp) == {(0, 0), (0, 1), (1, 0)}
    # node numbering is reproducible: reading 0 first completes the witness
    # "0" at once; reading 1 first matches the threshold prefix and only a
    # later 0 fires
    assert bp.arcs == build_contiguous(bword("10")).arcs == [[[0, 1]], [[0, 1], [0, 2]]]
    assert bp.accepting == {0, 1}
    assert count_accepted(build_contiguous(bword("000"))) == 0
    assert accepts(build_contiguous(bword("110")), (0, 1, 1))


def test_contiguous_matches_definition():
    for n in range(1, 10):
        for xv in range(2**n):
            bits = NkString.from_int(n, 2, xv).digits
            witnesses = brute_witnesses(bits)
            bp = build_contiguous(BinWord(bits))
            for z in product((0, 1), repeat=n):
                assert accepts(bp, z) == has_contiguous_witness(z, witnesses)


def test_wraparound_matches_definition():
    # the stated acceptance semantics, checked definitionally: some nonempty
    # suffix + nonempty prefix concatenating to a witness
    for n in range(1, 9):
        for xv in range(2**n):
            bits = NkString.from_int(n, 2, xv).digits
            witnesses = brute_witnesses(bits)
            bp = build_wraparound(BinWord(bits))
            for z in product((0, 1), repeat=n):
                assert accepts(bp, z) == has_wraparound_witness(z, witnesses), (
                    bits,
                    z,
                )


def test_wraparound_spot_cases():
    # witnesses of "100" are {"0"} only, so no wraparound split is possible
    assert accepted_set(build_wraparound(bword("100"))) == set()
    assert count_accepted(build_wraparound(bword("000"))) == 0
    assert not accepts(build_wraparound(bword("10")), (0, 1))
    # "0110 0..." style: a wraparound witness the contiguous program misses
    bits = bword("01100")
    z = (1, 0, 1, 1, 0)
    assert accepts(build_wraparound(bits), z)
    assert not accepts(build_contiguous(bits), z)


def test_union_intersection_algebra():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randrange(2, 8)
        xa = BinWord(NkString.from_int(n, 2, rng.randrange(2**n)).digits)
        xb = BinWord(NkString.from_int(n, 2, rng.randrange(2**n)).digits)
        a = build_contiguous(xa)
        b = build_wraparound(xb)
        sa, sb = accepted_set(a), accepted_set(b)
        assert accepted_set(build_union(a, b)) == sa | sb
        assert accepted_set(build_intersection(a, b)) == sa & sb


def test_union_identity_and_absorption():
    n = 4
    every = build_alphabet_restriction(n, 1, 2)
    none = build_contiguous(BinWord((0,) * n))
    b = build_wraparound(bword("0110"))
    assert count_accepted(build_union(every, b)) == 2**n
    assert accepted_set(build_union(b, none)) == accepted_set(b)
    assert accepted_set(build_intersection(every, b)) == accepted_set(b)
    assert count_accepted(build_intersection(b, none)) == 0


def test_layer_mismatch():
    with pytest.raises(LayerMismatch):
        build_union(build_contiguous(bword("10")), build_contiguous(bword("100")))


def test_union_counts_rotation_language():
    # union(contiguous, wraparound) accepts exactly the words with a rotation
    # strictly below x
    from bisect import bisect_left
    from necklaces.words import min_rotation

    for n in range(1, 11):
        canon = sorted(min_rotation(z)[0].digits for z in all_words(n, 2))
        for xv in range(2**n):
            x = NkString.from_int(n, 2, xv)
            bp = build_union(
                build_contiguous(BinWord(x.digits)),
                build_wraparound(BinWord(x.digits)),
            )
            expected = bisect_left(canon, x.digits)
            assert count_accepted(bp) == expected, x.digits


def test_alphabet_restriction():
    assert count_accepted(build_alphabet_restriction(3, 2, 4)) == 64  # q = 2^t
    assert count_accepted(build_alphabet_restriction(1, 2, 3)) == 3
    assert count_accepted(build_alphabet_restriction(2, 3, 5)) == 25
    bp = build_alphabet_restriction(2, 2, 3)
    for word in product((0, 1), repeat=4):
        blocks_ok = all(
            word[i] * 2 + word[i + 1] < 3 for i in (0, 2)
        )
        assert accepts(bp, word) == blocks_ok
    with pytest.raises(ValueError):
        build_alphabet_restriction(2, 3, 3)  # wrong block width


def test_rotation_witness_blocked():
    # t = 1 reduces to the plain union
    for xv in range(2**5):
        bits = BinWord(NkString.from_int(5, 2, xv).digits)
        blocked = build_rotation_witness(bits, 1)
        plain = build_union(build_contiguous(bits), build_wraparound(bits))
        assert accepted_set(blocked) == accepted_set(plain)

    # all-zero threshold accepts nothing
    assert count_accepted(build_rotation_witness(BinWord((0,) * 6), 2)) == 0

    # blocked semantics: accepted y are exactly those with a block rotation
    # below x, for every y (restricted or not)
    for q, n in ((3, 2), (3, 3), (5, 2)):
        t = bits_for(q)
        for xv in range(q**n):
            x = NkString.from_int(n, q, xv)
            enc = bin_encode(x)
            bp = build_rotation_witness(enc, t)
            for y in product((0, 1), repeat=t * n):
                doubled = y + y
                want = any(
                    doubled[s * t:s * t + t * n] < enc.bits for s in range(n)
                )
                assert accepts(bp, y) == want, (x.digits, y)


def test_rotation_witness_within_restriction():
    # counting inside the valid-block language agrees with the q-ary truth;
    # the q=3, n=2, threshold "12" case comes out to 6 qualifying words
    q, n = 3, 2
    t = bits_for(q)
    x = NkString(n, q, (1, 2))
    bp = build_intersection(
        build_rotation_witness(bin_encode(x), t),
        build_alphabet_restriction(n, t, q),
    )
    assert count_accepted(bp) == 6
    got = {bin_decode(BinWord(y, t), q).digits for y in accepted_set(bp)}
    want = {
        z.digits for z in all_words(n, q) if brute_orbit_below(z, x)
    }
    assert got == want


def test_distinct_label_ceiling():
    # distinct automaton states stay within 4(n+1)^2 (t+1)^2
    for n in range(1, 9):
        for xv in range(2**n):
            bits = BinWord(NkString.from_int(n, 2, xv).digits)
            for bp in (build_contiguous(bits), build_wraparound(bits)):
                assert len(bp.distinct_labels()) <= 4 * (n + 1) ** 2 * 4
    rng = random.Random(17)
    for q, n in ((3, 3), (5, 2), (6, 3)):
        t = bits_for(q)
        for _ in range(25):
            x = NkString.from_int(n, q, rng.randrange(q**n))
            bp = build_rotation_witness(bin_encode(x), t)
            bound = 4 * (n + 1) ** 2 * (t + 1) ** 2
            assert len(bp.distinct_labels()) <= bound


def test_every_input_routes_uniquely():
    rng = random.Random(13)
    thresholds = [bword("0110")]
    for _ in range(20):
        n = rng.randrange(1, 8)
        thresholds.append(BinWord(NkString.from_int(n, 2, rng.randrange(2**n)).digits))
    for x in thresholds:
        bp = build_union(build_contiguous(x), build_wraparound(x))
        for word in product((0, 1), repeat=len(x.bits)):
            node = 0
            for j, sym in enumerate(word):
                nxt = bp.arcs[j][node][sym]
                assert nxt is not None, (x.bits, word)
                node = nxt


def test_prefix_tracker_states_match_definition():
    # a witness suffix is x[i:k]0 with x[k] = 1; the state after reading u is
    # live iff u is a prefix of one, else frozen to u's longest prefix that is
    # one (the empty word if none).  Every x of up to 8 bits is read, the
    # all-zero x and those whose only 1 is the last bit among them.
    for n in range(1, 9):
        for bits in product((0, 1), repeat=n):
            suffixes = [bits[i:k] + (0,) for k in range(n) if bits[k] for i in range(k + 1)]
            tracker = _PrefixTracker(bits)
            start = ("live", ())
            assert tracker.final_value(start) == ()
            states = {(): start}
            for _ in range(n):
                states = {
                    u + (bit,): tracker.step(state, bit)
                    for u, state in states.items()
                    for bit in (0, 1)
                }
                for u, state in states.items():
                    r = max((u[:m] for m in range(len(u) + 1) if m == 0 or u[:m] in suffixes),
                            key=len)
                    if any(s[:len(u)] == u for s in suffixes):
                        assert state == ("live", u), (bits, u, state)
                    else:
                        assert state == ("frozen", r), (bits, u, state)
                    assert tracker.final_value(state) == r, (bits, u, state)
