"""The one-shift chain of engine.count_below against the plain trie walk.

The reference walks every live node through engine._transitions, as the
engine did before one-shift nodes were unrolled by engine._chain.  Both walks
must record the same resolved events and give the same count.
"""

import random

import pytest

from necklaces import engine
from necklaces.words import NkString, min_rotation


def reference_walk(digits, q):
    """(count, events) with every live node split by _transitions."""
    n = len(digits)
    tab = engine._Tables(tuple(digits), q)
    pow_q = [q**i for i in range(n + 1)]
    events = [{} for _ in range(n)]
    fired_total = 0
    live = [(0, 0, tuple(range(1, n)))]
    for j in range(n):
        r = n - j - 1
        nxt = []
        for state in live:
            for _, size, out in engine._transitions(tab, state, j):
                if out is engine.FIRED:
                    fired_total += size * pow_q[r]
                elif out[2]:
                    nxt.append(out)
                else:
                    events[r][out[:2]] = events[r].get(out[:2], 0) + size
        live = nxt
    return fired_total + engine._charge_resolved(tab, events, pow_q), events


def _canonical(n, q, digits):
    return min_rotation(NkString(n, q, tuple(digits)))[0].digits


def _thresholds():
    rng = random.Random(12)
    out = []
    for n, q in ((40, 2), (24, 3), (16, 5), (20, 2**16), (12, 2**100)):
        for _ in range(16):
            digits = [rng.randrange(q) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (q - 1,) * n))  # all-top
        for p in (1, 2, 3, 4, 5):  # periodic
            block = [rng.randrange(q) for _ in range(p)]
            out.append((q, tuple(block * (n // p) + block[:n % p])))
    q = 2**20  # digits 0 and 1 only: long borders and steps on fire_above
    for n in (8, 16, 24, 32):
        for _ in range(8):
            digits = [rng.randrange(2) for _ in range(n)]
            out += [(q, tuple(digits)), (q, _canonical(n, q, digits))]
        out.append((q, (0,) * (n - 1) + (1,)))
        out.append((q, (1,) * n))
    return out


THRESHOLDS = _thresholds()


def test_threshold_set_is_large_enough():
    assert len(set(THRESHOLDS)) >= 200


@pytest.mark.parametrize("q, digits", [
    pytest.param(q, digits, id=f"{i}-n{len(digits)}") for i, (q, digits) in enumerate(THRESHOLDS)])
def test_chain_matches_reference_walk(q, digits, monkeypatch):
    want, want_events = reference_walk(digits, q)
    charge, seen = engine._charge_resolved, []

    def spy(tab, events, pow_q):
        seen.append(events)
        return charge(tab, events, pow_q)

    monkeypatch.setattr(engine, "_charge_resolved", spy)
    assert engine.count_below(digits, q) == want
    if any(digits) and len(digits) > 1:
        assert seen == [want_events]


def test_chain_handles_every_short_binary_and_ternary_word():
    for n, q in ((1, 3), (2, 3), (3, 2), (4, 3), (6, 2)):
        for v in range(q**n):
            digits = NkString.from_int(n, q, v).digits
            assert engine.count_below(digits, q) == reference_walk(digits, q)[0], digits
