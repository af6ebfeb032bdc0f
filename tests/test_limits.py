"""Well-formed inputs past the float range and past CPython's int-to-str digit limit.

The CLI promises exit 0 for an answer, 2 for malformed input, 3 for
invalid advice and 4 for a guardrail, at any size.  Two well-formed inputs
broke it: a kernel of degree 1024 overflowed a float in its Straus rule,
and a closed-form count of more than 4,300 decimal digits could not be
printed.  A third never finished: `topheavy count` on a 19-digit prime ran
trial division before any limit.
"""

import contextlib
import sys

import pytest

from necklaces import cli, counting, gf, irreducible, topheavy


def _prime_powers(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    for p in range(2, limit + 1):
        if sieve[p]:
            q, e = p, 1
            while q <= limit:
                yield q, e
                q, e = q * p, e + 1


def test_straus_rule_matches_the_float_rule():
    """The int rule picks what 2^n + n + 2b - 4 + 4/e < 1.5 bits(q^n - 1) picked, where that ran."""
    for q, e in _prime_powers(2**16):
        b = (q - 1).bit_length()
        for n in range(1, 65):
            old = n > 1 and 2**n + n + 2 * b - 4 + 4 / e < 1.5 * (q**n - 1).bit_length()
            assert gf._takes_straus(q, n, e) == old, (q, n, e)


def test_degree_1024_kernel_builds():
    F = ((1,), (1,)) + ((),) * 1022 + ((1,),)  # T^1024 + T + 1 over F_2
    kernel = gf._Packed(2, (0, 1), F)
    t = kernel.t
    assert kernel.mul(kernel.pow(t, 1023), t) == kernel.add(t, kernel.one)


def _run(capsys, *argv):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    return code, out, err


@contextlib.contextmanager
def _no_digit_limit():
    """Lifts the int-to-str digit limit inside the test, to format the expected counts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("degree", [1023, 1024])
def test_degree_1024_advice_exits_by_contract(capsys, tmp_path, degree):
    """T^m + T^19 + T^6 + T + 1 with no factors line: verified or refused, never a traceback."""
    coefficients = [0] * (degree + 1)
    for i in (0, 1, 6, 19, degree):
        coefficients[i] = 1
    path = tmp_path / "advice"
    path.write_text(f"2 1\n{degree}\n{' '.join(map(str, coefficients))}\n", encoding="ascii")
    code, out, err = _run(capsys, "irred", "index", "2", str(degree), "1", "--advice", str(path))
    assert code in (0, 3), (code, err)
    assert code == 0 or (out == "" and err.startswith("error: ") and err.count("\n") == 1), err


@pytest.mark.parametrize("argv, counts", [
    (("necklace", "count", "100000", "2"),
     lambda: (counting.count_necklaces(100000, 2), counting.count_lyndon(100000, 2))),
    (("irred", "count", "2", "100000"), lambda: (irreducible.count_irreducible(2, 100000),)),
])
def test_counts_past_the_digit_limit_print_in_full(capsys, argv, counts):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out) > 2 * 4300
    with _no_digit_limit():
        assert out == " ".join(map(str, counts())) + "\n"


def test_rank_past_the_digit_limit_is_too_large(capsys):
    code, out, err = _run(capsys, "necklace", "index", "10", "2", "9" * 5000)
    assert (code, out, err) == (0, "TOO_LARGE\n", "")


def _first_prime_above(n):
    n += 1
    while len(counting.divisors(n)) != 2:
        n += 1
    return n


@pytest.mark.parametrize("n", ["1000000000000000003", str(_first_prime_above(topheavy._MAX_N))])
def test_topheavy_count_refuses_before_the_primality_test(capsys, monkeypatch, n):
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n} ran before the limit")

    monkeypatch.setattr(topheavy, "divisors", no_trial_division)
    code, out, err = _run(capsys, "topheavy", "count", n)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
