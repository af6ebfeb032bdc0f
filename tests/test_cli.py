import pytest

from necklaces import cli, counting


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_path_accepts_only_auto_and_encoded(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--path", "direct", "necklace", "count", "6", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    default = run(capsys, "necklace", "count", "6", "3")
    encoded = run(capsys, "--path", "encoded", "necklace", "count", "6", "3")
    assert default == encoded == (0, "130 116\n", "")


def test_period_zero_is_not_a_divisor(capsys):
    code, out, err = run(capsys, "classes-less", "0110", "--q", "2", "--period", "0")
    assert (code, out) == (2, "")
    assert err == "error: period 0 does not divide length 4\n"


@pytest.mark.parametrize("qspec", ["6", "4^2", "1", "2^0"])
def test_irred_count_rejects_non_field_sizes(capsys, qspec):
    code, out, err = run(capsys, "irred", "count", qspec, "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad field size specification")


def test_irred_count_over_prime_power(capsys):
    q, n = 4, 3
    closed = sum(counting.mobius(n // d) * q**d for d in counting.divisors(n)) // n
    assert run(capsys, "irred", "count", "2^2", str(n)) == (0, f"{closed}\n", "")
