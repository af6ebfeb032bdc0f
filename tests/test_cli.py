import os
import subprocess
import sys

import pytest

from necklaces import cli, counting

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Advice files by name; an argv word equal to a name stands for that file's path.
ADVICE = {
    "A22": "2 1\n2\n1 1 1\nfactors 3\n",
    "A24": "2 1\n4\n1 0 0 1 1\nfactors 3 5\n",
    "A42": "2 2\n1 1 1\n2\n1,1 1,1 1,0\nfactors 3 5\n",
    "A31T": "3 1\n1\n0 1\nfactors 2\n",  # modulus T: the class of T is 0
}


@pytest.fixture
def advice(tmp_path):
    paths = {}
    for name, text in ADVICE.items():
        paths[name] = str(tmp_path / name)
        with open(paths[name], "w", encoding="ascii") as fh:
            fh.write(text)
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def split(command, advice):
    return [advice.get(word, word) for word in command.split()]


def python(*args):
    """Run the interpreter on args in a fresh process with only the package source on its path."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120, check=False)


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


# (command, text stdout, json-lines stdout): one command per subcommand action.
GOLDEN = [
    ('necklace count 6 2',
     '14 9\n',
     '{"op": "necklace-count", "inputs": {"n": 6, "q": 2}, "result": "14 9"}\n'),
    ('necklace index 6 2 5',
     '000111\n',
     '{"op": "necklace-index", "inputs": {"n": 6, "q": 2, "j": 5}, "result": "000111"}\n'),
    ('necklace index 6 2 99',
     'TOO_LARGE\n',
     '{"op": "necklace-index", "inputs": {"n": 6, "q": 2, "j": 99}'
     ', "result": "TOO_LARGE"}\n'),
    ('necklace rank 0110 --q 2',
     '3 0011\n',
     '{"op": "necklace-rank", "inputs": {"word": "0110", "q": 2}, "result": "3 0011"}\n'),
    ('lyndon index 6 3 7',
     '000101\n',
     '{"op": "lyndon-index", "inputs": {"n": 6, "q": 3, "j": 7}, "result": "000101"}\n'),
    ('lyndon rank 0112 --q 3',
     '9 0112\n',
     '{"op": "lyndon-rank", "inputs": {"word": "0112", "q": 3}, "result": "9 0112"}\n'),
    ('classes-less 0110 --q 2',
     '4\n',
     '{"op": "classes-less", "inputs": {"word": "0110", "q": 2, "period": null}'
     ', "result": "4"}\n'),
    ('classes-less 011011 --q 2 --period 3',
     '3 4\n',
     '{"op": "classes-less", "inputs": {"word": "011011", "q": 2, "period": 3}'
     ', "result": "3 4"}\n'),
    ('irred count 2^2 3',
     '20\n',
     '{"op": "irred-count", "inputs": {"q": 4, "n": 3}, "result": "20"}\n'),
    ('irred index 2 4 2 --advice A24',
     '1 1 1 1 1\n',
     '{"op": "irred-index", "inputs": {"q": 2, "n": 4, "i": 2}, "result": "1 1 1 1 1"}\n'),
    ('irred index 2^2 2 3 --advice A42',
     '1,0 1,1 1,0\n',
     '{"op": "irred-index", "inputs": {"q": 4, "n": 2, "i": 3}, "result": "1,0 1,1 1,0"}\n'),
    ('irred gen-advice 2 4 --seed 1',
     '2 1\n4\n1 0 0 1 1\nfactors 3 5\n',
     '{"op": "irred-gen-advice", "inputs": {"q": 2, "n": 4, "seed": 1}'
     ', "result": "2 1\\n4\\n1 0 0 1 1\\nfactors 3 5\\n"}\n'),
    ('bch rows --advice A24 --d 8',
     '5 5\n',
     '{"op": "bch-rows", "inputs": {"q": 2, "n": 4, "d": 8}, "result": "5 5"}\n'),
    ('bch gen-entry --advice A24 --d 8 --row 3 --col 1:1:0:1',
     '1\n',
     '{"op": "bch-gen-entry", "inputs": {"q": 2, "n": 4, "d": 8, "row": 3, "col": "1:1:0:1"}'
     ', "result": "1"}\n'),
    ('bch pc-entry --advice A24 --d 5 --row 2 --col 1:0:1',
     '1:0:1:0\n',
     '{"op": "bch-pc-entry", "inputs": {"q": 2, "n": 4, "d": 5, "row": 2, "col": "1:0:1"}'
     ', "result": "1:0:1:0"}\n'),
    ('bch gen-entry --advice A42 --d 6 --row 2 --col 1,1:0,1',
     '1,0\n',
     '{"op": "bch-gen-entry", "inputs": {"q": 4, "n": 2, "d": 6, "row": 2, "col": "1,1:0,1"}'
     ', "result": "1,0"}\n'),
    ('bch pc-entry --advice A42 --d 6 --row 2 --col 1,1:0,1',
     '1,1:0,1\n',
     '{"op": "bch-pc-entry", "inputs": {"q": 4, "n": 2, "d": 6, "row": 2, "col": "1,1:0,1"}'
     ', "result": "1,1:0,1"}\n'),
    ('bch gen-matrix --advice A22 --d 2',
     '1 1 1 1\n0 0 1 1\n0 1 1 0\n',
     '{"op": "bch-gen-matrix", "inputs": {"q": 2, "n": 2, "d": 2}'
     ', "result": ["1 1 1 1", "0 0 1 1", "0 1 1 0"]}\n'),
    ('bch pc-matrix --advice A22 --d 2',
     '1:0 1:0 1:0\n1:0 0:1 1:1\n',
     '{"op": "bch-pc-matrix", "inputs": {"q": 2, "n": 2, "d": 2}'
     ', "result": ["1:0 1:0 1:0", "1:0 0:1 1:1"]}\n'),
    ('topheavy check 11010',
     'true\n',
     '{"op": "topheavy-check", "inputs": {"word": "11010"}, "result": "true"}\n'),
    ('topheavy canon 10110',
     '3 11010\n',
     '{"op": "topheavy-canon", "inputs": {"word": "10110"}, "result": "3 11010"}\n'),
    ('topheavy count 5',
     '8\n',
     '{"op": "topheavy-count", "inputs": {"n": 5}, "result": "8"}\n'),
]

# (command, exit code, stderr) for malformed input; stdout stays empty in both formats.
MALFORMED = [
    ('necklace rank 0120 --q 2', 2, 'error: digit 2 outside alphabet of size 2\n'),
    ('lyndon rank 0101 --q 2', 2, 'error: word has period 2 < 4\n'),
    ('lyndon index 6 2 0', 2, 'error: ranks are 1-based\n'),
    ('classes-less 0110 --q 2 --period 3', 2, 'error: period 3 does not divide length 4\n'),
    ('irred index 2 5 1 --advice A24', 3,
     'error: advice describes q=2, n=4; requested q=2, n=5\n'),
    ('irred index 3 1 1 --advice A31T', 3,
     'error: the class of T does not generate the multiplicative group\n'),
    ('irred gen-advice 2 4 --seed 1 --factors 3 7', 3,
     'error: factor product does not match the group order\n'),
    ('irred gen-advice 2 400 --seed 1', 4,
     'error: q^n - 1 is too large to factor here; supply it with --factors\n'),
    ('bch gen-entry --advice A24 --d 5 --row 9 --col 1', 4,
     'error: row 9 beyond 1 generator rows\n'),
    ('bch pc-entry --advice A24 --d 5 --row 2 --col 1:0:1:0:1', 2,
     'error: too many coefficients for the field element\n'),
    ('topheavy check 0121', 2, 'error: digit 2 outside alphabet of size 2\n'),
]


@pytest.mark.parametrize("command, text, json_lines", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, advice, command, text, json_lines):
    argv = split(command, advice)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, "--format", "json-lines", *argv) == (0, json_lines, "")


@pytest.mark.parametrize("command, code, err", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_exit_codes(capsys, advice, command, code, err):
    argv = split(command, advice)
    for fmt in ("text", "json-lines"):
        assert run(capsys, "--format", fmt, *argv) == (code, "", err)


@pytest.mark.parametrize("name, col, bad", [
    ("A24", "3", 3), ("A24", "-1", -1), ("A24", "1:0:2", 2), ("A42", "1,1:2,0", 2),
])
def test_element_coefficients_outside_the_prime_field_are_refused(capsys, advice, name, col, bad):
    argv = ["bch", "pc-entry", "--advice", advice[name], "--d", "5", "--row", "2", "--col", col]
    assert run(capsys, *argv) == (2, "", f"error: coefficient {bad} outside 0..1\n")


_GUARD = """
import sys
from necklaces import cli
code = cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith(("necklaces.", "dataclasses", "json"))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, unloaded", [
    (["necklace", "index", "6", "2", "3"],
     ["necklaces.gf", "necklaces.bch", "necklaces.oracle", "necklaces.irreducible",
      "necklaces.topheavy", "necklaces.programs", "dataclasses", "json"]),
    (["topheavy", "count", "5"], ["necklaces.gf", "necklaces.bch", "necklaces.oracle"]),
])
def test_subcommands_import_only_what_they_run(argv, unloaded):
    proc = python("-c", _GUARD, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split("\n")[-2].split())
    assert "necklaces.cli" in loaded
    assert loaded.isdisjoint(unloaded), sorted(loaded.intersection(unloaded))


@pytest.mark.parametrize("command, code, out", [
    ("necklace count 6 2", 0, "14 9\n"),
    ("necklace rank 0120 --q 2", 2, ""),
    ("irred index 2 5 1 --advice A24", 3, ""),
])
def test_module_entry_passes_stdout_and_exit_status(advice, command, code, out):
    proc = python("-m", "necklaces.cli", *split(command, advice))
    assert (proc.returncode, proc.stdout) == (code, out)
