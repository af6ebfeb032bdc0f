"""Advice files that parse_advice refuses although a lax reader could take them.

No F_p coordinate, of g or of F, is reduced mod p, and nothing may follow
the optional factors line.  Each bad text differs from a valid advice in
one place, and the valid one is parsed first, so the refusal is for that
place alone.
"""

import pytest

from necklaces import cli, gf
from necklaces.errors import InvalidAdvice

A26 = "2 1\n6\n1 1 0 1 1 0 1\nfactors 3 3 7\n"
A43 = "2 2\n1 1 1\n3\n1,1 0,1 1,0 1,0\nfactors 3 3 7\n"

BAD = [
    ("garbage after factors", A26, A26 + "garbage here\n"),
    ("second factors line", A26, A26 + "factors 3 3 7\n"),
    ("modulus coordinate p", A26, A26.replace("\n1 1 0", "\n3 1 0")),
    ("modulus coordinate -1", A26, A26.replace("\n1 1 0", "\n-1 1 0")),
    ("leading coordinate p", A26, A26.replace("0 1\nfactors", "0 3\nfactors")),
    ("vector coordinate p", A43, A43.replace("1,0 1,0\n", "1,0 1,2\n")),
    ("vector coordinate -1", A43, A43.replace("\n1,1 0,1", "\n-1,1 0,1")),
    ("g coefficient p", A43, A43.replace("\n1 1 1\n", "\n3 1 1\n")),
    ("g coefficient -1", A43, A43.replace("\n1 1 1\n", "\n1 -1 1\n")),
    ("g leading coefficient p", A43, A43.replace("\n1 1 1\n", "\n1 1 3\n")),
    ("non-integer modulus token", A26, A26.replace("\n1 1 0", "\n1 x 0")),
]
IDS = [name for name, _good, _bad in BAD]


@pytest.mark.parametrize("name, good, bad", BAD, ids=IDS)
def test_parse_advice_refuses(name, good, bad):
    assert bad != good
    assert gf.parse_advice(good).primitive
    with pytest.raises(InvalidAdvice):
        gf.parse_advice(bad)


@pytest.mark.parametrize("name, good, bad", BAD, ids=IDS)
def test_cli_exits_3_on(capsys, tmp_path, name, good, bad):
    for text, code in ((good, 0), (bad, 3)):
        path = tmp_path / "advice"
        path.write_text(text, encoding="ascii")
        assert cli.main(["bch", "rows", "--advice", str(path), "--d", "5"]) == code
        out, err = capsys.readouterr()
        assert (bool(out), bool(err)) == (code == 0, code != 0)
