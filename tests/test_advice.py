"""Advice files that parse_advice refuses although a lax reader could take them.

No F_p coordinate, of g or of F, is reduced mod p, and nothing may follow
the optional factors line.  Each bad text differs from a valid advice in
one place, and the valid one is parsed first, so the refusal is for that
place alone.  Advice that find_primitive_polynomial generates is pinned by
the digest of its text.
"""

import hashlib

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


# sha256 of format_advice(find_primitive_polynomial(default_fq_ctx(q), n, factorize(q^n - 1), seed))
GENERATED = {
    (2, 20, 1): "fcc987b7852963cfba00699d2e3375ced0e28165da6ba25abe1671de5b0ea9a6",
    (2, 20, 2): "3f9628062c809519454779c0459a20809a30e5c54e0d27fad4961fbc86c47131",
    (2, 20, 3): "7711790b2afad978d44dae484f53db2ffe1ca9e85283b1f677a42e107dc7a6e5",
    (4, 6, 1): "0abf4e78e95cb9015bc1a6990d5cca50e8ab3cb5895edf74d715066b7a39673f",
    (4, 6, 2): "e5a5163791c9083da9a6ba13dca4f472146e9e25b46ece57838300e847261dd1",
    (4, 6, 3): "a27952e52e6b88f5e1ed274ec65ed1d3da9306a0e1c31ca165d86fd62c4b5eb7",
    (2**16, 3, 1): "ba21823128ace2ef50278226fa5780a6ff5f20be8f9a00ffea1489e6333ae177",
    (2**16, 3, 2): "eb9b43d8b03c20783818a93af6220b75ecfcc48864103c5dd03deb9b67c1f69e",
    (2**16, 3, 3): "c7c0193a96cd90749046589090aa7687b1094f70e755fbf911a7b1bb2e54283e",
    (3, 40, 1): "1082969dc2c5f12b50ae5551eaac55609fe27cd1f3a764ca0b73a5a2872a4cf4",
    (3, 40, 2): "f2fd15264de133019bfedaf16b289944447e96d26c666d4654bde2d285328d00",
    (3, 40, 3): "cde76d883098aa25cf1da58b11347dfe6f54461e03e69e3ad82b9a3d74ffa333",
    (2, 64, 1): "9e3803b107e6a9624db5069a68b8322e52607a87ea9f8552ca58980007418aa4",
    (2, 64, 2): "e1be09f11f3181059b249a6a26d3fbf84ca02b412fc1ae39899595aaf1a8e601",
    (2, 64, 3): "68f5d2ef8b6269d0e64bc6ec211b7808afb3a92d1c84f8fd44027fec1c6aa339",
}


@pytest.mark.parametrize("q, n, seed", GENERATED, ids=[f"{q}^{n}-seed{s}" for q, n, s in GENERATED])
def test_generated_advice_is_pinned(q, n, seed):
    base = gf.default_fq_ctx(q)
    ctx = gf.find_primitive_polynomial(base, n, gf.factorize(q**n - 1), seed)
    text = gf.format_advice(ctx)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GENERATED[q, n, seed]
