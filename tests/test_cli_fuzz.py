"""In-process fuzzing of `cli.main` on malformed input.

Every drawn command line must end in one of the documented exit codes
(0 success, 2 malformed input, 3 invalid advice, 4 guardrail exceeded)
without a traceback.  Sizes stay small so that no drawn case can run long:
n <= 6, q <= 5, and advice files are the (2, 4) field's advice, intact,
truncated or garbled.  Examples are derandomized.
"""

import pytest

from necklaces import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ADVICE_24 = "2 1\n4\n1 0 0 1 1\nfactors 3 5\n"
EXIT_CODES = {0, 2, 3, 4}

_words = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=6),
    st.text(alphabet="0123456789,", max_size=6),  # bad digits, empty words, stray commas
    st.sampled_from(["", " ", ",", "0,", ",1", "1,,0", "0 1", "01a", "1.0", "-1", "٣"]),
)
_qspecs = st.sampled_from(["2", "3", "5", "2^2", "", "^", "2^", "^2", "6", "4", "1", "0",
                           "-2", "2^0", "2^-1", "x", "2.0", "2^2^2", " 3", "2 ^2", "4^2"])
_small = st.integers(-2, 6)  # n, q and the like, bad values included
_ranks = st.integers(-3, 40)


@st.composite
def _advice_text(draw):
    """The (2, 4) advice, intact or with lines dropped, duplicated, cut or garbled."""
    lines = ADVICE_24.split("\n")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "cut", "garble", "truncate"]))
        if op == "drop" and len(lines) > 1:
            del lines[at]
        elif op == "dup":
            lines.insert(at, lines[at])
        elif op == "cut":
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
        elif op == "garble" and lines[at]:
            i = draw(st.integers(0, len(lines[at]) - 1))
            new = draw(st.text(alphabet="0123456789 ,-xf\t\xff", max_size=2))
            lines[at] = lines[at][:i] + new + lines[at][i + 1:]
        elif op == "truncate":
            lines = lines[:at] or [""]
    return "\n".join(lines)


@st.composite
def _argv(draw):
    kind = draw(st.sampled_from(["necklace", "lyndon", "classes-less", "irred", "bch",
                                 "topheavy"]))
    if kind in ("necklace", "lyndon"):
        action = draw(st.sampled_from(["count", "index", "rank"] if kind == "necklace"
                                      else ["index", "rank"]))
        if action == "rank":
            return [kind, action, draw(_words), "--q", str(draw(_small))]
        argv = [kind, action, str(draw(_small)), str(draw(_small))]
        return argv + [str(draw(_ranks))] if action == "index" else argv
    if kind == "classes-less":
        argv = [kind, draw(_words), "--q", str(draw(_small))]
        return argv + ["--period", str(draw(_small))] if draw(st.booleans()) else argv
    if kind == "irred":
        action = draw(st.sampled_from(["count", "index", "gen-advice"]))
        qspec = draw(st.one_of(st.just("2"), _qspecs))
        argv = [kind, action, qspec, str(draw(st.one_of(st.just(4), _small)))]
        if action == "index":
            return argv + [str(draw(_ranks)), "--advice", "ADVICE"]
        if action == "gen-advice":
            argv += ["--seed", str(draw(st.integers(0, 3)))]
            if draw(st.booleans()):
                argv += ["--factors", *map(str, draw(st.lists(_small, min_size=1, max_size=3)))]
        return argv
    if kind == "bch":
        action = draw(st.sampled_from(["rows", "gen-entry", "pc-entry", "gen-matrix",
                                       "pc-matrix"]))
        argv = [kind, action, "--advice", "ADVICE", "--d", str(draw(st.integers(-2, 17)))]
        if action.endswith("-entry"):
            col = draw(st.one_of(st.text(alphabet="0123,:-", max_size=8),
                                 st.sampled_from(["1", "0:1", "1:0:1:0:1", "2", ":", ""])))
            argv += ["--row", str(draw(_ranks)), "--col", col]
        return argv
    action = draw(st.sampled_from(["check", "canon", "count"]))
    return [kind, action, str(draw(_small)) if action == "count" else draw(_words)]


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(_argv(), _advice_text(), st.sampled_from(["text", "json-lines"]))
def test_malformed_command_lines_exit_cleanly(tmp_path, capsys, argv, advice, fmt):
    path = tmp_path / "advice"
    path.write_bytes(advice.encode("latin-1"))
    argv = ["--format", fmt] + [str(path) if word == "ADVICE" else word for word in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    out, err = capsys.readouterr()
    assert code in EXIT_CODES, (argv, advice, out, err)  # an exception fails it too
    if code:
        assert out == "" and err.strip(), (argv, advice, out, err)
