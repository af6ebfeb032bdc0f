"""The command line's shape: every action's arguments, selftest's output and
exit status, and the field sizes `_parse_qspec` refuses.

tests/test_cli.py pins each action's output; this file pins what a handler
rewrite could change without touching those goldens.
"""

import argparse
import json

import pytest

from necklaces import cli, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _arguments(parser):
    """(dest, option strings, required, type, nargs, default, choices) per argument."""
    return [(a.dest, tuple(a.option_strings), a.required, a.type, a.nargs, a.default, a.choices)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def _commands(parser, path=()):
    """(command line prefix, arguments) for the root and every leaf parser, in order."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(" ".join(path), _arguments(parser))]
    assert len(subs) == 1 and subs[0].required
    found = [(" ".join(path), _arguments(parser))] if not path else []
    for name, child in subs[0].choices.items():
        found += _commands(child, path + (name,))
    return found


def pos(dest, type_=None):
    return (dest, (), True, type_, None, None, None)


def opt(dest, flag, type_=None, required=True, nargs=None, default=None):
    return (dest, (flag,), required, type_, nargs, default, None)


_INDEX = [pos("n", int), pos("q", int), pos("j", int)]
_RANK = [pos("word"), opt("q", "--q", int)]
_BCH = [opt("advice", "--advice"), opt("d", "--d", int)]
_ENTRY = _BCH + [opt("row", "--row", int), opt("col", "--col")]

PARSER = [
    ("", [("format_", ("--format",), False, None, None, "text", ("text", "json-lines"))]),
    ("necklace count", [pos("n", int), pos("q", int)]),
    ("necklace index", _INDEX),
    ("necklace rank", _RANK),
    ("lyndon index", _INDEX),
    ("lyndon rank", _RANK),
    ("classes-less", _RANK + [opt("period", "--period", int, required=False)]),
    ("irred count", [pos("qspec"), pos("n", int)]),
    ("irred index", [pos("qspec"), pos("n", int), pos("i", int), opt("advice", "--advice")]),
    ("irred gen-advice", [pos("qspec"), pos("n", int), opt("seed", "--seed", int),
                          opt("factors", "--factors", int, required=False, nargs="+")]),
    ("bch rows", _BCH),
    ("bch gen-entry", _ENTRY),
    ("bch pc-entry", _ENTRY),
    ("bch gen-matrix", _BCH),
    ("bch pc-matrix", _BCH),
    ("topheavy check", [pos("word")]),
    ("topheavy canon", [pos("word")]),
    ("topheavy count", [pos("n", int)]),
    ("selftest", [opt("max_n", "--max-n", int, required=False, default=8)]),
]


def test_every_action_keeps_its_arguments():
    assert _commands(cli.build_parser()) == PARSER


def test_selftest_passes_in_both_formats(capsys):
    code, out, err = run(capsys, "selftest", "--max-n", "3")
    lines = out.splitlines()
    assert (code, err, lines[-1]) == (0, "", "OK")
    assert lines[:-1] and all(line.startswith("PASS ") for line in lines[:-1])
    code, out, err = run(capsys, "--format", "json-lines", "selftest", "--max-n", "3")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"op": "selftest", "inputs": {"max_n": 3},
                               "result": {"ok": True, "checks": lines[:-1]}}
    assert out.count("\n") == 1


def test_a_failed_selftest_exits_one(capsys, monkeypatch):
    checks = ["PASS one", "FAIL two"]
    monkeypatch.setattr(oracle, "selftest", lambda max_n_binary: (False, list(checks)))
    assert run(capsys, "selftest", "--max-n", "2") == (1, "PASS one\nFAIL two\nFAILED\n", "")
    assert run(capsys, "--format", "json-lines", "selftest") == (
        1, '{"op": "selftest", "inputs": {"max_n": 8}, "result": {"ok": false, "checks": '
           '["PASS one", "FAIL two"]}}\n', "")


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_selftest_refuses_a_max_n_below_one(capsys, max_n):
    err = f"error: max_n_binary must be at least 1, got {max_n}\n"
    for fmt in ("text", "json-lines"):
        assert run(capsys, "--format", fmt, "selftest", "--max-n", max_n) == (2, "", err)


def test_selftest_refuses_binary_words_past_the_enumeration_guardrail(capsys):
    err = "error: 2^23 words exceed the enumeration guardrail\n"
    assert oracle.ENUM_GUARD == 2**22
    for fmt in ("text", "json-lines"):
        assert run(capsys, "--format", fmt, "selftest", "--max-n", "23") == (4, "", err)


def test_selftest_refuses_a_max_n_past_its_time_budget(capsys):
    err = "error: max_n_binary 17 would run past the selftest's 60 s budget; at most 16\n"
    for fmt in ("text", "json-lines"):
        assert run(capsys, "--format", fmt, "selftest", "--max-n", "17") == (4, "", err)


@pytest.mark.parametrize("qspec, err", [
    ("2^", "error: invalid literal for int() with base 10: ''\n"),
    ("^2", "error: invalid literal for int() with base 10: ''\n"),
    ("2^2^2", "error: invalid literal for int() with base 10: '2^2'\n"),
    ("2^-1", "error: bad field size specification '2^-1': need p^e, p prime\n"),
])
@pytest.mark.parametrize("action", [["count"], ["gen-advice", "--seed", "1"],
                                    ["index", "--advice", "no-such-advice-file"]])
def test_malformed_field_sizes_are_refused(capsys, qspec, err, action):
    argv = ["irred", action[0], qspec, "4"] + (["1"] if action[0] == "index" else []) + action[1:]
    for fmt in ("text", "json-lines"):
        assert run(capsys, "--format", fmt, *argv) == (2, "", err)
