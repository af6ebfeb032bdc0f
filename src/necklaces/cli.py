"""Command-line interface.

Line-oriented, deterministic output; --format json-lines emits one JSON
object per result instead.  Exit codes: 0 success (including TOO_LARGE,
which is a valid answer), 1 a failed selftest, 2 malformed input, 3 invalid
advice, 4 guardrail exceeded.

Every subcommand has one handler (set_defaults(handler=...)) that prints
nothing and returns (inputs, result); `main` prints them once, as the JSON
object {"op": "<command>[-<action>]", "inputs": ..., "result": ...} or as
text: a list one line per item, a string as its lines.  selftest's result
{"ok": ..., "checks": [...]} prints in text as its checks, then OK or
FAILED, and a failed selftest exits 1.

Subcommand modules are imported in their handlers so that a process pays
only for what it runs; the import-guard test in tests/test_cli.py enforces
this.
"""

import argparse
import sys

from . import counting, indexing
from .errors import BadFactorization, InvalidAdvice, NecklaceError, TooBig
from .indexing import TOO_LARGE
from .words import format_word, parse_word, rotate


def _parse_qspec(text):
    """Field size as "p" or "p^e" with p prime."""
    from . import gf

    if "^" in text:
        p_str, e_str = text.split("^", 1)
        p, e = int(p_str), int(e_str)
    else:
        p, e = int(text), 1
    if e < 1 or not gf.is_probable_prime(p):
        raise ValueError(f"bad field size specification {text!r}: need p^e, p prime")
    return p, e


def _format_element(fctx, a):
    """F_{q^n} element: n base-q coefficients (':'-joined), each an F_p vector."""
    from . import gf

    base = fctx.base
    return ":".join(gf.format_fq(base, a[i] if i < len(a) else base.zero) for i in range(fctx.n))


def _parse_element(fctx, text):
    from . import gf

    p = fctx.base.p
    parts = text.split(":")
    if len(parts) > fctx.n:
        raise ValueError("too many coefficients for the field element")
    coeffs = []
    for part in parts:
        vec = tuple(int(v) for v in part.split(","))
        if len(vec) > fctx.base.e:
            raise ValueError("coefficient vector longer than the extension degree")
        for v in vec:
            if not (0 <= v < p):
                raise ValueError(f"coefficient {v} outside 0..{p - 1}")
        coeffs.append(gf.pstrip(fctx.base.base, vec))
    return gf.pstrip(fctx.base, tuple(coeffs))


def _load_advice(filename):
    from . import gf

    try:
        return gf.load_advice(filename)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidAdvice(f"cannot read advice file: {exc}") from exc


# kind -> (unrank, rank); `necklace count` is the one action the kinds do not share
_ORBITS = {
    "necklace": (indexing.index_necklace, indexing.reverse_index_necklace),
    "lyndon": (indexing.index_lyndon, indexing.reverse_index_lyndon),
}


def _cmd_orbits(args):
    if args.action == "count":
        t = counting.count_necklaces(args.n, args.q)
        return {"n": args.n, "q": args.q}, f"{t} {counting.count_lyndon(args.n, args.q)}"
    unrank, rank = _ORBITS[args.command]
    if args.action == "index":
        got = unrank(args.n, args.q, args.j)
        text = "TOO_LARGE" if got is TOO_LARGE else format_word(got)
        return {"n": args.n, "q": args.q, "j": args.j}, text
    res = rank(parse_word(args.word, args.q))
    return {"word": args.word, "q": args.q}, f"{res.rank} {format_word(res.canonical)}"


def _cmd_classes_less(args):
    word = parse_word(args.word, args.q)
    if args.period is None:
        result = str(counting.count_necklaces_below(word))
    else:
        exact = counting.count_words_below_period_exact(word, args.period)
        result = f"{exact} {counting.count_words_below_period_dividing(word, args.period)}"
    return {"word": args.word, "q": args.q, "period": args.period}, result


def _cmd_irred(args):
    from . import gf, irreducible

    p, e = _parse_qspec(args.qspec)
    q = p**e
    if args.action == "count":
        return {"q": q, "n": args.n}, str(irreducible.count_irreducible(q, args.n))
    if args.action == "gen-advice":
        gf.check_degree(args.n)  # before q^n - 1 is factored
        order = q**args.n - 1
        if not args.factors and order > gf._AUTO_FACTOR_LIMIT:
            raise TooBig("q^n - 1 is too large to factor here; supply it with --factors")
        base = gf.default_fq_ctx(q)
        factors = args.factors if args.factors else gf.factorize(order)
        fctx = gf.find_primitive_polynomial(base, args.n, factors, args.seed)
        return {"q": q, "n": args.n, "seed": args.seed}, gf.format_advice(fctx, factors=factors)
    fctx = _load_advice(args.advice)
    if fctx.q != q or fctx.n != args.n:
        raise InvalidAdvice(f"advice describes q={fctx.q}, n={fctx.n}; "
                            f"requested q={q}, n={args.n}")
    got = irreducible.index_irreducible(fctx, args.i)
    text = "TOO_LARGE" if got is TOO_LARGE else irreducible.format_poly(fctx, got)
    return {"q": q, "n": args.n, "i": args.i}, text


def _cmd_bch(args):
    from . import bch, gf

    fctx = _load_advice(args.advice)
    params = bch.BchParams(fctx, args.d)
    inputs = {"q": fctx.q, "n": fctx.n, "d": args.d}
    if args.action == "rows":
        return inputs, f"{bch.generator_row_count(params)} {bch.parity_row_count(params)}"
    if args.action.endswith("-entry"):
        alpha = _parse_element(fctx, args.col)
        inputs.update(row=args.row, col=args.col)
        if args.action == "gen-entry":
            return inputs, gf.format_fq(fctx.base, bch.generator_entry(params, args.row, alpha))
        return inputs, _format_element(fctx, bch.parity_entry(params, args.row, alpha))
    columns = fctx.q**fctx.n
    if columns > bch.MATRIX_COLUMN_LIMIT:
        raise TooBig(f"{columns} columns exceed the full-matrix limit")
    if args.action == "gen-matrix":
        cols = [bch.column_element(fctx, c) for c in range(columns)]
        rows = (bch.generator_row(params, r)
                for r in range(1, bch.generator_row_count(params) + 1))
        return inputs, [" ".join(gf.format_fq(fctx.base, bch.generator_value(fctx, row, a))
                                 for a in cols) for row in rows]
    cols = [bch.nonzero_column_element(fctx, c) for c in range(columns - 1)]
    orbits = (bch.parity_row(params, r) for r in range(1, bch.parity_row_count(params) + 1))
    return inputs, [" ".join(_format_element(fctx, bch.parity_value(fctx, orbit, a))
                             for a in cols) for orbit in orbits]


def _cmd_topheavy(args):
    from . import topheavy

    if args.action == "count":
        return {"n": args.n}, str(topheavy.count_top_heavy(args.n))
    word = parse_word(args.word, 2)
    if args.action == "check":
        return {"word": args.word}, "true" if topheavy.is_top_heavy(word) else "false"
    shift = topheavy.top_heavy_rotation(word)
    return {"word": args.word}, f"{shift} {format_word(rotate(word, shift))}"


def _cmd_selftest(args):
    from . import oracle

    ok, lines = oracle.selftest(max_n_binary=args.max_n)
    return {"max_n": args.max_n}, {"ok": ok, "checks": lines}


def _actions(sub, command, help_, handler, names):
    """Parsers of command's actions by name, every one run by handler."""
    parser = sub.add_parser(command, help=help_)
    parser.set_defaults(handler=handler)
    actions = parser.add_subparsers(dest="action", required=True)
    return {name: actions.add_parser(name) for name in names}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="necklaces",
        description="Rank/unrank necklaces and Lyndon words; index irreducible "
        "polynomials; compute BCH matrix entries.",
    )
    parser.add_argument("--format", choices=("text", "json-lines"), default="text", dest="format_")
    sub = parser.add_subparsers(dest="command", required=True)

    necklace = _actions(sub, "necklace", "necklace counting, indexing, ranking", _cmd_orbits,
                        ("count", "index", "rank"))
    lyndon = _actions(sub, "lyndon", "Lyndon word indexing and ranking", _cmd_orbits,
                      ("index", "rank"))
    for dest in ("n", "q"):
        necklace["count"].add_argument(dest, type=int)
    for kind in (necklace, lyndon):
        for dest in ("n", "q", "j"):
            kind["index"].add_argument(dest, type=int)
        kind["rank"].add_argument("word")
        kind["rank"].add_argument("--q", type=int, required=True)

    cl = sub.add_parser("classes-less", help="orbits or words below a threshold word")
    cl.set_defaults(handler=_cmd_classes_less)
    cl.add_argument("word")
    cl.add_argument("--q", type=int, required=True)
    cl.add_argument("--period", type=int, default=None)

    irred = _actions(sub, "irred", "irreducible polynomial indexing", _cmd_irred,
                     ("count", "index", "gen-advice"))
    for sp in irred.values():
        sp.add_argument("qspec")
        sp.add_argument("n", type=int)
    irred["index"].add_argument("i", type=int)
    irred["index"].add_argument("--advice", required=True)
    irred["gen-advice"].add_argument("--seed", type=int, required=True)
    irred["gen-advice"].add_argument("--factors", type=int, nargs="+", default=None)

    bch = _actions(sub, "bch", "BCH generator / parity-check matrix access", _cmd_bch,
                   ("rows", "gen-entry", "pc-entry", "gen-matrix", "pc-matrix"))
    for name, sp in bch.items():
        sp.add_argument("--advice", required=True)
        sp.add_argument("--d", type=int, required=True)
        if name.endswith("-entry"):
            sp.add_argument("--row", type=int, required=True)
            sp.add_argument("--col", required=True)

    top = _actions(sub, "topheavy", "top-heavy canonical rotations (binary)", _cmd_topheavy,
                   ("check", "canon", "count"))
    top["check"].add_argument("word")
    top["canon"].add_argument("word")
    top["count"].add_argument("n", type=int)

    st = sub.add_parser("selftest", help="reduced oracle-equivalence suite")
    st.set_defaults(handler=_cmd_selftest)
    st.add_argument("--max-n", type=int, default=8)

    return parser


def main(argv=None):
    """Run one command and return its exit code; argparse exits by itself on --help and usage errors.

    CPython refuses int <-> str conversions past `sys.get_int_max_str_digits()`
    digits (4,300 by default) where that function exists.  A well-formed
    count or rank can be longer, so the limit is lifted for the call and
    restored after it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv):
    args = build_parser().parse_args(argv)
    try:
        inputs, result = args.handler(args)
        failed = isinstance(result, dict) and not result["ok"]  # a failed selftest
        if args.format_ == "json-lines":
            import json

            action = getattr(args, "action", None)
            op = args.command if action is None else f"{args.command}-{action}"
            print(json.dumps({"op": op, "inputs": inputs, "result": result}))
        else:
            if isinstance(result, dict):
                result = [*result["checks"], "FAILED" if failed else "OK"]
            for line in result if isinstance(result, list) else [result.rstrip("\n")]:
                print(line)  # rstrip: the advice file's text ends in a newline
        return 1 if failed else 0
    except (NecklaceError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidAdvice, BadFactorization)):
            return 3
        return 4 if isinstance(exc, TooBig) else 2


if __name__ == "__main__":
    sys.exit(main())
