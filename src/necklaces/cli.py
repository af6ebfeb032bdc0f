"""Command-line interface.

Line-oriented, deterministic output; --format json-lines emits one JSON
object per result instead.  Exit codes: 0 success (including TOO_LARGE,
which is a valid answer), 2 malformed input, 3 invalid advice, 4 guardrail
exceeded.

Subcommand modules are imported in their handlers so that a process pays
only for what it runs; the import-guard test in tests/test_cli.py enforces
this.
"""

import argparse
import sys

from . import counting, indexing
from .errors import (
    BadFactorization,
    InvalidAdvice,
    NecklaceError,
    TooBig,
)
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


class _Output:
    def __init__(self, mode):
        self.mode = mode

    def emit(self, op, inputs, result):
        if self.mode == "json-lines":
            import json

            print(json.dumps({"op": op, "inputs": inputs, "result": result}))
        else:
            if isinstance(result, list):
                for line in result:
                    print(line)
            else:
                print(result)


def _load_advice(filename):
    from . import gf

    try:
        return gf.load_advice(filename)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidAdvice(f"cannot read advice file: {exc}") from exc


def _cmd_necklace(args, out):
    if args.action == "count":
        t = counting.count_necklaces(args.n, args.q)
        a = counting.count_lyndon(args.n, args.q)
        out.emit("necklace-count", {"n": args.n, "q": args.q}, f"{t} {a}")
    elif args.action == "index":
        got = indexing.index_necklace(args.n, args.q, args.j)
        text = "TOO_LARGE" if got is TOO_LARGE else format_word(got)
        out.emit("necklace-index", {"n": args.n, "q": args.q, "j": args.j}, text)
    else:
        word = parse_word(args.word, args.q)
        res = indexing.reverse_index_necklace(word)
        out.emit(
            "necklace-rank",
            {"word": args.word, "q": args.q},
            f"{res.rank} {format_word(res.canonical)}",
        )


def _cmd_lyndon(args, out):
    if args.action == "index":
        got = indexing.index_lyndon(args.n, args.q, args.j)
        text = "TOO_LARGE" if got is TOO_LARGE else format_word(got)
        out.emit("lyndon-index", {"n": args.n, "q": args.q, "j": args.j}, text)
    else:
        word = parse_word(args.word, args.q)
        res = indexing.reverse_index_lyndon(word)
        out.emit(
            "lyndon-rank",
            {"word": args.word, "q": args.q},
            f"{res.rank} {format_word(res.canonical)}",
        )


def _cmd_classes_less(args, out):
    word = parse_word(args.word, args.q)
    if args.period is None:
        result = str(counting.count_necklaces_below(word))
    else:
        exact = counting.count_words_below_period_exact(word, args.period)
        leq = counting.count_words_below_period_dividing(word, args.period)
        result = f"{exact} {leq}"
    out.emit(
        "classes-less",
        {"word": args.word, "q": args.q, "period": args.period},
        result,
    )


def _cmd_irred(args, out):
    from . import gf, irreducible

    p, e = _parse_qspec(args.qspec)
    q = p**e
    if args.action == "count":
        out.emit(
            "irred-count",
            {"q": q, "n": args.n},
            str(irreducible.count_irreducible(q, args.n)),
        )
        return
    if args.action == "gen-advice":
        gf.check_degree(args.n)  # before q^n - 1 is factored
        order = q**args.n - 1
        if not args.factors and order > gf._AUTO_FACTOR_LIMIT:
            raise TooBig("q^n - 1 is too large to factor here; supply it with --factors")
        base = gf.default_fq_ctx(q)
        factors = args.factors if args.factors else gf.factorize(order)
        fctx = gf.find_primitive_polynomial(base, args.n, factors, args.seed)
        text = gf.format_advice(fctx, factors=factors)
        out.emit(
            "irred-gen-advice",
            {"q": q, "n": args.n, "seed": args.seed},
            text.rstrip("\n").split("\n") if out.mode == "text" else text,
        )
        return
    fctx = _load_advice(args.advice)
    if fctx.q != q or fctx.n != args.n:
        raise InvalidAdvice(
            f"advice describes q={fctx.q}, n={fctx.n}; requested q={q}, n={args.n}"
        )
    got = irreducible.index_irreducible(fctx, args.i)
    text = "TOO_LARGE" if got is TOO_LARGE else irreducible.format_poly(fctx, got)
    out.emit("irred-index", {"q": q, "n": args.n, "i": args.i}, text)


def _cmd_bch(args, out):
    from . import bch, gf

    fctx = _load_advice(args.advice)
    params = bch.BchParams(fctx, args.d)
    inputs = {"q": fctx.q, "n": fctx.n, "d": args.d}
    if args.action == "rows":
        result = f"{bch.generator_row_count(params)} {bch.parity_row_count(params)}"
        out.emit("bch-rows", inputs, result)
        return
    if args.action == "gen-entry":
        alpha = _parse_element(fctx, args.col)
        value = bch.generator_entry(params, args.row, alpha)
        out.emit("bch-gen-entry", {**inputs, "row": args.row, "col": args.col},
                 gf.format_fq(fctx.base, value))
        return
    if args.action == "pc-entry":
        alpha = _parse_element(fctx, args.col)
        value = bch.parity_entry(params, args.row, alpha)
        out.emit("bch-pc-entry", {**inputs, "row": args.row, "col": args.col},
                 _format_element(fctx, value))
        return
    columns = fctx.q**fctx.n
    if columns > bch.MATRIX_COLUMN_LIMIT:
        raise TooBig(f"{columns} columns exceed the full-matrix limit")
    if args.action == "gen-matrix":
        lines = []
        cols = [bch.column_element(fctx, c) for c in range(columns)]
        for r in range(1, bch.generator_row_count(params) + 1):
            row = bch.generator_row(params, r)
            lines.append(" ".join(gf.format_fq(fctx.base, bch.generator_value(fctx, row, a))
                                  for a in cols))
        out.emit("bch-gen-matrix", inputs, lines)
        return
    lines = []
    cols = [bch.nonzero_column_element(fctx, c) for c in range(columns - 1)]
    for r in range(1, bch.parity_row_count(params) + 1):
        orbit = bch.parity_row(params, r)
        lines.append(" ".join(_format_element(fctx, bch.parity_value(fctx, orbit, a))
                              for a in cols))
    out.emit("bch-pc-matrix", inputs, lines)


def _cmd_topheavy(args, out):
    from . import topheavy

    if args.action == "check":
        word = parse_word(args.word, 2)
        out.emit(
            "topheavy-check",
            {"word": args.word},
            "true" if topheavy.is_top_heavy(word) else "false",
        )
    elif args.action == "canon":
        word = parse_word(args.word, 2)
        shift = topheavy.top_heavy_rotation(word)
        out.emit(
            "topheavy-canon",
            {"word": args.word},
            f"{shift} {format_word(rotate(word, shift))}",
        )
    else:
        out.emit("topheavy-count", {"n": args.n}, str(topheavy.count_top_heavy(args.n)))


def _cmd_selftest(args, out):
    from . import oracle

    ok, lines = oracle.selftest(max_n_binary=args.max_n)
    if out.mode == "json-lines":
        out.emit("selftest", {"max_n": args.max_n}, {"ok": ok, "checks": lines})
    else:
        for line in lines:
            print(line)
        print("OK" if ok else "FAILED")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="necklaces",
        description="Rank/unrank necklaces and Lyndon words; index irreducible "
        "polynomials; compute BCH matrix entries.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        dest="format_",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    neck = sub.add_parser("necklace", help="necklace counting, indexing, ranking")
    neck_sub = neck.add_subparsers(dest="action", required=True)
    pc = neck_sub.add_parser("count")
    pc.add_argument("n", type=int)
    pc.add_argument("q", type=int)
    pi = neck_sub.add_parser("index")
    pi.add_argument("n", type=int)
    pi.add_argument("q", type=int)
    pi.add_argument("j", type=int)
    pr = neck_sub.add_parser("rank")
    pr.add_argument("word")
    pr.add_argument("--q", type=int, required=True)

    lyn = sub.add_parser("lyndon", help="Lyndon word indexing and ranking")
    lyn_sub = lyn.add_subparsers(dest="action", required=True)
    li = lyn_sub.add_parser("index")
    li.add_argument("n", type=int)
    li.add_argument("q", type=int)
    li.add_argument("j", type=int)
    lr = lyn_sub.add_parser("rank")
    lr.add_argument("word")
    lr.add_argument("--q", type=int, required=True)

    cl = sub.add_parser("classes-less", help="orbits or words below a threshold word")
    cl.add_argument("word")
    cl.add_argument("--q", type=int, required=True)
    cl.add_argument("--period", type=int, default=None)

    irr = sub.add_parser("irred", help="irreducible polynomial indexing")
    irr_sub = irr.add_subparsers(dest="action", required=True)
    ic = irr_sub.add_parser("count")
    ic.add_argument("qspec")
    ic.add_argument("n", type=int)
    ii = irr_sub.add_parser("index")
    ii.add_argument("qspec")
    ii.add_argument("n", type=int)
    ii.add_argument("i", type=int)
    ii.add_argument("--advice", required=True)
    ig = irr_sub.add_parser("gen-advice")
    ig.add_argument("qspec")
    ig.add_argument("n", type=int)
    ig.add_argument("--seed", type=int, required=True)
    ig.add_argument("--factors", type=int, nargs="+", default=None)

    bh = sub.add_parser("bch", help="BCH generator / parity-check matrix access")
    bh_sub = bh.add_subparsers(dest="action", required=True)
    for name, needs_rc in (
        ("rows", False),
        ("gen-entry", True),
        ("pc-entry", True),
        ("gen-matrix", False),
        ("pc-matrix", False),
    ):
        sp = bh_sub.add_parser(name)
        sp.add_argument("--advice", required=True)
        sp.add_argument("--d", type=int, required=True)
        if needs_rc:
            sp.add_argument("--row", type=int, required=True)
            sp.add_argument("--col", required=True)

    th = sub.add_parser("topheavy", help="top-heavy canonical rotations (binary)")
    th_sub = th.add_subparsers(dest="action", required=True)
    tc = th_sub.add_parser("check")
    tc.add_argument("word")
    tn = th_sub.add_parser("canon")
    tn.add_argument("word")
    tt = th_sub.add_parser("count")
    tt.add_argument("n", type=int)

    st = sub.add_parser("selftest", help="reduced oracle-equivalence suite")
    st.add_argument("--max-n", type=int, default=8)

    return parser


_DISPATCH = {
    "necklace": _cmd_necklace,
    "lyndon": _cmd_lyndon,
    "classes-less": _cmd_classes_less,
    "irred": _cmd_irred,
    "bch": _cmd_bch,
    "topheavy": _cmd_topheavy,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.format_)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args, out)
        _DISPATCH[args.command](args, out)
        return 0
    except (InvalidAdvice, BadFactorization) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TooBig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NecklaceError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
