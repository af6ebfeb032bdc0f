"""The benchmark's four workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller.  Its inputs are drawn from a
seeded stream, round-robin over the workload's slices (one slice is one
operation at one size), and no input repeats within a run, so that the
package's own memo never answers a timed operation outright.

A workload provides:

* ``prepare(rep)``: per-set-up work (advice generation and verification);
* ``draw(rng, slice)``: one input for a slice, and ``key(item)``, the value
  that must not repeat;
* ``run(item)``: the operation as a user calls it; returns the raw result;
* ``render(item, result)``: the answer as text, for the digest;
* ``check(items, results, rng)``: indices of answers that fail a check;
* ``sweep()``: names of failed checks in a small-size sweep against
  ``necklaces.oracle``.
"""

import contextlib
import io
import os
import subprocess
import sys

from necklaces import bch, cli, counting, gf, indexing, irreducible, oracle
from necklaces.words import NkString, format_word, fundamental_period, min_rotation

ADVICE_SEED = 1  # fixed: advice is configuration, not a seeded input


def make_advice(q, n):
    """Generate advice for F_{q^n}, then verify it the way a user loads it."""
    base = gf.default_fq_ctx(q)
    factors = gf.factorize(q**n - 1)
    found = gf.find_primitive_polynomial(base, n, factors, ADVICE_SEED)
    text = gf.format_advice(found, factors=factors)
    return gf.parse_advice(text), text


def is_min_rotation(word):
    return min_rotation(word)[0].digits == word.digits


class Workload:
    name = ""
    slices = ()
    digest_ops = 0  # operations covered by the answer digest and the traced phase

    def prepare(self, rep):
        pass

    def key(self, item):
        return item

    def render(self, item, result):
        return str(result)

    def check(self, items, results, rng):
        return set()

    def sweep(self):
        return []


# ---------------------------------------------------------------------------
# unrank: bisection over n*log2(q) full counts per operation


class Unrank(Workload):
    """index_necklace / index_lyndon at seeded random ranks."""

    name = "unrank"
    # (32, 2) and (10, 2**26) cost about the same per operation, so the
    # median does not sit between two size classes.
    slices = (
        ("necklace", 32, 2),
        ("necklace", 10, 2**26),
        ("lyndon", 32, 2),
        ("lyndon", 10, 2**26),
    )
    digest_ops = 8

    def __init__(self):
        self.totals = {}

    def prepare(self, rep):
        for kind, n, q in self.slices:
            count = counting.count_necklaces if kind == "necklace" else counting.count_lyndon
            self.totals[kind, n, q] = count(n, q)

    def draw(self, rng, sl):
        return sl + (rng.randint(1, self.totals[sl]),)

    def run(self, item):
        kind, n, q, j = item
        unrank = indexing.index_necklace if kind == "necklace" else indexing.index_lyndon
        return unrank(n, q, j)

    def render(self, item, result):
        return format_word(result)

    def check(self, items, results, rng):
        bad = set()
        for i, ((kind, n, q, _j), word) in enumerate(zip(items, results)):
            if word is indexing.TOO_LARGE or word.n != n or word.q != q:
                bad.add(i)
            elif not is_min_rotation(word):
                bad.add(i)
            elif kind == "lyndon" and fundamental_period(word) != n:
                bad.add(i)
        sample = [i for i in range(len(items)) if i not in bad]
        for i in rng.sample(sample, min(8, len(sample))):
            kind, _n, _q, j = items[i]
            rank = (indexing.reverse_index_necklace if kind == "necklace"
                    else indexing.reverse_index_lyndon)
            if rank(results[i]).rank != j:
                bad.add(i)
        return bad

    def sweep(self):
        failed = []
        for n, q in ((8, 2), (4, 3), (3, 4)):
            orbits = oracle.brute_orbits(n, q)
            necklaces = [rep.digits for rep, _ in orbits]
            lyndons = [rep.digits for rep, size in orbits if size == n]
            got = [indexing.index_necklace(n, q, j).digits for j in range(1, len(necklaces) + 1)]
            if got != necklaces or indexing.index_necklace(n, q, len(necklaces) + 1):
                failed.append(f"index_necklace n={n} q={q}")
            got = [indexing.index_lyndon(n, q, j).digits for j in range(1, len(lyndons) + 1)]
            if got != lyndons or indexing.index_lyndon(n, q, len(lyndons) + 1):
                failed.append(f"index_lyndon n={n} q={q}")
        return failed


# ---------------------------------------------------------------------------
# rank: one count on a canonical threshold per operation, no bisection


class Rank(Workload):
    """reverse_index_necklace / reverse_index_lyndon on distinct random words."""

    name = "rank"
    # (80, 2) and (56, 2**16) cost about the same per operation.
    slices = (
        ("necklace", 80, 2),
        ("necklace", 56, 2**16),
        ("lyndon", 80, 2),
        ("lyndon", 56, 2**16),
    )
    digest_ops = 8

    def __init__(self):
        self.totals = {}

    def prepare(self, rep):
        for kind, n, q in self.slices:
            count = counting.count_necklaces if kind == "necklace" else counting.count_lyndon
            self.totals[kind, n, q] = count(n, q)

    def draw(self, rng, sl):
        kind, n, q = sl
        while True:
            word = NkString(n, q, tuple(rng.randrange(q) for _ in range(n)))
            # Lyndon ranking needs an aperiodic word; random words almost
            # always are.
            if kind == "necklace" or fundamental_period(word) == n:
                return sl + (word,)

    def key(self, item):
        # A word ranked both ways, or two words with one canonical form,
        # would be answered by the shared memo; canonical forms never repeat.
        return min_rotation(item[3])[0].digits

    def run(self, item):
        kind, _n, _q, word = item
        rank = (indexing.reverse_index_necklace if kind == "necklace"
                else indexing.reverse_index_lyndon)
        return rank(word)

    def render(self, item, result):
        return f"{result.rank} {format_word(result.canonical)}"

    def check(self, items, results, rng):
        bad = set()
        groups = {}
        for i, ((kind, n, q, word), res) in enumerate(zip(items, results)):
            if res.canonical.digits != min_rotation(word)[0].digits:
                bad.add(i)
            elif not 1 <= res.rank <= self.totals[kind, n, q]:
                bad.add(i)
            else:
                groups.setdefault((kind, n, q), []).append(i)
        # Ranks must increase strictly with the canonical word.
        for members in groups.values():
            members.sort(key=lambda i: results[i].canonical.digits)
            for a, b in zip(members, members[1:]):
                if results[a].rank >= results[b].rank:
                    bad.update((a, b))
        return bad

    def sweep(self):
        failed = []
        for n, q in ((8, 2), (4, 3), (3, 4)):
            orbits = oracle.brute_orbits(n, q)
            rank_of = {rep.digits: j for j, (rep, _) in enumerate(orbits, start=1)}
            lyndon_rank = {}
            for rep, size in orbits:
                if size == n:
                    lyndon_rank[rep.digits] = len(lyndon_rank) + 1
            for word in oracle.all_words(n, q):
                canon = min_rotation(word)[0].digits
                if indexing.reverse_index_necklace(word).rank != rank_of[canon]:
                    failed.append(f"reverse_index_necklace {format_word(word)} q={q}")
                if canon in lyndon_rank and (
                        indexing.reverse_index_lyndon(word).rank != lyndon_rank[canon]):
                    failed.append(f"reverse_index_lyndon {format_word(word)} q={q}")
        return failed


# ---------------------------------------------------------------------------
# field: irreducible indexing and BCH entries over generated advice


class Field(Workload):
    """index_irreducible, generator_entry and parity_entry over seeded i, d, row, col."""

    name = "field"
    # Advice for these three fields is generated and verified at every
    # set-up, which bounds their size.  Parity entries use the highest degree.
    # Of the five slices two cost less and two more than irred over
    # (2**16)^3, whose narrow spread then holds the median steady.
    fields = ((2, 20), (2**16, 3), (4, 6))
    slices = (
        ("irred", (2, 20)),
        ("irred", (2**16, 3)),
        ("gen", (2**16, 3)),
        ("gen", (4, 6)),
        ("pc", (2, 20)),
    )
    digest_ops = 10

    def __init__(self):
        self.ctx = {}
        self.irred_total = {}
        self.rows = {}

    def prepare(self, rep):
        for q, n in self.fields:
            self.ctx[q, n], _text = make_advice(q, n)
        for op, (q, n) in self.slices:
            fctx = self.ctx[q, n]
            if op == "irred":
                self.irred_total[q, n] = irreducible.count_irreducible(q, n)
            else:
                # d is drawn from [d0, q^n - 2]; rows are drawn among those that
                # exist at d0, which exist at every larger d too.
                d0 = q**n - q**(n - 1)
                params = bch.BchParams(fctx, d0)
                count = bch.generator_row_count if op == "gen" else bch.parity_row_count
                self.rows[op, q, n] = (d0, count(params))

    def draw(self, rng, sl):
        op, (q, n) = sl
        if op == "irred":
            return sl + (rng.randint(1, self.irred_total[q, n]),)
        d0, rows = self.rows[op, q, n]
        d = rng.randint(d0, q**n - 2)
        r = rng.randint(1, rows)
        col = rng.randrange(q**n) if op == "gen" else rng.randrange(1, q**n)
        return sl + (d, r, col)

    def key(self, item):
        op = item[0]
        if op == "gen":
            return item[:3]  # row search is cached per (threshold, d)
        if op == "pc":
            return item[:2] + (item[3],)  # the parity row search ignores d
        return item

    def run(self, item):
        op, qn = item[0], item[1]
        fctx = self.ctx[qn]
        if op == "irred":
            return irreducible.index_irreducible(fctx, item[2])
        d, r, col = item[2:]
        params = bch.BchParams(fctx, d)
        alpha = fctx.element_from_int(col)
        if op == "gen":
            return bch.generator_entry(params, r, alpha)
        return bch.parity_entry(params, r, alpha)

    def render(self, item, result):
        if item[0] == "irred":
            return irreducible.format_poly(self.ctx[item[1]], result)
        return repr(result)

    def check(self, items, results, rng):
        bad = set()
        seen = {}
        for i, (item, res) in enumerate(zip(items, results)):
            op, (q, n) = item[0], item[1]
            fctx = self.ctx[q, n]
            base = fctx.base
            if op == "irred":
                ok = (len(res) == n + 1 and res[-1] == base.one
                      and gf.is_irreducible(base, res))
                previous = seen.setdefault((q, n, res), i)
                if previous != i:
                    bad.update((previous, i))
            elif op == "gen":
                ok = _is_fq_element(base, res)
            else:
                ok = self._check_parity(fctx, item, res)
            if not ok:
                bad.add(i)
        return bad

    @staticmethod
    def _check_parity(fctx, item, value):
        """value is alpha^m for the verified minimum m <= d of row r's orbit."""
        _op, (q, n), d, r, col = item
        m = bch.parity_row(bch.BchParams(fctx, d), r).m
        word = NkString.from_int(n, q, m)
        return (m <= d and is_min_rotation(word)
                and counting.count_necklaces_below(word) == r - 1
                and value == fctx.pow(fctx.element_from_int(col), m))

    def sweep(self):
        failed = []
        for q, n in ((2, 6), (4, 3), (3, 3)):
            fctx, _text = make_advice(q, n)
            got = {irreducible.index_irreducible(fctx, i)
                   for i in range(1, irreducible.count_irreducible(q, n) + 1)}
            # Compared as sets: the oracle's own order is not the reference.
            if got != set(oracle.brute_irreducibles(q, n)):
                failed.append(f"index_irreducible q={q} n={n}")
            for d in (1, q**n // 3, q**n - q**(n - 1), q**n - 2):
                params = bch.BchParams(fctx, d)
                rows, count = bch.brute_generator_rows(params)
                if count != bch.generator_row_count(params) or rows != [
                        bch.generator_row(params, r) for r in range(1, count + 1)]:
                    failed.append(f"generator rows q={q} n={n} d={d}")
                orbits = bch.brute_parity_orbits(params)
                if orbits != [bch.parity_row(params, r) for r in range(1, len(orbits) + 1)]:
                    failed.append(f"parity rows q={q} n={n} d={d}")
        return failed


def _is_fq_element(base, value):
    return (isinstance(value, tuple) and len(value) <= base.e
            and all(0 <= c < base.p for c in value) and (not value or value[-1] != 0))


# ---------------------------------------------------------------------------
# cli: one `python -m necklaces.cli` process per operation


_TOPHEAVY_PRIMES = (53, 59, 61, 67, 71, 73)


class Cli(Workload):
    """A fixed mix of CLI commands at small sizes, one process at a time."""

    name = "cli"
    advice_field = (2, 16)
    # irred-index, the slowest command, runs twice a round: its share of the
    # samples then exceeds the ten beyond the tail percentile, which keeps
    # the tail inside one command's distribution.
    slices = ("necklace-index", "necklace-rank", "lyndon-index", "irred-index",
              "bch-pc-entry", "topheavy-count", "irred-index")
    digest_ops = 14

    def __init__(self, root, workdir):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.advice_path = os.path.join(workdir, "advice.txt")
        self.in_process = False

    def prepare(self, rep):
        self.necklaces = counting.count_necklaces(24, 2)
        self.lyndons = counting.count_lyndon(24, 2)
        q, n = self.advice_field
        self.fctx, text = make_advice(q, n)
        self.irred_total = irreducible.count_irreducible(q, n)
        self.pc_d0 = q**n - q**(n - 1)
        self.pc_rows = bch.parity_row_count(bch.BchParams(self.fctx, self.pc_d0))
        with open(self.advice_path, "w", encoding="ascii") as fh:
            fh.write(text)

    def draw(self, rng, kind):
        q, n = self.advice_field
        if kind == "necklace-index":
            argv = ("necklace", "index", "24", "2", str(rng.randint(1, self.necklaces)))
        elif kind == "lyndon-index":
            argv = ("lyndon", "index", "24", "2", str(rng.randint(1, self.lyndons)))
        elif kind == "necklace-rank":
            word = "".join(rng.choice("01") for _ in range(40))
            argv = ("necklace", "rank", word, "--q", "2")
        elif kind == "irred-index":
            argv = ("irred", "index", str(q), str(n), str(rng.randint(1, self.irred_total)),
                    "--advice", "ADVICE")
        elif kind == "bch-pc-entry":
            col = rng.randrange(1, q**n)
            col_text = ":".join(str(col >> k & 1) for k in range(n))
            argv = ("bch", "pc-entry", "--advice", "ADVICE",
                    "--d", str(rng.randint(self.pc_d0, q**n - 2)),
                    "--row", str(rng.randint(1, self.pc_rows)), "--col", col_text)
        else:
            argv = ("topheavy", "count", str(rng.choice(_TOPHEAVY_PRIMES)))
        return (kind,) + argv

    def key(self, item):
        if item[0] == "topheavy-count":
            return None  # keeps no state between calls, so sizes may recur
        if item[0] == "necklace-rank":
            return min_rotation(NkString(40, 2, tuple(int(c) for c in item[3])))[0].digits
        if item[0] == "bch-pc-entry":
            return item[:1] + item[8:9]  # the parity row search ignores d
        return item

    def argv(self, item):
        return [self.advice_path if a == "ADVICE" else a for a in item[1:]]

    def run(self, item):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(item))
            out = buf.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "necklaces.cli", *self.argv(item)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=120, check=False)
            code, out = proc.returncode, proc.stdout
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out

    def check(self, items, results, rng):
        bad = set()
        irreducibles = {}
        for i, (item, out) in enumerate(zip(items, results)):
            try:
                ok = self._check_one(item, out.strip())
            except ValueError:  # output that does not parse is a wrong answer
                ok = False
            if item[0] == "irred-index" and ok:
                ok = irreducibles.setdefault(out, i) == i
            if not ok:
                bad.add(i)
        return bad

    def _check_one(self, item, text):
        kind = item[0]
        q, n = self.advice_field
        if kind in ("necklace-index", "lyndon-index"):
            word = NkString(24, 2, tuple(int(c) for c in text))
            rank = (indexing.reverse_index_necklace if kind == "necklace-index"
                    else indexing.reverse_index_lyndon)
            return is_min_rotation(word) and rank(word).rank == int(item[5])
        if kind == "necklace-rank":
            rank_text, canon = text.split()
            res = indexing.reverse_index_necklace(NkString(40, 2, tuple(int(c) for c in item[3])))
            return int(rank_text) == res.rank and canon == format_word(res.canonical)
        if kind == "irred-index":
            poly = tuple(gf.pstrip(self.fctx.base.base, (int(c),)) for c in text.split())
            return len(poly) == n + 1 and gf.is_irreducible(self.fctx.base, poly)
        if kind == "bch-pc-entry":
            d, r = int(item[6]), int(item[8])
            col = int("".join(reversed(item[10].split(":"))), 2)
            coeffs = tuple(gf.pstrip(self.fctx.base.base, (int(c),)) for c in text.split(":"))
            value = gf.pstrip(self.fctx.base, coeffs)
            return Field._check_parity(self.fctx, ("pc", (q, n), d, r, col), value)
        return int(text) == counting.count_necklaces(int(item[3]), 2)

    def sweep(self):
        from necklaces import topheavy

        failed = []
        for p in (2, 3, 5, 7, 11, 13):
            if topheavy.count_top_heavy(p) != len(oracle.brute_orbits(p, 2)):
                failed.append(f"count_top_heavy n={p}")
        return failed + Unrank().sweep()


def make(name, root, workdir):
    if name == "cli":
        return Cli(root, workdir)
    return {"unrank": Unrank, "rank": Rank, "field": Field}[name]()


NAMES = ("unrank", "rank", "field", "cli")
