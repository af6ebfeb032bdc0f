"""Per-layer tracing installed from outside the package.

Wraps public functions of the `necklaces` modules with timing spans or plain
call counters, and restores the originals on exit.  Nothing in `src/` is
edited: every wrapper is installed with `setattr` on the module (or class)
that callers look the name up in, including names that other modules
imported under their own binding.

A span records its inclusive duration; its self time is that duration minus
the time of the spans it directly caused.  A layer's inclusive time counts
only spans with no enclosing span of the same layer, so nested calls inside
one layer are not counted twice.
"""

import functools
import time
from collections import defaultdict

from necklaces import bch, counting, engine, gf, indexing, irreducible

# (owner, attribute, span name): functions timed with spans, the ones the
# per-layer metrics below are read from.
_SPANS = [
    (indexing, "index_necklace", "indexing.index_necklace"),
    (indexing, "index_lyndon", "indexing.index_lyndon"),
    (indexing, "reverse_index_necklace", "indexing.reverse_index_necklace"),
    (indexing, "reverse_index_lyndon", "indexing.reverse_index_lyndon"),
    (counting, "count_necklaces_below", "counting.count_necklaces_below"),
    (counting, "count_lyndon_below", "counting.count_lyndon_below"),
    (counting, "count_words_below_period_exact", "counting.count_words_below_period_exact"),
    (counting, "count_words_below_period_dividing",
     "counting.count_words_below_period_dividing"),
    (counting, "count_necklaces", "counting.count_necklaces"),
    (counting, "count_lyndon", "counting.count_lyndon"),
    (counting, "count_words_below_with_ceiling", "counting.count_words_below_with_ceiling"),
    (engine, "count_below", "engine.count_below"),
    (engine, "count_below_with_ceiling", "engine.count_below_with_ceiling"),
    (bch, "generator_row", "bch.generator_row"),
    (bch, "subfield_basis", "bch.subfield_basis"),
    (bch, "parity_row", "bch.parity_row"),
    (gf, "minimal_polynomial", "gf.minimal_polynomial"),
    (irreducible, "minimal_polynomial", "gf.minimal_polynomial"),
    (gf, "fq_kernel_basis", "gf.fq_kernel_basis"),
    (bch, "fq_kernel_basis", "gf.fq_kernel_basis"),
    (gf, "is_irreducible", "gf.is_irreducible"),
    (gf, "certify_primitive", "gf.certify_primitive"),
    (gf, "parse_advice", "gf.parse_advice"),
    (gf, "find_primitive_polynomial", "gf.find_primitive_polynomial"),
    (irreducible, "index_irreducible", "irreducible.index_irreducible"),
]

# Hot field operations are only counted: a span per call would swamp them.
_COUNTERS = [
    (gf.FqnCtx, "mul", "gf.fqn_mul"),
    (gf.FqnCtx, "pow", "gf.fqn_pow"),
    (gf, "frobenius", "gf.frobenius"),
    (bch, "frobenius", "gf.frobenius"),
]

_PROBES = ("counting.count_necklaces_below", "counting.count_lyndon_below")
_UNRANKS = ("indexing.index_necklace", "indexing.index_lyndon")


class Tracer:
    """Spans and counters collected while installed; see `install`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.layer_inclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.probes = 0
        self.memo_start = self.memo_end = None
        self._stack = []
        self._active = defaultdict(int)
        self._saved = []

    def _span(self, name, fn):
        layer = name.split(".", 1)[0]
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in _PROBES and any(active[u] for u in _UNRANKS):
                self.probes += 1
            outer_name = active[name] == 0
            outer_layer = active[layer] == 0
            active[name] += 1
            active[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.layer_calls[layer] += 1
                self.layer_self[layer] += dt - frame[0]
                if outer_name:
                    self.inclusive[name] += dt
                if outer_layer:
                    self.layer_inclusive[layer] += dt

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        self.memo_start = counting._count_dividing_cached.cache_info()
        for table, make in ((_SPANS, self._span), (_COUNTERS, self._counter)):
            for owner, attr, name in table:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.memo_end = counting._count_dividing_cached.cache_info()


# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move, on which workload).  Times and call counts are totals over one traced
# set-up and the first `digest_ops` operations of the run, so with one seed
# the counts repeat exactly.  Times here are raw wall time, not host-scaled.
LAYER_METRICS = [
    ("indexing.calls", "count", "lower", "unrank ops_per_s and latency_p50_ms; nothing on rank"),
    ("indexing.probes_per_unrank", "count", "lower",
     "unrank ops_per_s and latency_p50_ms; nothing on rank"),
    ("indexing.self_s", "s", "lower", "unrank ops_per_s and latency_p50_ms; nothing on rank"),
    ("counting.calls", "count", "lower", "unrank ops_per_s; peak_rss_mb on every workload"),
    ("counting.s", "s", "lower", "unrank ops_per_s; peak_rss_mb on every workload"),
    ("counting.self_s", "s", "lower", "unrank ops_per_s; peak_rss_mb on every workload"),
    ("counting.memo_hit_ratio", "ratio", "higher",
     "unrank ops_per_s; peak_rss_mb on every workload"),
    ("counting.memo_entries", "count", "lower", "unrank ops_per_s; peak_rss_mb on every workload"),
    ("engine.count_below.calls", "count", "lower",
     "latency_p50_ms on rank (most), on unrank, a little on field"),
    ("engine.count_below.s", "s", "lower",
     "latency_p50_ms on rank (most), on unrank, a little on field"),
    ("engine.count_below.ms_per_call", "ms", "lower",
     "latency_p50_ms on rank (most), on unrank, a little on field"),
    ("engine.count_below_with_ceiling.calls", "count", "lower", "gen-entry latency on field"),
    ("engine.count_below_with_ceiling.s", "s", "lower", "gen-entry latency on field"),
    ("bch.generator_row.calls", "count", "lower", "gen-entry latency on field"),
    ("bch.generator_row.s", "s", "lower", "gen-entry latency on field"),
    ("gf.fqn_mul.calls", "count", "lower", "field latency; nothing on unrank or rank"),
    ("gf.fqn_pow.calls", "count", "lower", "field latency; nothing on unrank or rank"),
    ("gf.frobenius.calls", "count", "lower", "field latency; nothing on unrank or rank"),
    ("gf.minimal_polynomial.s", "s", "lower", "field latency; nothing on unrank or rank"),
    ("gf.fq_kernel_basis.s", "s", "lower", "field latency; nothing on unrank or rank"),
    ("bch.subfield_basis.calls", "count", "lower", "field latency; nothing on unrank or rank"),
    ("bch.subfield_basis.s", "s", "lower", "field latency; nothing on unrank or rank"),
    ("bch.parity_row.s", "s", "lower", "field latency; nothing on unrank or rank"),
    ("irreducible.index_irreducible.s", "s", "lower", "field latency; nothing on unrank or rank"),
    ("gf.is_irreducible.calls", "count", "lower", "setup_s on field; latency_p50_ms on cli"),
    ("gf.is_irreducible.s", "s", "lower", "setup_s on field; latency_p50_ms on cli"),
    ("gf.certify_primitive.s", "s", "lower", "setup_s on field; latency_p50_ms on cli"),
    ("gf.parse_advice.s", "s", "lower", "setup_s on field; latency_p50_ms on cli"),
    ("gf.find_primitive_polynomial.s", "s", "lower", "setup_s on field; latency_p50_ms on cli"),
    ("cli.import_s", "s", "lower", "cli latency"),
    ("cli.main_s", "s", "lower", "cli latency"),
    ("trace.overhead_ratio", "ratio", "lower", "none: untraced over traced ops_per_s"),
]


def layer_metrics(tracer, extra):
    """Every per-layer metric from one traced phase; `extra` adds run-level ones."""
    calls, inclusive = tracer.calls, tracer.inclusive
    unranks = sum(calls[u] for u in _UNRANKS)
    below = calls["engine.count_below"]
    # The counting memo is left on, as a user's process has it.
    memo_hits = tracer.memo_end.hits - tracer.memo_start.hits
    lookups = memo_hits + tracer.memo_end.misses - tracer.memo_start.misses
    values = {
        "indexing.calls": tracer.layer_calls["indexing"],
        "indexing.probes_per_unrank": tracer.probes / unranks if unranks else 0.0,
        "indexing.self_s": tracer.layer_self["indexing"],
        "counting.calls": tracer.layer_calls["counting"],
        "counting.s": tracer.layer_inclusive["counting"],
        "counting.self_s": tracer.layer_self["counting"],
        "counting.memo_hit_ratio": memo_hits / lookups if lookups else 0.0,
        "counting.memo_entries": tracer.memo_end.currsize,
        "engine.count_below.calls": below,
        "engine.count_below.s": inclusive["engine.count_below"],
        "engine.count_below.ms_per_call":
            1000.0 * inclusive["engine.count_below"] / below if below else 0.0,
        "engine.count_below_with_ceiling.calls": calls["engine.count_below_with_ceiling"],
        "engine.count_below_with_ceiling.s": inclusive["engine.count_below_with_ceiling"],
        "bch.generator_row.calls": calls["bch.generator_row"],
        "bch.generator_row.s": inclusive["bch.generator_row"],
        "gf.fqn_mul.calls": calls["gf.fqn_mul"],
        "gf.fqn_pow.calls": calls["gf.fqn_pow"],
        "gf.frobenius.calls": calls["gf.frobenius"],
        "gf.minimal_polynomial.s": inclusive["gf.minimal_polynomial"],
        "gf.fq_kernel_basis.s": inclusive["gf.fq_kernel_basis"],
        "bch.subfield_basis.calls": calls["bch.subfield_basis"],
        "bch.subfield_basis.s": inclusive["bch.subfield_basis"],
        "bch.parity_row.s": inclusive["bch.parity_row"],
        "irreducible.index_irreducible.s": inclusive["irreducible.index_irreducible"],
        "gf.is_irreducible.calls": calls["gf.is_irreducible"],
        "gf.is_irreducible.s": inclusive["gf.is_irreducible"],
        "gf.certify_primitive.s": inclusive["gf.certify_primitive"],
        "gf.parse_advice.s": inclusive["gf.parse_advice"],
        "gf.find_primitive_polynomial.s": inclusive["gf.find_primitive_polynomial"],
    }
    values.update(extra)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _moves in LAYER_METRICS
    }
