"""The benchmark's tracer still finds and wraps the package's entry points.

`bench/tracing.py` installs its wrappers by looking names up with
`owner.__dict__[attr]`, so renaming or removing a traced function breaks
`bench/run.py --trace 1`.  This test imports the tracer unchanged and runs
one traced rank, one traced unrank of each kind and one traced operation of
each kind on the field layer.
"""

import importlib
import sys
from pathlib import Path

from necklaces import bch, counting, engine, gf, indexing, irreducible
from necklaces.words import NkString

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_count_below(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    original = engine.count_below
    counting.clear_caches()  # a memo hit would skip the engine
    tracer = tracing.Tracer()
    tracer.install()
    try:
        indexing.reverse_index_necklace(NkString(12, 2, (0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1)))
    finally:
        tracer.uninstall()
    assert tracer.calls["engine.count_below"] >= 1
    assert tracer.memo_end is not None
    assert engine.count_below is original


def test_traced_rank_builds_one_table_inside_count_below(monkeypatch):
    """A threshold's engine work is one table, built by the traced `engine.count_below`."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    table, callers = engine.count_below_by_period, []

    def recording(*args):
        callers.append(sys._getframe(1).f_code)
        return table(*args)

    monkeypatch.setattr(engine, "count_below_by_period", recording)
    counting.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        indexing.reverse_index_necklace(NkString(12, 2, (0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1)))
    finally:
        tracer.uninstall()
    assert callers == [engine.count_below.__code__]
    assert tracer.calls["engine.count_below"] == 1


def test_tracer_counts_unrank_probes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        indexing.index_necklace(32, 2, 12345)
        necklace_probes = tracer.probes
        indexing.index_lyndon(32, 2, 12345)
    finally:
        tracer.uninstall()
    assert necklace_probes >= 1
    assert tracer.probes > necklace_probes
    assert tracer.calls["indexing.index_necklace"] == 1
    assert tracer.calls["indexing.index_lyndon"] == 1


def test_tracer_probes_are_the_search_probes(monkeypatch):
    """`probes` counts exactly the calls of the `below` that `indexing._search` receives."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    search, calls = indexing._search, []

    def spied(n, q, j, below, *args):
        def counted(x):
            calls.append(x)
            return below(x)
        return search(n, q, j, counted, *args)

    monkeypatch.setattr(indexing, "_search", spied)
    for unrank in ("index_necklace", "index_lyndon"):
        calls.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            getattr(indexing, unrank)(32, 2, 12345)  # the traced binding
        finally:
            tracer.uninstall()
        assert calls and tracer.probes == len(calls), (unrank, tracer.probes, len(calls))


def test_tracer_counts_the_field_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    base = gf.default_fq_ctx(2)
    # At n = 6 every unrank closes on the run head's closed forms and a
    # walk, with no one-sided count; index 17 at n = 8 takes one.
    fctx = gf.find_primitive_polynomial(base, 8, gf.factorize(255), 1)
    original_mul, original_frobenius = gf.FqnCtx.__dict__["mul"], bch.frobenius
    tracer = tracing.Tracer()
    tracer.install()
    try:
        irreducible.index_irreducible(fctx, 17)
        params = bch.BchParams(fctx, 200)
        bch.generator_entry(params, 3, fctx.element_from_int(9))
        bch.parity_entry(params, 3, fctx.element_from_int(9))
    finally:
        tracer.uninstall()
    for name in ("gf.minimal_polynomial", "bch.subfield_basis", "gf.fq_kernel_basis",
                 "gf.frobenius", "gf.fqn_pow", "engine.count_below_with_ceiling",
                 "engine.count_below"):
        assert tracer.calls[name] >= 1, name
    assert gf.FqnCtx.__dict__["mul"] is original_mul
    assert bch.frobenius is original_frobenius
