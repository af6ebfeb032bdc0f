"""The benchmark's tracer still finds and wraps the package's entry points.

`bench/tracing.py` installs its wrappers by looking names up with
`owner.__dict__[attr]`, so renaming or removing a traced function breaks
`bench/run.py --trace 1`.  This test imports the tracer unchanged and runs
one traced rank.
"""

import importlib
from pathlib import Path

from necklaces import counting, engine, indexing
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
