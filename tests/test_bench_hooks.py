"""The benchmark's tracer wraps library names where the calling modules
bound them (``perfbench/layers.py``).  Installing it here makes a change
under ``src/`` that drops a wrapped name fail these tests, not only a
traced benchmark run.  ``perfbench/`` is only read."""

import os

from diamwidth import atlas, containment


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import layers
    from tracer import Tracer

    before = (atlas.classify, atlas.cycle_packing, containment.find_induced_path)
    tr = Tracer()
    try:
        layers.install(tr)
        assert atlas.classify is not before[0]
    finally:
        tr.restore()
    assert (atlas.classify, atlas.cycle_packing, containment.find_induced_path) == before
