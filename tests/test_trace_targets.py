"""The benchmark's span tracer patches names by (module, attribute); each
one must still exist, or ``bench/run.py --trace 1`` fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _name, kind in tracing.TARGETS:
        yield module_name, attr, kind, getattr(importlib.import_module(module_name), attr)


def test_every_trace_target_resolves():
    for module_name, attr, _kind, target in _targets():
        assert callable(target), (module_name, attr)


def test_every_trace_target_has_its_kind():
    """A ``gen`` wrapper drives its target with ``next()`` and the
    ``bijection`` wrapper passes ``_nodes``, so a target that stops being a
    generator, or loses that keyword, breaks the traced run only."""
    for module_name, attr, kind, target in _targets():
        if kind == "gen":
            assert inspect.isgeneratorfunction(target), (module_name, attr)
        elif kind == "bijection":
            assert "_nodes" in inspect.signature(target).parameters, (module_name, attr)


def test_poset_tables_are_looked_up_through_module_globals(monkeypatch):
    """``topology.poset_table`` wraps ``_posets_with_up_set_count`` by
    patching the module attribute, so the walk must call it by that name."""
    from tiasl import topology

    calls = []
    original = topology._posets_with_up_set_count

    def wrapper(c, k):
        calls.append((c, k))
        return original(c, k)

    monkeypatch.setattr(topology, "_posets_with_up_set_count", wrapper)
    assert sum(1 for _ in topology._abstract_open_masks(3, 4)) == 9
    assert calls == [(2, 4), (3, 4)]


def test_every_topology_stream_of_the_search_is_traced():
    """``topology.families`` and ``search.family_use_ratio`` count the
    families the search streams, so every generator that ``tiasl.search``
    takes from ``tiasl.topology`` must be wrapped as its ``gen`` target."""
    from tiasl import search

    traced = {
        attr
        for module_name, attr, kind, _target in _targets()
        if module_name == "tiasl.search" and kind == "gen"
    }
    streams = {
        name
        for name, value in vars(search).items()
        if inspect.isgeneratorfunction(value) and value.__module__ == "tiasl.topology"
    }
    assert "_abstract_open_masks" in streams
    assert streams <= traced, streams - traced
