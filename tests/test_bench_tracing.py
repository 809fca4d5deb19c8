"""The benchmark's tracer wraps scalesim entry points by owner and attribute
name. Each one must be an attribute its owner defines itself: for a missing
one the traced benchmark stops with a KeyError, and an inherited or moved one
would be wrapped where its callers do not look it up."""

import importlib.util
from pathlib import Path

from scalesim import planning

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    """bench/tracing.py, loaded from its file without importing the rest of
    the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_defined_by_its_owner():
    tracing = _tracing()
    targets = tracing._targets(tracing.Tracer())
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []


def test_pack_ffd_items_are_the_packed_pods(monkeypatch):
    """`planning.pack_ffd.mean_items` is the `len()` of pack_ffd's first
    argument, so that argument must hold one item per pod plan_nodes packs:
    every replica and every unmanaged pod."""
    tracing = _tracing()
    seen = []
    pack_ffd = planning.pack_ffd

    def recording(sizes, bin_capacity):
        seen.append(sizes)
        return pack_ffd(sizes, bin_capacity)

    monkeypatch.setattr(planning, "pack_ffd", recording)
    planning.plan_nodes(264, 250, {"legacy": 600}, 2000)
    assert [tracing._first_arg_len(sizes) for sizes in seen] == [265]
