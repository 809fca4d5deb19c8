"""The benchmark's tracer wraps scalesim entry points by owner and attribute
name. Each one must be an attribute its owner defines itself: for a missing
one the traced benchmark stops with a KeyError, and an inherited or moved one
would be wrapped where its callers do not look it up."""

import importlib.util
from pathlib import Path

from scalesim import planning, runner
from scalesim.scenario import load_scenario

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


def test_a_run_writes_through_the_traced_writer_names(tmp_path, monkeypatch):
    """`metrics.write` is the time of the wrapped `runner.write_metrics_csv`
    and `runner.write_summary`. CI asks only that it be above zero, which one
    of them is enough for, so it would miss the other writer bypassing its
    name: a run with an output directory must call each, by that name, once."""
    calls = []
    for name in ("write_metrics_csv", "write_summary"):
        def recorder(*args, _name=name, _write=getattr(runner, name)):
            calls.append(_name)
            return _write(*args)

        monkeypatch.setattr(runner, name, recorder)
    runner.run_scenario(load_scenario(ROOT / "scenarios" / "heartbeat-hpa.scn"), tmp_path)
    assert sorted(calls) == ["write_metrics_csv", "write_summary"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(runner.OUTPUT_FILES)
