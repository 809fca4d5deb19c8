"""Tests of the benchmark itself: generator, tracing, gate and output contract.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import worker  # noqa: E402
from scalesim import runner, scenario  # noqa: E402
from workloads import WORKLOADS, Workload, _cycles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny(rng: random.Random) -> list[str]:
    shape = [(60, 1.0, "linear"), (120, 1.0, "step"), (60, 0.1, "linear"), (240, 0.1, "step")]
    return [
        "controller = mas_h2",
        "noise_amplitude = 0.05",
        "mas.control_interval = 60",
        "schedule.default = COST_SAVING",
        "schedule.at.500 = PERFORMANCE",
    ] + _cycles(rng, [shape] * 2, 800, 0.1)


TINY = Workload("tiny", _tiny)


def _load(tmp_path: Path, workload: Workload, seed: int):
    path = tmp_path / f"{workload.name}-{seed}.scn"
    path.write_text(workload.generate(seed))
    return scenario.load_scenario(path)


def _artifacts(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in runner.OUTPUT_FILES}


def _traced_session(tmp_path: Path, out: Path) -> tracing.Tracer:
    path = tmp_path / "tiny-3.scn"
    path.write_text(TINY.generate(3))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        runner.run_scenario(scenario.load_scenario(path), out)
    return tracer


@pytest.mark.parametrize("name", [*WORKLOADS, "tiny"])
def test_generator_is_deterministic_and_valid(name, tmp_path):
    workload = WORKLOADS.get(name, TINY)
    assert workload.generate(7) == workload.generate(7)
    assert workload.generate(7) != workload.generate(8)
    config = _load(tmp_path, workload, 7)
    assert config.workload == "custom"


def test_tracing_leaves_artifacts_unchanged_and_restores_entry_points(tmp_path):
    originals = {name: getattr(runner, name) for name in ("run_scenario", "write_summary")}
    runner.run_scenario(_load(tmp_path, TINY, 3), tmp_path / "plain")
    tracer = _traced_session(tmp_path, tmp_path / "traced")
    assert _artifacts(tmp_path / "traced") == _artifacts(tmp_path / "plain")
    assert {name: getattr(runner, name) for name in originals} == originals
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"forecasting.detect_period", "planning.pack_ffd", "control.advance_migration",
            "engine.step", "invariants.check", "metrics.write"} <= names


def test_layer_self_times_sum_to_traced_run_time(tmp_path):
    metrics = tracing.layer_metrics(_traced_session(tmp_path, tmp_path / "out"))
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(metrics["runner.run_s"], rel=1e-9)
    assert metrics["invariants.check.calls"] == metrics["engine.step.calls"]
    assert metrics["workload.build_trace.calls"] == 2
    assert metrics["control.on_policy_switch.calls"] == 1


def test_layer_metrics_are_exactly_the_declared_per_layer_metrics(tmp_path):
    metrics = tracing.layer_metrics(_traced_session(tmp_path, tmp_path / "out"))
    metrics["tracing.overhead_s"] = 0.0   # added by the worker
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_live_pods_peak_is_exact():
    rng = random.Random(5)
    live = tracing.LivePods()
    pods: list[SimpleNamespace] = []
    true_peak = 0
    for _ in range(2000):
        if pods and rng.random() < 0.45:
            rng.choice(pods).state = tracing.engine.PodState.DELETED
        else:
            pod = SimpleNamespace(state=tracing.engine.PodState.PENDING)
            pods.append(pod)
            live.add(pod)
        true_peak = max(true_peak, sum(p.state is not tracing.engine.PodState.DELETED
                                       for p in pods))
    assert live.peak == true_peak
    assert live.created == len(pods)


def test_gate_fails_runs_whose_artifacts_differ(tmp_path):
    gate = worker.Gate()
    out = tmp_path / "out"
    for seed in (3, 3, 4):
        config = _load(tmp_path, TINY, seed)
        gate.run(lambda: (runner.run_scenario(config, out), out))
    assert (gate.attempted, gate.failed) == (3, 1)


def test_full_speed_rescales_each_slice_by_the_probes_around_it(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_FULL_SPEED_S", 0.1)
    # The middle slice ran while the probe took twice its full-speed time.
    slices = [(1.0, 1.1), (2.0, 2.5), (1.5, 1.6)]
    probes = [0.1, 0.1, 0.3, 0.1]
    assert worker.at_full_speed(slices, probes) == pytest.approx(1.0 + 2.0 / 2 + 1.5 / 2)


def test_sliced_run_times_the_probe_around_every_slice(tmp_path):
    from scalesim import engine

    step = engine.ClusterState.step
    slices: list[tuple[float, float]] = []
    probes: list[float] = []
    config = _load(tmp_path, TINY, 3)
    worker._sliced(engine, lambda: runner.run_scenario(config, tmp_path / "out"),
                   slices, probes)
    assert engine.ClusterState.step is step
    assert len(slices) >= 2 and len(probes) == len(slices) + 1
    assert all(cpu > 0 and wall > 0 for cpu, wall in slices) and all(p > 0 for p in probes)


def test_declared_metrics_are_well_formed():
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]) and metric["name"] not in seen
            assert metric["unit"] and metric["better"] in ("lower", "higher")
            seen.add(metric["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    meta = json.loads((ROOT / "bench" / "meta.json").read_text())
    assert set(meta["workloads"]) == set(WORKLOADS)
    for entry in meta["layer_map"]:
        assert set(entry["metrics"]) <= seen
        assert entry["moves"] is None or entry["moves"] in seen
        assert set(entry["workloads"]) <= set(WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared_with_units(trace):
    proc = _bench("--workload", "mas-seasonal", "--seed", "1", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    group = {m["name"]: m for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == set(group)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == group[name]["unit"]
    if trace == "1":
        assert result["metrics"]["forecasting.detect_period.calls"]["value"] > 0


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "hpa-wide", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
