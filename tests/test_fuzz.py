"""Randomized end-to-end shakeout: many small scenarios, both controllers,
live invariants on every event. Any violation aborts the run and fails here.
Every declared knob range is probed from both sides: values outside it are
rejected at load, and values on its edges load and run, or are rejected at
load by a rule that ties several knobs together.
"""

import contextlib
import io
import random
import string
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesim.cli import EXIT_CONFIG, EXIT_OK, main
from scalesim.knobs import Range
from scalesim.runner import run_scenario
from scalesim.scenario import KNOBS, parse_scenario_text


def random_scenario(rng: random.Random, controller: str) -> str:
    lines = [
        "workload = custom",
        f"controller = {controller}",
        f"seed = {rng.randint(1, 10 ** 6)}",
        f"vu_cost = {rng.choice([1, 2, 3])}",
        f"pod_request = {rng.choice([100, 250, 400])}",
        f"pod_startup_delay = {rng.choice([0, 5, 10])}",
        f"sampling_interval = {rng.choice([5, 10])}",
        f"noise_amplitude = {rng.choice([0.0, 0.1, 0.2])}",
    ]
    n_phases = rng.randint(1, 5)
    for i in range(1, n_phases + 1):
        lines += [
            f"phase.{i}.duration = {rng.randint(10, 120)}",
            f"phase.{i}.target_vus = {rng.randint(0, 600)}",
            f"phase.{i}.ramp = {rng.choice(['linear', 'step'])}",
            f"phase.{i}.noisy = {rng.choice(['true', 'false'])}",
        ]
    cap_a = rng.choice([500, 1000, 2000])
    lines += [
        "pool.alpha.capacity = %d" % cap_a,
        f"pool.alpha.cost_rate = {rng.choice([0.5, 1.0])}",
        f"pool.alpha.provisioning_delay = {rng.choice([10, 60, 120])}",
        f"pool.alpha.initial_nodes = {rng.randint(0, 2)}",
    ]
    if rng.random() < 0.5:
        lines.append(f"other.side = {rng.randint(50, min(400, cap_a))}")
    if controller == "mas_h2":
        cap_b = rng.choice([1000, 2000])
        lines += [
            "pool.beta.capacity = %d" % cap_b,
            f"pool.beta.cost_rate = {rng.choice([2.0, 3.0])}",
            f"pool.beta.provisioning_delay = {rng.choice([10, 60])}",
            f"pool.beta.initial_nodes = {rng.randint(0, 1)}",
            "policy.A.pool = alpha",
            f"policy.A.min_replicas = {rng.randint(1, 3)}",
            "policy.A.w_perf = 0.2",
            "policy.B.pool = beta",
            f"policy.B.min_replicas = {rng.randint(1, 3)}",
            "policy.B.w_perf = 0.8",
            "schedule.default = A",
            f"mas.control_interval = {rng.choice([30, 60, 150])}",
            f"mas.forecaster = {rng.choice(['naive', 'moving_average', 'seasonal_peak'])}",
        ]
        if rng.random() < 0.7:
            lines.append(f"schedule.at.{rng.randint(10, 200)} = B")
        if rng.random() < 0.3:
            lines.append(f"schedule.at.{rng.randint(201, 350)} = A")
    else:
        lines += [
            f"hpa.tick_interval = {rng.choice([5, 15, 30])}",
            f"hpa.scale_down_stabilization = {rng.choice([0, 30, 300])}",
            f"hpa.ca_trigger_delay = {rng.choice([10, 30])}",
            f"hpa.ca_idle_delay = {rng.choice([60, 600])}",
        ]
    # Make pod_request fit the smallest pool in play.
    lines = [
        line if not line.startswith("pod_request") else
        f"pod_request = {min(rng.choice([100, 250, 400]), cap_a)}"
        for line in lines
    ]
    return "\n".join(lines) + "\n"


def test_randomized_scenarios_hold_all_invariants():
    rng = random.Random(0xC1D5)
    for i in range(25):
        for controller in ("hpa_ca", "mas_h2"):
            text = random_scenario(rng, controller)
            config = parse_scenario_text(text, f"fuzz-{controller}-{i}")
            result = run_scenario(config)   # live checker raises on violation
            assert result.checks_run == len(result.event_lines)
            assert result.summary.duration > 0
            node = [s.cumulative_node_cost for s in result.samples]
            assert node == sorted(node)


def test_randomized_scenarios_deterministic():
    rng = random.Random(77)
    for _ in range(5):
        text = random_scenario(rng, "mas_h2")
        a = run_scenario(parse_scenario_text(text, "fuzz"))
        b = run_scenario(parse_scenario_text(text, "fuzz"))
        assert a.event_lines == b.event_lines
        assert a.decision_lines == b.decision_lines
        assert a.samples == b.samples


# --------------------------------------------------- declared knob ranges

# A valid scenario that sets at least one key of every knob family. A knob
# key's "*" is instantiated with the names used here.
KNOB_BASE = {
    "workload": "custom",
    "controller": "mas_h2",
    "phase.1.duration": "60",
    "phase.1.target_vus": "300",
    "phase.2.duration": "60",
    "phase.2.target_vus": "50",
    "pool.alpha.capacity": "1000",
    "pool.alpha.initial_nodes": "1",
    "pool.beta.capacity": "2000",
    "policy.A.pool": "alpha",
    "policy.B.pool": "beta",
    "schedule.default": "A",
    "mas.control_interval": "20",
    "other.side": "100",
}
NAMES = {
    "pool.*": "pool.alpha", "policy.*": "policy.A", "phase.*": "phase.1", "other.*": "other.side",
}
RANGED = [key for key, (_, _, allowed) in KNOBS.items() if str(allowed) != "any"]


def instantiate(template: str) -> str:
    for wildcard, name in NAMES.items():
        template = template.replace(wildcard, name)
    return template


def knob_scenario(path, controller: str, key: str, value) -> int:
    """Write the base scenario with `key` set to `value`; returns its line."""
    entries = dict(KNOB_BASE, controller=controller)
    if controller == "mas_h2":
        entries["schedule.at.30"] = "B"
    entries[key] = str(value)
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return list(entries).index(key) + 1


def cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def outside(typ, allowed: Range) -> st.SearchStrategy:
    """Values of the knob's type that its range rejects."""
    if allowed.choices is not None:
        return st.text(string.ascii_lowercase + "_", min_size=1, max_size=12).filter(
            lambda s: s not in allowed.choices)
    if typ is int:
        below, above = st.integers, st.integers
        lower = allowed.ge - 1 if allowed.ge is not None else allowed.gt
        upper = allowed.le + 1 if allowed.le is not None else allowed.lt
    else:
        floats = partial(st.floats, allow_nan=False, allow_infinity=False)
        below = partial(floats, exclude_max=allowed.ge is not None)
        above = partial(floats, exclude_min=allowed.le is not None)
        lower = allowed.ge if allowed.ge is not None else allowed.gt
        upper = allowed.le if allowed.le is not None else allowed.lt
    sides = [below(max_value=lower)] if lower is not None else []
    sides += [above(min_value=upper)] if upper is not None else []
    return st.one_of(sides)


@pytest.mark.parametrize("template", RANGED)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_out_of_range_knob_rejected_at_load(tmp_path_factory, template, data):
    typ, _, allowed = KNOBS[template]
    value = data.draw(outside(typ, allowed), label="value")
    key = instantiate(template)
    path = tmp_path_factory.mktemp("knob") / "s.scn"
    line = knob_scenario(path, "mas_h2", key, value)
    code, err = cli("validate", "--scenario", str(path))
    assert code == EXIT_CONFIG, err
    assert f"line {line}: field '{key}'" in err


@pytest.mark.parametrize("controller", ["mas_h2", "hpa_ca"])
@pytest.mark.parametrize("template", RANGED)
def test_range_boundaries_run_or_are_rejected_at_load(tmp_path, controller, template):
    """Each edge of each range either fails validation or runs to the end."""
    typ, _, allowed = KNOBS[template]
    if allowed.choices is not None:
        values = list(allowed.choices)
    else:
        step = 1 if typ is int else 0.001
        values = [b for b in (allowed.ge, allowed.le) if b is not None]
        values += [allowed.gt + step] if allowed.gt is not None else []
        values += [allowed.lt - step] if allowed.lt is not None else []
    for value in values:
        path = tmp_path / "s.scn"
        knob_scenario(path, controller, instantiate(template), value)
        code, err = cli("validate", "--scenario", str(path))
        if code == EXIT_OK:
            code, err = cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
            assert code == EXIT_OK, (value, err)
        else:
            assert code == EXIT_CONFIG, (value, err)


@pytest.mark.parametrize("controller", ["mas_h2", "hpa_ca"])
@pytest.mark.parametrize("template", [key for key, (typ, _, _) in KNOBS.items() if typ is float])
def test_largest_float_runs_or_is_rejected_naming_its_line(tmp_path, controller, template):
    """A float knob at the largest finite float loads and runs, or is
    rejected at load naming its line: no overflow escapes as a traceback.
    Int knobs are not probed at their top, where a run would allocate
    without bound."""
    path = tmp_path / "s.scn"
    key = instantiate(template)
    line = knob_scenario(path, controller, key, sys.float_info.max)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        code, err = cli(*argv, "--scenario", str(path))
        assert code in (EXIT_OK, EXIT_CONFIG), err
        if code == EXIT_CONFIG:
            assert f"line {line}: field '{key}'" in err
            break


BIG_VUS = "9" * 401


@pytest.mark.parametrize("lines, key", [
    (["workload = heartbeat", "controller = hpa_ca", "vu_cost = 1e308"], "vu_cost"),
    (["workload = flash_sale", "controller = mas_h2", "vu_cost = 1e306"], "vu_cost"),
    *[(["workload = custom", "controller = hpa_ca", "phase.1.duration = 30",
        "phase.1.target_vus = 10", "phase.2.duration = 30", f"phase.2.target_vus = {BIG_VUS}",
        f"phase.2.ramp = {ramp}"], "phase.2.target_vus") for ramp in ("linear", "step")],
    (["workload = heartbeat", "controller = hpa_ca", "pod_cost_rate = 1e303"], "pod_cost_rate"),
    (["workload = heartbeat", "controller = hpa_ca", "pool.baseline.cost_rate = 1e303"],
     "pool.baseline.cost_rate"),
], ids=["heartbeat", "flash_sale", "custom-linear", "custom-step", "pod_cost_rate", "cost_rate"])
def test_overflowing_numbers_rejected_at_load(tmp_path, lines, key):
    # Demand beyond every float would fail the trace build, and a rate whose
    # micro-units are infinite the run's cost accrual.
    path = tmp_path / "s.scn"
    path.write_text("".join(f"{line}\n" for line in lines))
    line = next(n for n, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        code, err = cli(*argv, "--scenario", str(path))
        assert code == EXIT_CONFIG, err
        assert f"line {line}: field '{key}'" in err
