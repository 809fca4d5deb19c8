"""Full-run integration: live invariants, migration accounting, log shapes."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import format_event_sorted

from scalesim import runner
from scalesim.cli import EXIT_INVARIANT, main
from scalesim.control import HierarchicalController
from scalesim.engine import ClusterState, EventKind, SimEvent
from scalesim.errors import InvariantViolation
from scalesim.invariants import InvariantChecker
from scalesim.runner import format_event, run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

from test_golden_artifacts import _bench_workloads

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def fixture_runs():
    runs = {}
    for name in ("heartbeat-mas", "heartbeat-hpa", "flash-sale-mas", "flash-sale-hpa"):
        runs[name] = run_scenario(load_scenario(FIXTURES / f"{name}.scn"))
    return runs


def test_invariants_checked_at_every_event(fixture_runs):
    for name, result in fixture_runs.items():
        assert result.checks_run == len(result.event_lines), name
        assert result.checks_run > 100, name


@pytest.mark.parametrize("controller", ["mas_h2", "hpa_ca"])
@pytest.mark.parametrize("name", ["heartbeat-mas", "heartbeat-hpa",
                                  "flash-sale-mas", "flash-sale-hpa"])
def test_shared_encoder_writes_what_json_dumps_writes(monkeypatch, name, controller):
    # The runner's one encoder skips the circular-reference check; on every
    # decision record of a run it must still write json.dumps's bytes.
    shared, dumped = runner.encode_record, []

    def encode(record):
        dumped.append(json.dumps(record))
        return shared(record)

    monkeypatch.setattr(runner, "encode_record", encode)
    config = replace(load_scenario(FIXTURES / f"{name}.scn"), controller=controller)
    assert run_scenario(config).decision_lines == dumped
    assert dumped


def test_mas_fixture_migrations_complete_with_zero_downtime(fixture_runs):
    for name in ("heartbeat-mas", "flash-sale-mas"):
        result = fixture_runs[name]
        assert result.summary.migrations == 1, name
        assert result.summary.migration_downtime == 0, name


def test_zero_floor_migration_completes_with_zero_downtime():
    # No replicas at the t=0 switch: the new pool is sized for one.
    text = (FIXTURES / "heartbeat-mas.scn").read_text()
    text += "initial_replicas = 0\nschedule.at.0 = PERFORMANCE\n"
    result = run_scenario(parse_scenario_text(text, "zero-floor"))
    started = json.loads(next(line for line in result.decision_lines if '"t": 0, "switch"' in line))
    assert started["new_pool_nodes"] == 1
    assert started["floor"] == {"web": 0}
    assert result.summary.migrations == 1
    assert result.summary.migration_downtime == 0


def _downtime_recount(monkeypatch, config):
    """Run `config` and recount its migration downtime without the cost
    accumulator: from the running replicas and the floor in force recorded
    before each event. The floor in force is the last one the runner read
    from the controller, before the first event or after an event that can
    move it, so each event is paired with the floor in force after the one
    before. Returns the run and the intervals below the floor, adjacent ones
    merged."""
    before, floors, states = [], [], []
    step, active_floor = ClusterState.step, HierarchicalController.active_floor

    def recording_step(self):
        states.append(self)
        before.append((self.peek_time(), self.running_replicas(config.workload_id),
                       floors[-1]))
        return step(self)

    def recording_floor(self):
        floors.append(active_floor(self))
        return floors[-1]

    monkeypatch.setattr(ClusterState, "step", recording_step)
    monkeypatch.setattr(HierarchicalController, "active_floor", recording_floor)
    result = run_scenario(config)
    # The run ends with the state and the floor that its last event left.
    ends = before + [(result.summary.duration,
                      states[-1].running_replicas(config.workload_id), floors[-1])]
    below, last_t = [], 0
    for t, running, floor in ends:
        if t > last_t and floor is not None and running < floor:
            if below and below[-1][1] == last_t:
                below[-1] = (below[-1][0], t)
            else:
                below.append((last_t, t))
        last_t = t
    return result, below


def test_migrate_workload_downtime_is_the_wait_for_pending_replicas(monkeypatch):
    # Seed 1 switches pools at t=900 and t=2700 while 12 and 10 of the planned
    # replicas still wait Pending for a node that turns Ready at the switch:
    # the floor counts them, and they run 10 s later.
    config = parse_scenario_text(_bench_workloads()["mas-migrate"].generate(1), "mas-migrate-1")
    result, below = _downtime_recount(monkeypatch, config)
    assert below == [(900, 910), (2700, 2710)]
    assert result.summary.migration_downtime == 20


@pytest.mark.parametrize("name", ["heartbeat-mas", "flash-sale-mas"])
def test_mas_fixture_recount_finds_no_downtime(monkeypatch, name):
    result, below = _downtime_recount(monkeypatch, load_scenario(FIXTURES / f"{name}.scn"))
    assert below == []
    assert result.summary.migration_downtime == 0


def test_node_plan_reads_the_capacity_of_the_pool_it_resizes():
    # Pools rebuilt in code with 4000m nodes: 13 x 250m = 3250m fits one node.
    base = load_scenario(FIXTURES / "heartbeat-mas.scn")
    config = replace(base, vu_cost=8, pools=[replace(p, capacity=4000) for p in base.pools])
    tick = next(rec for rec in map(json.loads, run_scenario(config).decision_lines)
                if rec.get("t") == 300 and rec.get("controller") == "mas_h2")
    assert tick["phases"][1]["plans"][0]["planned_replicas"] == 13
    assert tick["phases"][2] == {"phase": "node-planning", "pool": "staging",
                                 "required_nodes": 1, "current_nodes": 1}


def test_hpa_fixtures_never_migrate(fixture_runs):
    for name in ("heartbeat-hpa", "flash-sale-hpa"):
        assert fixture_runs[name].summary.migrations == 0


def test_decision_log_phase_order(fixture_runs):
    for name in ("heartbeat-mas", "flash-sale-mas"):
        ticks = [
            json.loads(line) for line in fixture_runs[name].decision_lines
            if '"controller": "mas_h2"' in line
        ]
        assert ticks, name
        for tick in ticks:
            labels = [p["phase"] for p in tick["phases"]]
            assert labels == [
                "strategic", "workload-planning", "node-planning", "execution",
            ], (name, tick["t"])


def test_mas_desired_respects_policy_floor(fixture_runs):
    for name in ("heartbeat-mas", "flash-sale-mas"):
        result = fixture_runs[name]
        config = result.config
        for line in result.decision_lines:
            rec = json.loads(line)
            if rec.get("controller") != "mas_h2":
                continue
            policy = config.policies[rec["phases"][0]["policy"]]
            for plan in rec["phases"][1]["plans"]:
                if "planned_replicas" in plan:
                    assert plan["planned_replicas"] >= policy.min_replicas


def test_event_log_shape(fixture_runs):
    result = fixture_runs["flash-sale-mas"]
    times = []
    for line in result.event_lines:
        assert line.startswith("t=")
        fields = dict(part.split("=", 1) for part in line.split(" ") if "=" in part)
        times.append(int(fields["t"]))
    assert times == sorted(times)
    kinds = {line.split(" ")[1] for line in result.event_lines}
    assert "kind=PolicySwitch" in kinds
    assert "kind=NodeReady" in kinds
    assert "kind=PodStarted" in kinds


PAYLOAD_KEYS = st.sampled_from(["pod", "node", "binding", "stale", "controller", "phase",
                                 "policy", "a"])
PAYLOAD_VALUES = st.integers(-10**6, 10**6) | st.booleans() | st.text("web-1_ ", max_size=6)


@settings(max_examples=300, deadline=None)
@given(fire_at=st.integers(0, 10**7), kind=st.sampled_from(EventKind),
       payload=st.one_of(
           st.just({}),
           st.dictionaries(PAYLOAD_KEYS, PAYLOAD_VALUES, min_size=1, max_size=1),
           st.dictionaries(PAYLOAD_KEYS, PAYLOAD_VALUES, min_size=2, max_size=4),
           st.builds(lambda pod, binding: {"pod": pod, "binding": binding, "stale": True},
                     st.text("web-1", min_size=1, max_size=6), st.integers(1, 9))))
def test_event_line_equals_the_sorted_line(fire_at, kind, payload):
    ev = SimEvent(fire_at, kind, payload)
    assert format_event(ev) == format_event_sorted(ev)


def test_sampler_lines_are_format_events(fixture_runs):
    # The loop writes a sample's events.log line from fixed text, not through
    # format_event; each must still be the line format_event gives it.
    for name in ("heartbeat-hpa", "heartbeat-mas"):
        result = fixture_runs[name]
        written = [line for line in result.event_lines if line.endswith("controller=sampler")]
        assert written == [
            format_event(SimEvent(s.t, EventKind.CONTROL_TICK, {"controller": "sampler"}))
            for s in result.samples
        ], name
        assert len(written) > 100, name


def test_tick_lines_are_format_events(fixture_runs):
    # So does a controller tick's, at each of the controller's tick times.
    for name in ("heartbeat-hpa", "heartbeat-mas"):
        result = fixture_runs[name]
        config = result.config
        who = config.controller
        ticks = runner.make_controller(config, config.build_trace()).tick_times(
            result.summary.duration)
        written = [line for line in result.event_lines if line.endswith(f"controller={who}")]
        assert written == [
            format_event(SimEvent(t, EventKind.CONTROL_TICK, {"controller": who}))
            for t in ticks
        ], name
        assert len(written) >= 3, name


@pytest.mark.parametrize("duration", [None, 900])
@pytest.mark.parametrize("interval", [7, 13])
@pytest.mark.parametrize("name", ["heartbeat-hpa", "heartbeat-mas"])
def test_ticks_keep_their_boundaries(tmp_path, name, interval, duration):
    # Samples fall on range(0, duration, interval): none at t=duration, even
    # when the interval does not divide it. Controller ticks fall on the
    # controller's tick_times(duration), which holds t=duration for mas_h2
    # and not for hpa_ca. The fixtures' trace is 780 s long, and a run of
    # 900 s ends on a tick of both controllers.
    text = (FIXTURES / f"{name}.scn").read_text() + f"sampling_interval = {interval}\n"
    if duration is not None:
        text += f"duration = {duration}\n"
    config = parse_scenario_text(text, name)
    result = run_scenario(config, out_dir=tmp_path)
    end = result.summary.duration
    assert end == (780 if duration is None else duration)

    def tick_times(who):
        return [int(line.split(" ", 1)[0][2:]) for line in result.event_lines
                if line.endswith(f"kind=ControlTick controller={who}")]

    samples = list(range(0, end, interval))
    assert tick_times("sampler") == samples
    assert [s.t for s in result.samples] == samples
    assert (tmp_path / "metrics.csv").read_text().count("\n") == len(samples) + 1
    controller = runner.make_controller(config, config.build_trace())
    ticks = list(controller.tick_times(end))
    if duration is not None:
        assert (end in ticks) is (config.controller == "mas_h2")
    assert tick_times(config.controller) == ticks
    assert [json.loads(line)["t"] for line in result.decision_lines
            if '"controller"' in line] == ticks


@pytest.mark.parametrize("lines_per_write", [1, 7, 512])
@pytest.mark.parametrize("name", ["heartbeat-hpa", "zero-length"])
def test_logs_are_the_lines_joined(tmp_path, monkeypatch, name, lines_per_write):
    # Streamed in chunks of lines, each log holds the bytes of its lines
    # joined by newlines plus a final one; a run of no seconds has no
    # decision record and still gets that one newline.
    monkeypatch.setattr(runner, "_LINES_PER_WRITE", lines_per_write)
    if name == "zero-length":
        text = (FIXTURES / "heartbeat-hpa.scn").read_text().replace("workload = heartbeat", (
            "workload = custom\nphase.1.duration = 0\nphase.1.target_vus = 5\n"
            "phase.1.ramp = step"))
        config = parse_scenario_text(text, name)
    else:
        config = load_scenario(FIXTURES / f"{name}.scn")
    result = run_scenario(config, out_dir=tmp_path)
    assert (name == "zero-length") == (result.decision_lines == [])
    for log, lines in (("events.log", result.event_lines),
                       ("decisions.log", result.decision_lines)):
        assert (tmp_path / log).read_text() == "\n".join(lines) + "\n", log


def test_running_replicas_never_dip_below_floor_during_migration(fixture_runs):
    # Replays the emitted logs: between the switch event and the migration's
    # completion record, sampled running replicas stay at or above the floor.
    for name in ("heartbeat-mas", "flash-sale-mas"):
        result = fixture_runs[name]
        migration = result.completed_migrations[0]
        floor = sum(migration["floor"].values())
        window = [
            s for s in result.samples
            if migration["started_at"] <= s.t <= migration["completed_at"]
        ]
        assert window, name
        assert min(s.running_replicas for s in window) >= floor, name


def test_costs_monotone_across_samples(fixture_runs):
    for name, result in fixture_runs.items():
        node = [s.cumulative_node_cost for s in result.samples]
        pod = [s.cumulative_pod_cost for s in result.samples]
        assert node == sorted(node), name
        assert pod == sorted(pod), name


@pytest.mark.parametrize("name", ["heartbeat-hpa", "flash-sale-hpa"])
def test_node_cost_accounting_identity(fixture_runs, name):
    # Recompute node-seconds from the event log and initial state, then check
    # the exact micro-unit identity. These runs never delete nodes, so every
    # node lives from its creation to the end of the run: initial nodes from
    # t=0, provisioned ones from (NodeReady time - provisioning delay).
    result = fixture_runs[name]
    config = result.config
    duration = result.summary.duration
    by_pool = {spec.pool_id: spec for spec in config.pools}
    expected = 0
    for spec in config.pools:
        expected += spec.initial_nodes * duration * round(spec.cost_rate * 1_000_000)
    for line in result.event_lines:
        if "kind=NodeReady" in line and "stale" not in line:
            fields = dict(part.split("=", 1) for part in line.split(" "))
            pool_id = fields["node"].rsplit("-n", 1)[0]
            spec = by_pool[pool_id]
            created = int(fields["t"]) - spec.provisioning_delay
            expected += (duration - created) * round(spec.cost_rate * 1_000_000)
    assert result.summary.total_node_cost == expected


def test_invariant_violation_aborts_without_outputs(tmp_path, monkeypatch, capsys):
    scn = tmp_path / "mini.scn"
    scn.write_text(
        "workload = custom\ncontroller = hpa_ca\n"
        "phase.1.duration = 30\nphase.1.target_vus = 50\n"
    )

    def explode(self, state, desired=None):
        raise InvariantViolation("capacity-conservation: injected for test")

    monkeypatch.setattr(InvariantChecker, "check", explode)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == EXIT_INVARIANT
    assert not out.exists()
    assert "capacity-conservation" in capsys.readouterr().err


def test_fixture_runtime_budget(fixture_runs):
    # Wall-clock guard lives in the acceptance suite; here just confirm the
    # runs produced dense sample series.
    for name, result in fixture_runs.items():
        assert len(result.samples) == result.summary.duration // 5


GOLDEN_SCENARIO = """
workload = custom
controller = hpa_ca
seed = 2
sampling_interval = 30
phase.1.duration = 30
phase.1.target_vus = 300
phase.2.duration = 30
phase.2.target_vus = 300
pool.baseline.capacity = 500
pool.baseline.provisioning_delay = 20
hpa.ca_trigger_delay = 10
"""

# Cold start on an empty pool: the initial pod waits, the cluster autoscaler
# triggers at t=15 (pending age 15 > 10), the node lands 20 s later, and the
# saturated single replica forces a second pod. Locks the event-log format
# and the same-second tie-break order.
GOLDEN_EVENTS = """\
t=0 kind=WorkloadPhaseChange phase=phase-1
t=0 kind=ControlTick controller=hpa_ca
t=0 kind=ControlTick controller=sampler
t=15 kind=ControlTick controller=hpa_ca
t=30 kind=WorkloadPhaseChange phase=phase-2
t=30 kind=ControlTick controller=hpa_ca
t=30 kind=ControlTick controller=sampler
t=35 kind=NodeReady node=baseline-n1
t=45 kind=PodStarted binding=1 pod=web-p1
t=45 kind=ControlTick controller=hpa_ca
t=55 kind=PodStarted binding=1 pod=web-p2"""


def test_golden_event_trace():
    from scalesim.scenario import parse_scenario_text

    result = run_scenario(parse_scenario_text(GOLDEN_SCENARIO, "golden"))
    assert "\n".join(result.event_lines) == GOLDEN_EVENTS


def _enqueued_before_first_event(text, monkeypatch):
    counts = {"enqueued": 0, "stepped": False}
    enqueue, step = ClusterState.enqueue, ClusterState.step

    def counting_enqueue(self, *args, **kwargs):
        counts["enqueued"] += not counts["stepped"]
        return enqueue(self, *args, **kwargs)

    def first_step(self):
        counts["stepped"] = True
        return step(self)

    monkeypatch.setattr(ClusterState, "enqueue", counting_enqueue)
    monkeypatch.setattr(ClusterState, "step", first_step)
    run_scenario(parse_scenario_text(text, "lazy"))
    return counts["enqueued"]


@pytest.mark.parametrize("controller", ["hpa_ca", "mas_h2"])
def test_ticks_enqueued_up_front_do_not_grow_with_duration(monkeypatch, controller):
    # The controller's ticks and the samples are periodic streams that the
    # engine fires from their ranges, never queued, so before the first
    # event the queue holds only the phase change and the bindings.
    text = (f"workload = custom\ncontroller = {controller}\n"
            "phase.1.duration = 60\nphase.1.target_vus = 100\n")
    short = _enqueued_before_first_event(text + "duration = 600\n", monkeypatch)
    long = _enqueued_before_first_event(text + "duration = 60000\n", monkeypatch)
    assert short == long <= 5
