"""The planning step on its own: `HierarchicalController.plan` gives at a
policy switch the plan a tick at that second records, and calling it between
ticks changes no artifact of the run."""

from dataclasses import replace
from pathlib import Path

import pytest

from scalesim.control import HierarchicalController
from scalesim.engine import EventKind
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def mas_config(name, **mas):
    config = load_scenario(FIXTURES / f"{name}.scn")
    return replace(config, mas=replace(config.mas, **mas))


def test_plan_at_a_switch_is_the_plan_its_tick_records(monkeypatch):
    # Ticks every 60 s, so one falls on the t=420 switch.
    config = mas_config("flash-sale-mas", control_interval=60)
    [(switch_at, new_policy)] = config.schedule.entries
    assert switch_at % 60 == 0
    plans, records = [], []
    on_event, tick = HierarchicalController.on_event, HierarchicalController.tick

    def planning_on_event(self, state, ev):
        if ev.kind is EventKind.POLICY_SWITCH:
            plans.append(self.plan(state, ev.fire_at, self.policies[ev.payload["policy"]]))
        return on_event(self, state, ev)

    def recording_tick(self, state, now):
        record = tick(self, state, now)
        if now == switch_at:
            records.append(record)
        return record

    monkeypatch.setattr(HierarchicalController, "on_event", planning_on_event)
    monkeypatch.setattr(HierarchicalController, "tick", recording_tick)
    run_scenario(config)
    [(replicas, nodes, [workload_planning, node_planning])] = plans
    [record] = records
    strategic, ticked_workload, ticked_nodes, _ = record["phases"]
    assert strategic["policy"] == new_policy
    assert workload_planning == ticked_workload
    assert replicas == ticked_workload["plans"][0]["planned_replicas"]
    # Not current_nodes: the switch resizes the new pool before the tick reads it.
    assert nodes == node_planning["required_nodes"] == ticked_nodes["required_nodes"]


@pytest.mark.parametrize("forecaster", ["seasonal_peak", "moving_average"])
@pytest.mark.parametrize("name", ["heartbeat-mas", "flash-sale-mas"])
def test_plan_between_ticks_changes_no_tick(monkeypatch, name, forecaster):
    config = mas_config(name, forecaster=forecaster)
    plain = run_scenario(config)
    plans = []
    on_event = HierarchicalController.on_event

    def planning_on_event(self, state, ev):
        if ev.kind in (EventKind.POLICY_SWITCH, EventKind.NODE_READY,
                       EventKind.WORKLOAD_PHASE_CHANGE):
            policy = self.policies[self.schedule.active_at(ev.fire_at)]
            plans.append(self.plan(state, ev.fire_at, policy))
        return on_event(self, state, ev)

    monkeypatch.setattr(HierarchicalController, "on_event", planning_on_event)
    planned = run_scenario(config)
    assert any(replicas is not None for replicas, _, _ in plans)
    assert planned.decision_lines == plain.decision_lines
    assert planned.event_lines == plain.event_lines
    assert planned.samples == plain.samples
