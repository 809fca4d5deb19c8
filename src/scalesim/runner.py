"""Run orchestration: build the cluster from a scenario, drive the event loop,
check invariants live, and emit the run artifacts.

Outputs are buffered in memory and flushed only after a clean completion, so
an aborted run leaves no partial files behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .control import make_controller
from .engine import ClusterState, EventKind, NodePool, SimEvent
from .invariants import InvariantChecker
from .metrics import (
    CostAccumulator,
    MetricSample,
    Observer,
    RunSummary,
    summarize,
    to_micro,
    write_metrics_csv,
    write_summary,
)
from .scenario import ScenarioConfig

OUTPUT_FILES = ("events.log", "decisions.log", "metrics.csv", "summary.txt")
SAMPLER = "sampler"    # the controller name of the metrics sampler's ticks
CONTROL_TICK = EventKind.CONTROL_TICK


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: RunSummary
    samples: list[MetricSample]
    event_lines: list[str]
    decision_lines: list[str]
    out_dir: Path | None = None
    checks_run: int = 0
    completed_migrations: list[dict] = field(default_factory=list)


# The events.log text of each event kind.
_KIND_TEXT = {kind: kind.value for kind in EventKind}


def format_event(ev: SimEvent) -> str:
    """`t=<fire_at> kind=<kind>`, then the payload's `key=value` pairs by key."""
    payload = ev.payload
    if len(payload) == 1:
        ((key, value),) = payload.items()
        return f"t={ev.fire_at} kind={_KIND_TEXT[ev.kind]} {key}={value}"
    pairs = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
    return f"t={ev.fire_at} kind={_KIND_TEXT[ev.kind]}" + (f" {pairs}" if pairs else "")


def _fixed_line(payload: dict) -> str:
    """The events.log line of a ControlTick carrying `payload`, after its
    `t=<fire_at>`: the same for every tick of one clock."""
    return format_event(SimEvent(0, CONTROL_TICK, payload)).removeprefix("t=0")


# One decision record's decisions.log line, shared by every record. Records
# are acyclic, so an encoder that skips json.dumps's circular-reference check
# writes the same bytes for less.
encode_record = json.JSONEncoder(check_circular=False).encode


# Lines per write: a write per line costs more than joining them all, and
# joining them all holds a second copy of the whole log.
_LINES_PER_WRITE = 512


def _write_lines(path: Path, lines: list[str]) -> None:
    """Each line followed by a newline, streamed from the list a chunk at a
    time; no lines still give one newline, as joining them would."""
    step = _LINES_PER_WRITE
    with path.open("w") as fh:
        fh.writelines("\n".join(lines[i:i + step]) + "\n"
                      for i in range(0, len(lines) or 1, step))


def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None) -> RunResult:
    trace = config.build_trace()
    duration = config.duration if config.duration is not None else trace.duration

    pools = [NodePool(spec.pool_id, spec.capacity, spec.provisioning_delay)
             for spec in config.pools]
    state = ClusterState(pools, pod_startup_delay=config.pod_startup_delay)
    for spec in config.pools:
        for _ in range(spec.initial_nodes):
            state.add_ready_node(spec.pool_id)

    schedule = config.schedule
    controller = make_controller(config, trace)

    # Unmanaged pods exist from the start and occupy whatever fits.
    for owner, millicores in config.other_requests.items():
        state.create_pod(owner, millicores, pod_id=owner)
    state.preferred_pool_id, initial = controller.initial(config.initial_replicas)
    for _ in range(initial):
        state.create_pod(config.workload_id, config.pod_request)
    controller.desired = initial
    state.schedule_pending_pods()

    # The two periodic clocks are streams that the engine fires from their
    # ranges, never queued: the controller's ticks at its `tick_times`, the
    # sampler's every sampling interval before `duration`. The controller's
    # is registered first, so in one second its tick comes before the
    # sample. Each event of a stream carries its stream's payload object.
    tick = {"controller": controller.name}
    sample = {"controller": SAMPLER}
    tick_line, sample_line = _fixed_line(tick), _fixed_line(sample)
    state.every(controller.tick_times(duration), CONTROL_TICK, tick)
    state.every(range(0, duration, config.sampling_interval), CONTROL_TICK, sample)
    for t, policy_name in schedule.entries:
        state.enqueue(t, EventKind.POLICY_SWITCH, {"policy": policy_name})
    for t, phase_name in trace.phase_boundaries:
        state.enqueue(t, EventKind.WORKLOAD_PHASE_CHANGE, {"phase": phase_name})

    cost = CostAccumulator(
        node_rate_micro={spec.pool_id: to_micro(spec.cost_rate) for spec in config.pools},
        pod_rate_micro=to_micro(config.pod_cost_rate),
        workload_id=config.workload_id,
    )
    observer = Observer(
        workload_id=config.workload_id,
        pod_request=config.pod_request,
        cost=cost,
        normalizers=config.normalizers,
        saturation_ceiling=config.hpa.saturation_ceiling,
    )
    checker = InvariantChecker()

    event_lines: list[str] = []
    decision_lines: list[str] = []

    demand = trace.demand
    trace_end = len(demand)
    workload_id = config.workload_id
    # The migration floor as the last event left it; it holds until the next.
    floor = controller.active_floor()
    # The replicas the checker holds the workload to: none while a migration
    # keeps old pods running beside their replacements. Rebuilt only when the
    # floor or the controller's replicas change.
    want = None if floor is not None else {workload_id: controller.desired}
    # Whether an event has fired since the last sample: only events change
    # the cluster, so a sample with none before it sees the cluster the last
    # sample saw.
    changed = True
    while state.has_events():
        now = state.peek_time()
        if now > duration:
            break
        # Accrue costs and downtime at the rates that held before this event.
        cost.advance(state, now, floor)

        ev = state.step()
        if ev.payload is sample:
            # A sample changes nothing, so no controller reacts to it and the
            # floor holds.
            active_policy = config.policies[schedule.active_at(now)]
            observer.observe(state, demand[now] if now < trace_end else 0, active_policy,
                             now, changed)
            changed = False
            event_lines.append(f"t={now}{sample_line}")
            checker.check(state, want)
            checker.check_costs(cost.node_cost, cost.pod_cost)
            continue
        changed = True
        if ev.payload is tick:
            decision_lines.append(encode_record(controller.tick(state, now)))
            event_lines.append(f"t={now}{tick_line}")
        else:
            event_lines.append(format_event(ev))
        for record in controller.on_event(state, ev):
            decision_lines.append(encode_record(record))

        floor = controller.active_floor()
        if floor is not None:
            want = None
        elif want is None or want[workload_id] != controller.desired:
            want = {workload_id: controller.desired}
        checker.check(state, want)
        checker.check_costs(cost.node_cost, cost.pod_cost)

    cost.advance(state, duration, floor)
    # What every event's check took on trust, a full recount proves at the end.
    checker.recount(state, want)

    migrations = controller.completed_migrations
    summary = summarize(
        scenario_id=config.scenario_id,
        controller=config.controller,
        seed=config.seed,
        duration=duration,
        samples=observer.samples,
        sampling_interval=config.sampling_interval,
        migration_downtime=cost.downtime,
        migrations=len(migrations),
        total_node_cost=cost.node_cost,
        total_pod_cost=cost.pod_cost,
    )

    result = RunResult(
        config=config,
        summary=summary,
        samples=observer.samples,
        event_lines=event_lines,
        decision_lines=decision_lines,
        checks_run=checker.checks_run,
        completed_migrations=migrations,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_lines(out_dir / "events.log", event_lines)
        _write_lines(out_dir / "decisions.log", decision_lines)
        write_metrics_csv(observer.samples, list(state.pools), out_dir / "metrics.csv")
        write_summary(summary, out_dir / "summary.txt")
        result.out_dir = out_dir
    return result
