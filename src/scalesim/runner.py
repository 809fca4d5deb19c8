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

    # Each periodic tick enqueues its successor when it fires. In one second
    # the controller's tick comes before the sampler's.
    tick_times = {
        controller.name: controller.tick_times(duration),
        SAMPLER: range(0, duration, config.sampling_interval),
    }
    tick_rank = {controller.name: 0, SAMPLER: 1}

    def enqueue_tick(who: str, t: int) -> None:
        if t in tick_times[who]:
            state.enqueue(t, EventKind.CONTROL_TICK, {"controller": who}, rank=tick_rank[who])

    for who, times in tick_times.items():
        if times:
            enqueue_tick(who, times[0])
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

    def desired(floor: int | None) -> dict[str, int] | None:
        """The replicas the checker holds the workload to: none while a
        migration keeps old pods running beside their replacements."""
        return None if floor is not None else {config.workload_id: controller.desired}

    # The migration floor as the last event left it; it holds until the next.
    floor = controller.active_floor()
    while state.has_events() and state.peek_time() <= duration:
        t_next = state.peek_time()
        # Accrue costs and downtime at the rates that held before this event.
        cost.advance(state, t_next, floor)

        ev = state.step()
        now = ev.fire_at

        if ev.kind is EventKind.CONTROL_TICK:
            who = ev.payload["controller"]
            enqueue_tick(who, now + tick_times[who].step)
            if who == SAMPLER:
                demand = trace.demand_at(now) if now < trace.duration else 0
                active_policy = config.policies[schedule.active_at(now)]
                observer.observe(state, demand, active_policy, now)
            else:
                decision_lines.append(json.dumps(controller.tick(state, now)))
        for record in controller.on_event(state, ev):
            decision_lines.append(json.dumps(record))

        event_lines.append(format_event(ev))
        floor = controller.active_floor()
        checker.check(state, desired(floor))
        checker.check_costs(cost.node_cost, cost.pod_cost)

    cost.advance(state, duration, floor)
    # What every event's check took on trust, a full recount proves at the end.
    checker.recount(state, desired(floor))

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
