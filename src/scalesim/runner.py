"""The run loop: build the cluster from a scenario, fire its events, let the
controller react, observe and accrue costs, and check invariants live.

The event and decision lines, samples and summary stay in memory and are
written, through `artifacts`, only after a clean completion, so an aborted
run leaves no partial files behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# The benchmark wraps write_metrics_csv, write_summary and summarize here, by
# these names, and reads OUTPUT_FILES here, as the tests do.
from .artifacts import (DECISIONS_LOG, EVENTS_LOG, METRICS_CSV, OUTPUT_FILES,  # noqa: F401
                        SUMMARY_TXT, RunSummary, encode_record, format_event, stream_line,
                        summarize, write_lines, write_metrics_csv, write_summary)
from .control import make_controller
from .engine import ClusterState, EventKind, NodePool
from .invariants import InvariantChecker
from .metrics import CostAccumulator, MetricSample, Observer, to_micro
from .scenario import ScenarioConfig


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
    sample = {"controller": "sampler"}
    tick_line, sample_line = stream_line(tick), stream_line(sample)
    state.every(controller.tick_times(duration), tick)
    state.every(range(0, duration, config.sampling_interval), sample)
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
    checker = InvariantChecker(config.workload_id)

    event_lines: list[str] = []
    decision_lines: list[str] = []

    demand = trace.demand
    trace_end = len(demand)
    # The migration floor as the last event left it; it holds until the next.
    # While there is one, old pods run beside their replacements, so the
    # checker holds the workload to no replica count.
    floor = controller.active_floor()
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
            line = f"t={now}{sample_line}"
        else:
            changed = True
            if ev.payload is tick:
                decision_lines.append(encode_record(controller.tick(state, now)))
                line = f"t={now}{tick_line}"
            else:
                line = format_event(ev)
            for record in controller.on_event(state, ev):
                decision_lines.append(encode_record(record))
            floor = controller.active_floor()
        event_lines.append(line)
        checker.check(state, None if floor is not None else controller.desired)
        checker.check_costs(cost.node_cost, cost.pod_cost)

    cost.advance(state, duration, floor)
    # What every event's check took on trust, a full recount proves at the end.
    checker.recount(state, None if floor is not None else controller.desired)

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

    result = RunResult(config, summary, observer.samples, event_lines, decision_lines,
                       checks_run=checker.checks_run, completed_migrations=migrations)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_lines(out_dir / EVENTS_LOG, event_lines)
        write_lines(out_dir / DECISIONS_LOG, decision_lines)
        write_metrics_csv(observer.samples, list(state.pools), out_dir / METRICS_CSV)
        write_summary(summary, out_dir / SUMMARY_TXT)
        result.out_dir = out_dir
    return result
