"""Closed-loop controllers driving the simulated cluster.

HierarchicalController runs the slow cycle as three steps of one tick: the
strategic read resolves the active policy; `plan` forecasts the demand of
the one managed workload and plans its replicas and the nodes jointly, and
can be called between ticks without changing any; `_reconcile` executes the
plan, nodes before pods, unless a migration defers it. Policy switches that
change node pool run a two-phase make-before-break migration.

ReactiveController is the fast baseline: a horizontal pod autoscaler driven by
observed utilization against a target, plus a cluster autoscaler that adds a
node when pods sit unschedulable and removes nodes idle for too long.

Both implement the Controller protocol, the only face the runner sees;
make_controller picks the class a scenario names.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, Protocol

from .engine import ALIVE, PROVISIONING, READY, ClusterState, EventKind, Pod, PodState, SimEvent
from .errors import ConfigError
from .forecasting import (
    MovingAverage,
    Naive,
    PhaseGroups,
    SeasonalPeak,
    detect_period,
    forecast,
    smoothed_history,
)
from .knobs import check_knobs, knob
from .metrics import utilization
from .planning import Policy, ceil_div, pack_ffd, plan_nodes, plan_replicas
from .workload import DemandTrace

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .scenario import ScenarioConfig


@dataclass
class StrategicSchedule:
    """Scenario-scripted policy timeline: the active policy at time t is the
    last entry at or before t, or the default before any entry."""

    default_policy: str = ""                # "" -> the scenario's first policy
    entries: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries.sort(key=lambda e: e[0])
        for i, (at, _) in enumerate(self.entries):
            if at < 0:
                raise ConfigError(f"field 'schedule.at.{at}': switch time {at} is before the run",
                                  f"schedule.at.{at}")
            if i and self.entries[i - 1][0] == at:
                raise ConfigError(f"field 'schedule.at.{at}': switch time {at} is given twice",
                                  f"schedule.at.{at}")

    def active_at(self, t: int) -> str:
        name = self.default_policy
        for at, policy_name in self.entries:
            if at <= t:
                name = policy_name
            else:
                break
        return name


class MigrationPhase(Enum):
    IDLE = "Idle"
    PROVISIONING_NEW = "ProvisioningNew"
    MIGRATING_WORKLOAD = "MigratingWorkload"


@dataclass
class MigrationState:
    phase: MigrationPhase = MigrationPhase.IDLE
    from_pool: str = ""
    started_at: int = 0
    target_nodes: int = 0
    # Pre-switch planned replicas: the capacity floor that must hold at every
    # instant of the migration.
    floor: int = 0
    replacements: set[str] = field(default_factory=set)     # their pod ids
    # The workload's alive pods when the migration began, youngest first.
    old_pods: list[Pod] = field(default_factory=list)
    old_from: int = 0           # no old pod before this index is alive
    # The old pods that were Pending once the new pool was resized, youngest
    # first. While the migration lasts nothing drains a node, so no old pod
    # becomes Pending again and this list only shrinks.
    pending_old: list[Pod] = field(default_factory=list)
    pending_switch: str | None = None

    def first_alive_old(self) -> int:
        """Index of the youngest old pod still alive, or len(old_pods) when
        none is. A pod that leaves ALIVE never returns to it, so the cursor
        only moves forward."""
        old, i = self.old_pods, self.old_from
        while i < len(old) and old[i].state not in ALIVE:
            i += 1
        self.old_from = i
        return i


@dataclass
class HpaConfig:
    target_utilization: Fraction = knob(Fraction(4, 5), gt=0, le=1)
    min_replicas: int = knob(1, ge=1)       # from 0 running pods the HPA never scales up
    max_replicas: int = knob(20, ge=1)
    scale_down_stabilization: int = knob(300, ge=0)
    tick_interval: int = knob(15, gt=0)
    # Caps observed utilization. Below 1 it would clip pods that are not
    # saturated; at or below target_utilization the HPA could never scale up.
    saturation_ceiling: Fraction = knob(Fraction(11, 10), ge=1)
    ca_trigger_delay: int = knob(30, ge=0)
    ca_idle_delay: int = knob(600, ge=0)
    pool: str = knob("")                    # "" -> the scenario's first pool

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.min_replicas > self.max_replicas:
            raise ConfigError(
                f"field 'hpa.min_replicas': {self.min_replicas} exceeds "
                f"hpa.max_replicas ({self.max_replicas})",
                "hpa.min_replicas", "hpa.max_replicas",
            )
        if self.saturation_ceiling <= self.target_utilization:
            raise ConfigError(
                f"field 'hpa.saturation_ceiling': {self.saturation_ceiling} must exceed "
                f"hpa.target_utilization ({self.target_utilization}), or the HPA never scales up",
                "hpa.saturation_ceiling", "hpa.target_utilization",
            )


@dataclass
class MasConfig:
    control_interval: int = knob(300, gt=0)
    horizon: int | None = knob(None, gt=0)             # None -> control_interval
    smoothing_half_life: int = knob(30, gt=0)
    forecaster: str = knob("seasonal_peak", choices=("naive", "moving_average", "seasonal_peak"))
    moving_average_window: int = knob(60, gt=0)
    seasonal_quantile: float = knob(0.95, gt=0, le=1)
    seasonal_period: int | None = knob(None, gt=0)     # None -> autocorrelation detection
    period_min_lag: int = knob(60, ge=1)
    period_min_correlation: float = knob(0.5, ge=-1, le=1)   # a Pearson threshold

    def __post_init__(self) -> None:
        check_knobs(self)


def _release(state: ClusterState, pending: list[Pod], bound: Iterable[Pod],
             count: int) -> int:
    """Terminate up to `count` pods in release order: the `pending` pods in
    the order given, then the Starting or Running pods of `bound` in its
    order, read only as far as the count needs. Every victim is taken before
    any is terminated, since a Pending pod that is terminated leaves
    `state.pods`, which `bound` may walk. Returns how many were terminated."""
    victims = pending[:count]
    if len(victims) < count:
        for pod in bound:
            if pod.state is PodState.STARTING or pod.state is PodState.RUNNING:
                victims.append(pod)
                if len(victims) == count:
                    break
    for pod in victims:
        state.terminate_pod(pod.pod_id)
    return len(victims)


def _scale_replicas(state: ClusterState, workload_id: str, pod_request: int, delta: int) -> None:
    """Change the workload's replicas by `delta`: create pods, or release
    them, its Pending pods youngest first and then its bound pods youngest
    first. `state.pods` holds pods in creation order, so the walk back from
    its end meets the youngest first."""
    if delta > 0:
        for _ in range(delta):
            state.create_pod(workload_id, pod_request)
    else:
        pending = sorted((p for p in state.pending.values() if p.workload_id == workload_id),
                         key=lambda p: -p.creation_seq)
        _release(state, pending,
                 (p for p in reversed(state.pods.values()) if p.workload_id == workload_id),
                 -delta)


class Controller(Protocol):
    """All the runner knows of a controller. `initial` gives the pool to
    schedule onto at t=0 and the replicas to create there: the configured
    count, or the controller's own floor for None. `tick` acts on the cluster
    and returns the tick's decision-log record: {"t", "controller", "phases",
    "actions"}, a phase per step of the tick in the order they ran, each
    action a (kind, target, delta) tuple with kind "pods" or "nodes".
    `on_event` sees every fired event but the metrics sampler's, for which
    both controllers return nothing, and returns the decision-log records it
    made, in order, often none; a migration moves only at its switch, at a
    NodeReady while its new pool provisions and at the PodStarted of each of
    its replacements. `active_floor` is the replica floor that a migration
    must hold, and None outside migrations; a sample changes nothing, so the
    runner reads it after every other event."""

    name: ClassVar[str]
    desired: int                        # replicas asked for
    completed_migrations: list[dict]

    @classmethod
    def from_config(cls, config: ScenarioConfig, trace: DemandTrace) -> Controller: ...
    def initial(self, replicas: int | None) -> tuple[str, int]: ...
    def tick_times(self, duration: int) -> range: ...
    def tick(self, state: ClusterState, now: int) -> dict: ...
    def on_event(self, state: ClusterState, ev: SimEvent) -> list[dict]: ...
    def active_floor(self) -> int | None: ...


class HierarchicalController:
    name = "mas_h2"

    def __init__(
        self,
        policies: dict[str, Policy],
        schedule: StrategicSchedule,
        trace: DemandTrace,
        pod_request: int,
        other_requests: dict[str, int],
        config: MasConfig,
    ):
        self.policies = policies
        self.schedule = schedule
        self.trace = trace
        self.pod_request = pod_request
        self.other_requests = other_requests
        self.config = config
        self.migration = MigrationState()
        self.desired = 0
        self.completed_migrations: list[dict] = []
        # The smoothed demand of every second read so far, extended by each
        # tick from the last level: the level of second t at index t. Kept
        # as doubles, so period detection reads it without a conversion.
        self.smoothed = array("d")
        # The seasonal forecaster's sorted phase groups of `smoothed`.
        self._phase_groups = PhaseGroups()
        # The one record of the pool the managed workload lives on, or is
        # migrating onto; a switch compares against it, not the schedule.
        self._active_pool = policies[schedule.default_policy].pool

    @classmethod
    def from_config(cls, config: ScenarioConfig, trace: DemandTrace) -> HierarchicalController:
        return cls(config.policies, config.schedule, trace, config.pod_request,
                   config.other_requests, config.mas)

    def initial(self, replicas: int | None) -> tuple[str, int]:
        policy = self.policies[self.schedule.active_at(0)]
        return policy.pool, policy.min_replicas if replicas is None else replicas

    def tick_times(self, duration: int) -> range:
        return range(0, duration + 1, self.config.control_interval)

    def on_event(self, state: ClusterState, ev: SimEvent) -> list[dict]:
        """A policy switch's record; or, when the event moves the migration
        (a NodeReady while the new pool provisions, the PodStarted of one of
        its replacements) and lets it finish with a switch queued behind it,
        that switch's record."""
        kind, phase = ev.kind, self.migration.phase
        if kind is EventKind.POLICY_SWITCH:
            switch = self.on_policy_switch(state, ev.fire_at, ev.payload["policy"])
            return [{"event": "policy_switch", **switch}]
        if ((kind is EventKind.NODE_READY and phase is MigrationPhase.PROVISIONING_NEW)
                or (kind is EventKind.POD_STARTED and phase is MigrationPhase.MIGRATING_WORKLOAD
                    and ev.payload["pod"] in self.migration.replacements)):
            dequeued = self.advance_migration(state, ev.fire_at)
            if dequeued is not None:
                return [{"event": "policy_switch", **dequeued}]
        return []

    # ----------------------------------------------------------------- ticks

    def tick(self, state: ClusterState, now: int) -> dict:
        policy = self.policies[self.schedule.active_at(now)]
        deferred = self.migration.phase is not MigrationPhase.IDLE
        actions: list[tuple[str, str, int]] = []
        replicas, nodes, planning = self.plan(state, now, policy)
        phases = [{"phase": "strategic", "policy": policy.name,
                   "migration": self.migration.phase.value}, *planning]
        if replicas is not None and deferred:
            phases.append({"phase": "execution", "deferred": "migration active", "actions": actions})
        else:
            if replicas is not None:
                self._reconcile(state, policy.pool, nodes, replicas, actions)
            phases.append({"phase": "execution", "actions": actions})
        return {"t": now, "controller": self.name, "phases": phases, "actions": actions}

    def plan(self, state: ClusterState, now: int,
             policy: Policy) -> tuple[int | None, int | None, list[dict]]:
        """The planning step: the replicas the workload needs over the next
        horizon under `policy`, the nodes of the policy's pool they need, and
        the record's workload-planning and node-planning phases; with no
        history yet, no replicas nor nodes. It reads the cluster and extends
        the smoothed history to `now`. Smoothing continued from the last
        level equals smoothing in one shot and phase groups only grow, so a
        call between ticks changes no tick."""
        workload_id = self.trace.workload_id
        smoothed = self.smoothed
        smoothed.extend(smoothed_history(self.trace.demand[len(smoothed):now],
                                         self.config.smoothing_half_life,
                                         smoothed[-1] if smoothed else None))
        if not smoothed:
            return None, None, [
                {"phase": "workload-planning",
                 "plans": [{"workload": workload_id, "skipped": "no history"}]},
                {"phase": "node-planning", "skipped": "no plans"}]
        kind, basis = self._forecaster_for(now)
        horizon = self.config.horizon
        peak = forecast(kind, basis, now,
                        self.config.control_interval if horizon is None else horizon,
                        groups=self._phase_groups)
        replicas = plan_replicas(peak, self.pod_request, policy)
        pool = state.pools[policy.pool]
        nodes = plan_nodes(replicas.planned_replicas, self.pod_request, self.other_requests,
                           pool.node_capacity_millicores)
        return replicas.planned_replicas, nodes, [
            {"phase": "workload-planning", "plans": [{
                "workload": workload_id,
                "forecaster": type(kind).__name__,
                "forecast_peak": peak,
                "raw_replicas": replicas.raw_replicas,
                "planned_replicas": replicas.planned_replicas,
            }]},
            {"phase": "node-planning", "pool": policy.pool, "required_nodes": nodes,
             "current_nodes": len(pool.nodes)}]

    def _reconcile(self, state: ClusterState, pool: str, nodes: int, replicas: int,
                   actions: list[tuple[str, str, int]]) -> None:
        """The execution step, nodes before pods: resize `pool` to `nodes`,
        scale the workload to `replicas` and schedule, appending to
        `actions`."""
        current = len(state.pools[pool].nodes)
        if nodes != current:
            state.resize_pool(pool, nodes)
            actions.append(("nodes", pool, nodes - current))
        workload_id = self.trace.workload_id
        delta = replicas - state.replicas(workload_id)
        if delta != 0:
            _scale_replicas(state, workload_id, self.pod_request, delta)
            actions.append(("pods", workload_id, delta))
        self.desired = replicas
        state.schedule_pending_pods()

    def _forecaster_for(self, now: int):
        """The forecaster and the history it reads. A seasonal planner with
        no full period to replay falls back to the last raw demand: the last
        smoothed level trails a ramp, and planning for it under-provisions
        demand that has already been seen."""
        cfg, smoothed = self.config, self.smoothed
        if cfg.forecaster == "naive":
            return Naive(), smoothed
        if cfg.forecaster == "moving_average":
            return MovingAverage(cfg.moving_average_window), smoothed
        period = cfg.seasonal_period
        if period is None:
            period = detect_period(smoothed, cfg.period_min_lag, cfg.period_min_correlation)
        if period is None or len(smoothed) < period:
            # Naive reads only the last second, the trace's last one past its end.
            return Naive(), self.trace.demand[min(now, self.trace.duration) - 1:now]
        return SeasonalPeak(period=period, quantile=cfg.seasonal_quantile), smoothed

    # ------------------------------------------------------------- migration

    def on_policy_switch(self, state: ClusterState, now: int, new_policy_name: str) -> dict:
        new = self.policies[new_policy_name]
        if self.migration.phase is not MigrationPhase.IDLE:
            self.migration.pending_switch = new_policy_name
            return {"t": now, "switch": new.name, "migration": "queued (switch in flight)"}
        if new.pool == self._active_pool:
            return {"t": now, "switch": new.name, "migration": "none (same pool)"}
        return self._begin_migration(state, now, new)

    def _begin_migration(self, state: ClusterState, now: int, new: Policy) -> dict:
        workload_id = self.trace.workload_id
        floor = self.desired
        target_nodes = plan_nodes(max(1, floor), self.pod_request, self.other_requests,
                                  state.pools[new.pool].node_capacity_millicores)
        # `state.pods` is in creation order, so walked back, youngest first.
        old_pods = [p for p in reversed(state.pods_of(workload_id)) if p.state in ALIVE]
        self.migration = MigrationState(
            phase=MigrationPhase.PROVISIONING_NEW,
            from_pool=self._active_pool,
            started_at=now,
            target_nodes=target_nodes,
            floor=floor,
            old_pods=old_pods,
        )
        state.preferred_pool_id = new.pool
        self._active_pool = new.pool
        state.resize_pool(new.pool, target_nodes)
        self.migration.pending_old = [p for p in old_pods if p.state is PodState.PENDING]
        self.advance_migration(state, now)
        return {
            "t": now,
            "switch": new.name,
            "migration": "make-before-break started",
            "from_pool": self.migration.from_pool,
            "to_pool": new.pool,
            "new_pool_nodes": target_nodes,
            "floor": {workload_id: floor},
        }

    def advance_migration(self, state: ClusterState, now: int) -> dict | None:
        """Move the migration on by one of the events that can move it: the
        switch that began it, a NodeReady while the new pool provisions, or
        the PodStarted of one of its replacements. Ticks defer to a migration
        and nothing else resizes its target pool, so the pool's Ready count
        rises only at a NodeReady; a replacement reaches Running only at its
        PodStarted, which releases one old pod for it. Returns the record of
        a switch that was queued behind a migration that finished."""
        mig = self.migration
        if mig.phase is MigrationPhase.MIGRATING_WORKLOAD:
            mig.pending_old = [p for p in mig.pending_old if p.state is PodState.PENDING]
            old = mig.old_pods
            _release(state, mig.pending_old,
                     map(old.__getitem__, range(mig.first_alive_old(), len(old))), 1)
        elif len(state.pools[self._active_pool].ready_nodes()) >= mig.target_nodes:
            mig.phase = MigrationPhase.MIGRATING_WORKLOAD
            mig.replacements = {state.create_pod(self.trace.workload_id, self.pod_request).pod_id
                                for _ in range(mig.floor)}
            state.schedule_pending_pods()
        else:
            return None
        if mig.first_alive_old() == len(mig.old_pods):
            return self._finish_migration(state, now)
        return None

    def _finish_migration(self, state: ClusterState, now: int) -> dict | None:
        """The last old pod has left: shrink the old pool to what its other
        pods need, record the migration, and start any queued switch,
        returning its record."""
        mig = self.migration
        state.resize_pool(mig.from_pool, self._residual_old_pool_nodes(state))
        self.completed_migrations.append({
            "started_at": mig.started_at,
            "completed_at": now,
            "from_pool": mig.from_pool,
            "to_pool": self._active_pool,
            "floor": {self.trace.workload_id: mig.floor},
        })
        pending = mig.pending_switch
        self.migration = MigrationState()
        if pending is None:
            return None
        return self.on_policy_switch(state, now, pending)

    def _residual_old_pool_nodes(self, state: ClusterState) -> int:
        """Nodes the old pool keeps for the unmanaged pods still bound there."""
        old_pool = state.pools[self.migration.from_pool]
        pods = (state.pods[pid] for node in old_pool.nodes for pid in node.bound_pods)
        return pack_ffd([p.cpu_request_millicores for p in pods
                         if p.workload_id != self.trace.workload_id
                         and p.state is not PodState.TERMINATING],
                        old_pool.node_capacity_millicores)

    def active_floor(self) -> int | None:
        if self.migration.phase is MigrationPhase.IDLE:
            return None
        return self.migration.floor


class ReactiveController:
    """HPA + cluster-autoscaler baseline, ticking on a fast fixed cadence."""

    name = "hpa_ca"

    def __init__(self, trace: DemandTrace, pod_request: int, pool_id: str, config: HpaConfig):
        self.trace = trace
        self.pod_request = pod_request
        self.pool_id = pool_id
        self.config = config
        self.desired = 0
        self.completed_migrations: list[dict] = []
        self._below_since: int | None = None
        self._empty_since: dict[str, int] = {}

    @classmethod
    def from_config(cls, config: ScenarioConfig, trace: DemandTrace) -> ReactiveController:
        return cls(trace, config.pod_request, config.hpa.pool, config.hpa)

    def initial(self, replicas: int | None) -> tuple[str, int]:
        return self.pool_id, self.config.min_replicas if replicas is None else replicas

    def tick_times(self, duration: int) -> range:
        return range(0, duration, self.config.tick_interval)

    def on_event(self, state: ClusterState, ev: SimEvent) -> list[dict]:
        return []

    def active_floor(self) -> None:
        return None

    def tick(self, state: ClusterState, now: int) -> dict:
        cfg = self.config
        phases: list[dict] = []
        actions: list[tuple[str, str, int]] = []
        workload_id = self.trace.workload_id
        trace_demand = self.trace.demand
        demand = trace_demand[now] if now < len(trace_demand) else 0
        running = state.running_replicas(workload_id)
        current = state.replicas(workload_id)
        num, den = utilization(demand, running, self.pod_request, cfg.saturation_ceiling)
        # Pods without a node yet report no usage, so the scale-up basis is
        # the running count; the result reconciles the full replica set.
        # ceil(running * (num / den) / target), as an integer ceiling division.
        target = cfg.target_utilization
        desired = ceil_div(running * num * target.denominator, den * target.numerator)
        desired = max(cfg.min_replicas, min(cfg.max_replicas, desired))
        applied = desired
        if desired < current:
            if self._below_since is None:
                self._below_since = now
            if now - self._below_since < cfg.scale_down_stabilization:
                applied = current
        if applied == desired:
            self._below_since = None
        if applied != current:
            _scale_replicas(state, workload_id, self.pod_request, applied - current)
            actions.append(("pods", workload_id, applied - current))
        self.desired = applied
        phases.append({"phase": "hpa", "workloads": [{
            "workload": workload_id,
            "demand": demand,
            "running": running,
            "utilization": num / den,
            "desired": desired,
            "applied": applied,
        }]})

        phases.append({"phase": "ca", **self._cluster_autoscaler(state, now, actions)})
        state.schedule_pending_pods()
        return {"t": now, "controller": self.name, "phases": phases, "actions": actions}

    def _cluster_autoscaler(
        self, state: ClusterState, now: int, actions: list[tuple[str, str, int]]
    ) -> dict:
        """Add or remove a node when due, appending to `actions`; returns the
        decision-log record."""
        cfg = self.config
        pool = state.pools[self.pool_id]
        record: dict = {}

        # Pending longer than the trigger delay, from the oldest pending pod.
        pending = state.pending
        overdue = bool(pending) and (
            now - min(p.pending_since for p in pending.values()) > cfg.ca_trigger_delay)
        if overdue and not any(n.state is PROVISIONING for n in pool.nodes):
            # One node at a time; wait for in-flight capacity before adding more.
            state.resize_pool(self.pool_id, len(pool.nodes) + 1)
            actions.append(("nodes", self.pool_id, 1))
            record["added_node"] = True

        old = self._empty_since
        self._empty_since = {n.node_id: old.get(n.node_id, now)
                             for n in pool.nodes if n.state is READY and not n.bound_pods}
        idle_expired = any(now - since > cfg.ca_idle_delay for since in self._empty_since.values())
        if idle_expired and len(pool.nodes) > 1:
            # Shrink by one; the resize victim rule picks an empty node.
            state.resize_pool(self.pool_id, len(pool.nodes) - 1)
            actions.append(("nodes", self.pool_id, -1))
            record["removed_idle_node"] = True
        return record


CONTROLLER_TYPES: dict[str, type[Controller]] = {
    c.name: c for c in (HierarchicalController, ReactiveController)
}


def make_controller(config: ScenarioConfig, trace: DemandTrace) -> Controller:
    """The controller the scenario names, built from its config."""
    return CONTROLLER_TYPES[config.controller].from_config(config, trace)
