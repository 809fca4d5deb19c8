"""What a run measures: the observer's samples, exact cost accrual, and the
utilization and utility scores they hold.

Costs are integrated between consecutive events in integer micro-units, so the
accounting identity (node-seconds x rate == cumulative cost) holds exactly.
The files these figures are written to and read from are `artifacts`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import READY, ClusterState
from .knobs import check_knobs, knob
from .planning import Policy

MICRO = 1_000_000


def to_micro(rate: float) -> int:
    return round(rate * MICRO)


@dataclass
class Normalizers:
    perf_scale: float = knob(1.0, gt=0)
    cost_scale: float = knob(5.0, gt=0)   # units/second that count as "full" cost pressure

    def __post_init__(self) -> None:
        check_knobs(self)


# One per sample, so slotted: smaller, and quicker to build and read.
@dataclass(slots=True)
class MetricSample:
    t: int
    demand_millicores: int
    running_replicas: int
    pending_pods: int
    nodes_by_pool: dict[str, tuple[int, int]]   # pool -> (provisioning, ready)
    utilization: float
    cpu_waste_millicores: int
    cumulative_pod_cost: int    # micro-units
    cumulative_node_cost: int   # micro-units
    packing_efficiency: float
    utility: float


class CostAccumulator:
    """Integrates, over event-to-event intervals, node-seconds and pod-seconds
    at their cost rates, and the seconds during a migration in which the
    workload runs fewer replicas than the migration floor.

    Every node in a pool accrues, from Provisioning (capacity you pay for
    before it serves) until it is Deleted and leaves the pool; pods accrue
    only while bound to a node. Pending pods are free.
    """

    def __init__(self, node_rate_micro: dict[str, int], pod_rate_micro: int,
                 workload_id: str):
        self.node_rate_micro = node_rate_micro   # pool id -> micro-units per node-second
        self.pod_rate_micro = pod_rate_micro     # micro-units per pod-second
        self.workload_id = workload_id
        self.node_cost: int = 0
        self.pod_cost: int = 0
        self.downtime: int = 0                   # seconds below the migration floor
        self._last_t: int = 0

    def advance(self, state: ClusterState, now: int, floor: int | None = None) -> None:
        """Accrue (last_t, now] from the state before any transition at `now`
        is applied; `floor` is the migration floor that held over it, if any."""
        dt = now - self._last_t
        if dt < 0:
            raise ValueError("cost accumulator cannot move backwards")
        if dt:
            rates = self.node_rate_micro
            node_rate = 0
            for pool_id, pool in state.pools.items():
                node_rate += len(pool.nodes) * rates[pool_id]
            self.node_cost += dt * node_rate
            self.pod_cost += dt * state.bound_count * self.pod_rate_micro
            if floor is not None and state.running_replicas(self.workload_id) < floor:
                self.downtime += dt
        self._last_t = now


def utilization(demand: int, running: int, pod_request: int,
                ceiling: Fraction) -> tuple[int, int]:
    """Demand over the running replicas' requests, capped at `ceiling`, as an
    unreduced (numerator, denominator) pair; (0, 1) with no replica running.
    The cap is compared in integers: when demand * ceiling.denominator
    exceeds ceiling.numerator * running * pod_request, the pair is the
    ceiling's own, and otherwise (demand, running * pod_request)."""
    if not running:
        return 0, 1
    capacity = running * pod_request
    if demand * ceiling.denominator > ceiling.numerator * capacity:
        return ceiling.numerator, ceiling.denominator
    return demand, capacity


def utility_score(
    utilization: float,
    cost_rate_units_per_s: float,
    policy: Policy,
    normalizers: Normalizers,
) -> float:
    """Weighted headroom-minus-cost score: perf is 1 at zero utilization and
    0 at or beyond perf_scale; cost is the instantaneous rate normalized."""
    perf = 1.0 - min(1.0, utilization / normalizers.perf_scale)
    cost = cost_rate_units_per_s / normalizers.cost_scale
    return policy.w_perf * perf - policy.w_cost * cost


class Observer:
    def __init__(
        self,
        workload_id: str,
        pod_request: int,
        cost: CostAccumulator,
        normalizers: Normalizers,
        saturation_ceiling: Fraction,
    ):
        self.workload_id = workload_id
        self.pod_request = pod_request
        self.cost = cost
        self.normalizers = normalizers
        self.saturation_ceiling = saturation_ceiling
        self.samples: list[MetricSample] = []
        # The last sample's cluster half, from `_read_cluster`.
        self._cluster: tuple[int, int, dict, float, float] | None = None

    def observe(self, state: ClusterState, demand: int, policy: Policy, t: int,
                changed: bool = True) -> MetricSample:
        """Record the sample at `t`. With `changed` false the cluster is the
        one the last sample saw, so its running and pending counts, node
        counts, packing and cost rate are that sample's; demand and every
        figure drawn from it, the cumulative costs and utility are taken
        afresh."""
        if changed or self._cluster is None:
            self._cluster = self._read_cluster(state)
        running, pending, nodes_by_pool, packing, cost_rate = self._cluster
        num, den = utilization(demand, running, self.pod_request, self.saturation_ceiling)
        util = num / den    # correctly rounded, as float(Fraction(num, den)) is
        cost = self.cost
        # Positional, in MetricSample's field order: keywords cost twice as much.
        sample = MetricSample(
            t,
            demand,
            running,
            pending,
            nodes_by_pool,
            round(util, 6),
            max(0, running * self.pod_request - demand),
            cost.pod_cost,
            cost.node_cost,
            packing,
            round(utility_score(util, cost_rate, policy, self.normalizers), 6),
        )
        self.samples.append(sample)
        return sample

    def _read_cluster(self, state: ClusterState) -> tuple[int, int, dict, float, float]:
        """What a sample reads of the cluster: the running and pending pod
        counts, each pool's (provisioning, ready) node counts, the packing
        rounded as the metrics table keeps it, and the cost rate in units per
        second. Samples share the dict, so nothing may change it."""
        # One pass over each pool's nodes: its Ready nodes and the requests
        # bound to them. Every other node of a pool is Provisioning. Every
        # node of a pool accrues its pool's cost rate.
        cost = self.cost
        node_rates = cost.node_rate_micro
        bound_requests = 0
        ready_capacity = 0
        node_rate = 0
        nodes_by_pool: dict[str, tuple[int, int]] = {}
        for pool_id, pool in state.pools.items():
            nodes = pool.nodes
            ready = 0
            for node in nodes:
                if node.state is READY:
                    ready += 1
                    bound_requests += node.used
            nodes_by_pool[pool_id] = (len(nodes) - ready, ready)
            ready_capacity += ready * pool.node_capacity_millicores
            node_rate += len(nodes) * node_rates[pool_id]
        packing = bound_requests / ready_capacity if ready_capacity else 0.0
        cost_rate = (node_rate + state.bound_count * cost.pod_rate_micro) / MICRO
        return (state.running_replicas(self.workload_id), len(state.pending),
                nodes_by_pool, round(packing, 6), cost_rate)
