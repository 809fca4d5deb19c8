"""Tactical planning: replica plans from forecast peaks and node plans from
one-dimensional bin packing (first-fit-decreasing).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Policy:
    """Strategic parameter tuple constraining the lower planning tiers."""

    name: str
    node_pool: str
    node_capacity_millicores: int
    min_replicas: int
    w_perf: float
    w_cost: float

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"policy {self.name}: min_replicas must be >= 1")
        if self.w_perf < 0 or self.w_cost < 0 or abs(self.w_perf + self.w_cost - 1.0) > 1e-9:
            raise ValueError(f"policy {self.name}: weights must be non-negative and sum to 1")


@dataclass(frozen=True)
class Request:
    owner: str
    millicores: int


@dataclass
class RequestSet:
    items: list[Request] = field(default_factory=list)

    def add(self, owner: str, millicores: int) -> None:
        self.items.append(Request(owner, millicores))

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PodPlan:
    workload_id: str
    raw_replicas: int
    planned_replicas: int
    basis_peak_millicores: int
    pod_request_millicores: int


@dataclass
class NodePlan:
    pool_id: str
    required_nodes: int
    assignment: list[tuple[Request, int]]   # (request, bin index)


class OversizedRequestError(ValueError):
    pass


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def plan_replicas(
    forecast_peak: int, pod_request: int, policy: Policy, workload_id: str = ""
) -> PodPlan:
    """Replica count for a forecast peak: ceil(peak / per-pod request),
    at least 1, floored by the policy's strategic minimum."""
    if pod_request <= 0:
        raise ValueError(f"pod_request must be positive, got {pod_request}")
    raw = max(1, ceil_div(max(0, forecast_peak), pod_request))
    planned = max(raw, policy.min_replicas)
    return PodPlan(
        workload_id=workload_id,
        raw_replicas=raw,
        planned_replicas=planned,
        basis_peak_millicores=max(0, forecast_peak),
        pod_request_millicores=pod_request,
    )


def _check_sizes(requests: RequestSet, bin_capacity: int) -> None:
    if bin_capacity <= 0:
        raise ValueError("bin_capacity must be positive")
    for req in requests.items:
        if req.millicores > bin_capacity:
            raise OversizedRequestError(
                f"request {req.owner} ({req.millicores}m) exceeds bin capacity {bin_capacity}m"
            )


def pack_ffd(requests: RequestSet, bin_capacity: int, pool_id: str = "") -> NodePlan:
    """First-fit-decreasing: items by size descending (ties: owner ascending),
    each into the lowest-index bin with room, opening bins as needed."""
    _check_sizes(requests, bin_capacity)
    order = sorted(requests.items, key=lambda r: (-r.millicores, r.owner))
    free: list[int] = []
    assignment: list[tuple[Request, int]] = []
    for req in order:
        for b, slack in enumerate(free):
            if slack >= req.millicores:
                free[b] -= req.millicores
                assignment.append((req, b))
                break
        else:
            free.append(bin_capacity - req.millicores)
            assignment.append((req, len(free) - 1))
    return NodePlan(pool_id=pool_id, required_nodes=len(free), assignment=assignment)


def plan_nodes(
    pod_plans: list[PodPlan], other_requests: RequestSet, policy: Policy
) -> NodePlan:
    """Node count for the policy's pool: planned replicas of every workload
    plus all unmanaged requests, first-fit-decreasing into policy-sized bins."""
    combined = RequestSet()
    for plan in sorted(pod_plans, key=lambda p: p.workload_id):
        for i in range(plan.planned_replicas):
            combined.add(f"{plan.workload_id}-r{i + 1}", plan.pod_request_millicores)
    combined.items.extend(other_requests.items)
    return pack_ffd(combined, policy.node_capacity_millicores, pool_id=policy.node_pool)

