"""Tactical planning: replica plans from forecast peaks and node plans from
one-dimensional bin packing (first-fit-decreasing).
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class PodPlan:
    raw_replicas: int
    planned_replicas: int


@dataclass
class NodePlan:
    required_nodes: int
    assignment: list[tuple[Request, int]]   # (request, bin index)


class OversizedRequestError(ValueError):
    pass


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def plan_replicas(forecast_peak: int, pod_request: int, policy: Policy) -> PodPlan:
    """Replica count for a forecast peak: ceil(peak / per-pod request),
    at least 1, floored by the policy's strategic minimum."""
    if pod_request <= 0:
        raise ValueError(f"pod_request must be positive, got {pod_request}")
    raw = max(1, ceil_div(max(0, forecast_peak), pod_request))
    return PodPlan(raw_replicas=raw, planned_replicas=max(raw, policy.min_replicas))


def _check_sizes(requests: list[Request], bin_capacity: int) -> None:
    if bin_capacity <= 0:
        raise ValueError("bin_capacity must be positive")
    for req in requests:
        if req.millicores > bin_capacity:
            raise OversizedRequestError(
                f"request {req.owner} ({req.millicores}m) exceeds bin capacity {bin_capacity}m"
            )


def pack_ffd(requests: list[Request], bin_capacity: int) -> NodePlan:
    """First-fit-decreasing: items by size descending (ties: owner ascending),
    each into the lowest-index bin with room, opening bins as needed."""
    _check_sizes(requests, bin_capacity)
    order = sorted(requests, key=lambda r: (-r.millicores, r.owner))
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
    return NodePlan(required_nodes=len(free), assignment=assignment)


def plan_nodes(
    replicas: int, pod_request: int, other_requests: list[Request], policy: Policy
) -> NodePlan:
    """Node count for the policy's pool: `replicas` pods of `pod_request`
    (named r1...rn) plus all unmanaged requests, first-fit-decreasing into
    policy-sized bins. Names only break ties between equal sizes, so they
    never change the bin count."""
    combined = [Request(f"r{i + 1}", pod_request) for i in range(replicas)]
    return pack_ffd(combined + other_requests, policy.node_capacity_millicores)
