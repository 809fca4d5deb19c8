"""Tactical planning: replica plans from forecast peaks and node counts from
one-dimensional bin packing (first-fit-decreasing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError
from .knobs import check_knobs, knob


@dataclass
class Policy:
    """Strategic parameter tuple constraining the lower planning tiers; its
    knobs are the policy.<name>.* keys."""

    name: str
    pool: str = knob()
    min_replicas: int = knob(1, ge=1)
    w_perf: float | None = knob(None, ge=0, le=1)   # None -> 1 - w_cost (both unset: 0.5)
    w_cost: float | None = knob(None, ge=0, le=1)   # None -> 1 - w_perf (both unset: 0.5)

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.w_perf is None:
            self.w_perf = 0.5 if self.w_cost is None else round(1.0 - self.w_cost, 9)
        if self.w_cost is None:
            self.w_cost = round(1.0 - self.w_perf, 9)
        if abs(self.w_perf + self.w_cost - 1.0) > 1e-9:
            raise ConfigError(
                f"fields 'policy.{self.name}.w_perf' and 'policy.{self.name}.w_cost': "
                f"policy {self.name}: weights must sum to 1",
                f"policy.{self.name}.w_perf", f"policy.{self.name}.w_cost",
            )


@dataclass(frozen=True)
class PodPlan:
    raw_replicas: int
    planned_replicas: int


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


class SizeClasses:
    """A multiset of item sizes held as {size: count}. Its len() is the item
    count, so whoever sizes `pack_ffd`'s argument counts items, not classes."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int]):
        self.counts = counts

    def __len__(self) -> int:
        return sum(self.counts.values())


def pack_ffd(sizes: list[int] | SizeClasses, bin_capacity: int) -> int:
    """Bins that first-fit-decreasing opens: sizes in descending order, each
    into the lowest-index bin with room, opening bins as needed.

    Packed by size class. First-fit places a run of equal items of size s by
    filling the open bins in index order, each with up to slack // s items,
    and then opening bins of bin_capacity // s items each: a bin it passes
    keeps its slack while the run lasts, so no later item of the run goes
    back to it. So each class walks the open bins once, in
    O(classes x bins) in all."""
    if bin_capacity <= 0:
        raise ValueError("bin_capacity must be positive")
    counts = sizes.counts if isinstance(sizes, SizeClasses) else Counter(sizes)
    classes = sorted(counts.items(), reverse=True)
    if classes and classes[-1][0] <= 0:
        raise ValueError(f"item sizes must be positive, got {classes[-1][0]}")
    if classes and classes[0][0] > bin_capacity:
        raise OversizedRequestError(
            f"request of {classes[0][0]}m exceeds bin capacity {bin_capacity}m")
    free: list[int] = []
    for size, count in classes:
        for b, slack in enumerate(free):
            if slack >= size:
                fit = min(count, slack // size)
                free[b] = slack - fit * size
                count -= fit
                if not count:
                    break
        if count:
            per_bin = bin_capacity // size
            full, rest = divmod(count, per_bin)
            free.extend([bin_capacity - per_bin * size] * full)
            if rest:
                free.append(bin_capacity - rest * size)
    return len(free)


def plan_nodes(
    replicas: int, pod_request: int, other_requests: dict[str, int], node_capacity: int
) -> int:
    """Node count for one pool: `replicas` pods of `pod_request` plus every
    unmanaged pod's request (owner -> millicores), first-fit-decreasing into
    bins of the pool's `node_capacity` millicores."""
    counts = Counter(other_requests.values())
    if replicas:
        counts[pod_request] += replicas
    return pack_ffd(SizeClasses(counts), node_capacity)
