"""Test oracles for bin packing: an exhaustive branch-and-bound packer for
small instances, the classical FFD quality bound, and the structural
postcondition every packing must satisfy. Also the full lag scan that
period detection must reproduce."""

from __future__ import annotations

import numpy as np

from scalesim.planning import NodePlan, Request, RequestSet, _check_sizes, ceil_div, pack_ffd


class InstanceTooLargeError(ValueError):
    pass


def validate_assignment(
    requests: RequestSet, assignment: list[tuple[Request, int]], bin_capacity: int
) -> None:
    # Structural checks mirroring the packing constraints: every request in
    # exactly one bin, no bin over capacity.
    if sorted((r.owner, r.millicores) for r, _ in assignment) != sorted(
        (r.owner, r.millicores) for r in requests.items
    ):
        raise AssertionError("packing assignment does not cover the request multiset exactly")
    loads: dict[int, int] = {}
    for req, b in assignment:
        loads[b] = loads.get(b, 0) + req.millicores
    for b, load in loads.items():
        if load > bin_capacity:
            raise AssertionError(f"bin {b} overfull: {load} > {bin_capacity}")


MAX_EXACT_ITEMS = 12


def pack_exact(requests: RequestSet, bin_capacity: int, pool_id: str = "") -> NodePlan:
    """Provably minimal bin count by branch and bound. Only for small
    instances (<= 12 items); larger ones must use the FFD heuristic."""
    _check_sizes(requests, bin_capacity)
    if len(requests) > MAX_EXACT_ITEMS:
        raise InstanceTooLargeError(
            f"{len(requests)} items exceeds exact-solver limit of {MAX_EXACT_ITEMS}"
        )
    items = sorted(requests.items, key=lambda r: (-r.millicores, r.owner))
    if not items:
        return NodePlan(pool_id=pool_id, required_nodes=0, assignment=[])

    ffd = pack_ffd(requests, bin_capacity)
    best_count = ffd.required_nodes
    best_assign = {id(r): b for r, b in ffd.assignment}
    total = sum(r.millicores for r in items)
    current: list[int] = []          # free space per open bin
    placed: dict[int, int] = {}      # id(request) -> bin

    def recurse(i: int, remaining: int) -> None:
        nonlocal best_count, best_assign
        if i == len(items):
            if len(current) < best_count:
                best_count = len(current)
                best_assign = dict(placed)
            return
        # Even a perfect fill of current slack cannot beat the incumbent.
        slack = sum(current)
        lower = len(current) + max(0, ceil_div(remaining - slack, bin_capacity))
        if lower >= best_count:
            return
        req = items[i]
        seen: set[int] = set()
        for b in range(len(current)):
            if current[b] >= req.millicores and current[b] not in seen:
                seen.add(current[b])
                current[b] -= req.millicores
                placed[id(req)] = b
                recurse(i + 1, remaining - req.millicores)
                current[b] += req.millicores
        if len(current) + 1 < best_count:
            current.append(bin_capacity - req.millicores)
            placed[id(req)] = len(current) - 1
            recurse(i + 1, remaining - req.millicores)
            current.pop()
        placed.pop(id(req), None)

    recurse(0, total)
    assignment = [(r, best_assign[id(r)]) for r in items]
    plan = NodePlan(pool_id=pool_id, required_nodes=best_count, assignment=assignment)
    validate_assignment(requests, plan.assignment, bin_capacity)
    return plan


def ffd_bound_holds(ffd_bins: int, exact_bins: int) -> bool:
    """Classical FFD guarantee: ffd <= (11/9) * optimum + 1, in exact integers."""
    return 9 * ffd_bins <= 11 * exact_bins + 9


def detect_period_scan(values: list[float], min_lag: int = 60, min_correlation: float = 0.5) -> int | None:
    """Reference for `forecasting.detect_period`: its former O(n^2) body,
    which scores every lag in [min_lag, len/2] with separate numpy
    reductions and keeps the first strict maximum above min_correlation.
    The screened version must return exactly what this returns."""
    n = len(values)
    max_lag = n // 2
    if max_lag < min_lag:
        return None
    x = np.asarray(values, dtype=float)
    best_lag, best_corr = None, min_correlation
    for lag in range(min_lag, max_lag + 1):
        a, b = x[:-lag], x[lag:]
        sa, sb = a.std(), b.std()
        if sa == 0.0 or sb == 0.0:
            continue
        corr = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
        if corr > best_corr:
            best_lag, best_corr = lag, corr
    return best_lag
