"""Test oracles for bin packing: the per-item first-fit-decreasing packer
whose bin count the production one must reproduce, an exhaustive
branch-and-bound packer for small instances, the classical FFD quality bound,
and the structural postcondition every packing must satisfy. Also the full
lag scan that period detection must reproduce and the count-up search for its
FFT length, the per-call sort of every visited phase that seasonal replay must
reproduce, the per-second forecaster and smoother whose peak and levels the
production ones must reproduce, the scans of a whole migration that the
hand-off's carried state must equal, and the per-state scans and Fraction
utilization that the observer's one pass must reproduce. And the output
paths and the HPA formula as they were written first: the per-cell
metrics.csv writer, the sorted event line, the per-second demand trace and
the Fraction replica count, whose bytes and values the production ones must
reproduce. And the width paths as they were first written: the per-item
first-fit-decreasing count, the per-pod scan of every Ready node for
placement and the sort of every pod of a workload for a scale-down, whose
counts, bindings and victims the production ones must reproduce. And the
periodic ticks as they were first driven, each enqueueing its successor,
whose firing order the engine's periodic streams must reproduce. And the
live invariants as one scan of the whole cluster, which shares no code with
the invariant checker and must find nothing wherever it passes."""

from __future__ import annotations

import csv
import heapq
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from scalesim.artifacts import _SAMPLE_TYPES, metrics_header
from scalesim.engine import ALIVE, ClusterState, EventKind, NodeState, PodState, SimEvent
from scalesim.forecasting import (
    ForecasterKind,
    MovingAverage,
    Naive,
    SeasonalPeak,
    _round,
)
from scalesim.metrics import MICRO, CostAccumulator, MetricSample, Observer, utility_score
from scalesim.planning import OversizedRequestError, Policy, ceil_div
from scalesim.workload import DemandTrace, WorkloadPhase


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Request:
    owner: str
    millicores: int


@dataclass
class NodePlan:
    required_nodes: int
    assignment: list[tuple[Request, int]]   # (request, bin index)


def _check_sizes(requests: list[Request], bin_capacity: int) -> None:
    if bin_capacity <= 0:
        raise ValueError("bin_capacity must be positive")
    for req in requests:
        if req.millicores > bin_capacity:
            raise OversizedRequestError(
                f"request {req.owner} ({req.millicores}m) exceeds bin capacity {bin_capacity}m"
            )


def pack_ffd_assign(requests: list[Request], bin_capacity: int) -> NodePlan:
    """Reference for `planning.pack_ffd`, which returns only the bin count:
    first-fit-decreasing over named items, by size descending (ties: owner
    ascending), each into the lowest-index bin with room, opening bins as
    needed, with the bin of every item."""
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


def pack_ffd_per_item(sizes: list[int], bin_capacity: int) -> int:
    """Reference for `planning.pack_ffd`, as it was first written: each item,
    largest first, into the lowest-index bin with room, opening bins as
    needed."""
    if bin_capacity <= 0:
        raise ValueError("bin_capacity must be positive")
    order = sorted(sizes, reverse=True)
    if order and order[0] > bin_capacity:
        raise OversizedRequestError(f"request of {order[0]}m exceeds bin capacity {bin_capacity}m")
    free: list[int] = []
    for size in order:
        for b, slack in enumerate(free):
            if slack >= size:
                free[b] -= size
                break
        else:
            free.append(bin_capacity - size)
    return len(free)


def validate_assignment(
    requests: list[Request], assignment: list[tuple[Request, int]], bin_capacity: int
) -> None:
    # Structural checks mirroring the packing constraints: every request in
    # exactly one bin, no bin over capacity.
    if sorted((r.owner, r.millicores) for r, _ in assignment) != sorted(
        (r.owner, r.millicores) for r in requests
    ):
        raise AssertionError("packing assignment does not cover the request multiset exactly")
    loads: dict[int, int] = {}
    for req, b in assignment:
        loads[b] = loads.get(b, 0) + req.millicores
    for b, load in loads.items():
        if load > bin_capacity:
            raise AssertionError(f"bin {b} overfull: {load} > {bin_capacity}")


MAX_EXACT_ITEMS = 12


def pack_exact(requests: list[Request], bin_capacity: int) -> NodePlan:
    """Provably minimal bin count by branch and bound. Only for small
    instances (<= 12 items); larger ones must use the FFD heuristic."""
    _check_sizes(requests, bin_capacity)
    if len(requests) > MAX_EXACT_ITEMS:
        raise InstanceTooLargeError(
            f"{len(requests)} items exceeds exact-solver limit of {MAX_EXACT_ITEMS}"
        )
    items = sorted(requests, key=lambda r: (-r.millicores, r.owner))
    if not items:
        return NodePlan(required_nodes=0, assignment=[])

    ffd = pack_ffd_assign(requests, bin_capacity)
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
    plan = NodePlan(required_nodes=best_count, assignment=assignment)
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


def seasonal_sorted(kind: SeasonalPeak, history: list[float], now: int, horizon: int) -> int:
    """Reference for `forecasting.forecast` with a seasonal kind: its former
    body, which sorts each visited phase's whole history on every call. The
    largest same-phase quantile over the phases that (now, now + horizon]
    visits."""
    period = kind.period
    phases = {t % period for t in range(now + 1, now + 1 + min(horizon, period))}
    return max(_round(_quantile(history[p::period], kind.quantile)) for p in phases)


def _quantile(values: list[float], q: float) -> float:
    """Order statistic at index ceil(q*n)-1 (q=1.0 is the max)."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def smallest_5_smooth_at_least(m: int) -> int:
    """Reference for `forecasting._fft_length`: count up from m to the first
    integer with no prime factor but 2, 3 and 5."""
    k = m
    while True:
        rest = k
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return k
        k += 1


# The former forecasting API, kept as the reference: histories are (t, value)
# pairs and a forecast lists its prediction for every second of the horizon.
Sample = tuple[int, float]


@dataclass
class Forecast:
    issued_at: int
    horizon_seconds: int
    predicted: list[tuple[int, int]]   # covers (issued_at, issued_at + horizon]
    peak_demand_millicores: int


def forecast_per_second(kind: ForecasterKind, history: list[Sample], now: int, horizon: int) -> Forecast:
    """Predict demand for every second in (now, now + horizon]."""
    if not history:
        raise ValueError("history must be non-empty")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if history[-1][0] >= now:
        raise ValueError(f"history reaches t={history[-1][0]}, not strictly before now={now}")

    future = range(now + 1, now + horizon + 1)
    if isinstance(kind, Naive):
        level = _round(history[-1][1])
        predicted = [(t, level) for t in future]
    elif isinstance(kind, MovingAverage):
        tail = [v for _, v in history[-kind.window:]]
        level = _round(sum(tail) / len(tail))
        predicted = [(t, level) for t in future]
    elif isinstance(kind, SeasonalPeak):
        predicted = _seasonal_per_second(kind, history, future)
    else:
        raise TypeError(f"unknown forecaster kind {kind!r}")

    peak = max(v for _, v in predicted)
    return Forecast(
        issued_at=now,
        horizon_seconds=horizon,
        predicted=predicted,
        peak_demand_millicores=peak,
    )


def _seasonal_per_second(kind: SeasonalPeak, history: list[Sample], future: range) -> list[tuple[int, int]]:
    last = _round(history[-1][1])
    by_offset: dict[int, list[float]] = {}
    for t, v in history:
        by_offset.setdefault(t % kind.period, []).append(v)
    predicted = []
    for t in future:
        values = by_offset.get(t % kind.period)
        predicted.append((t, _round(_quantile(values, kind.quantile)) if values else last))
    return predicted


def smoothed_pairs(history: list[Sample], half_life: int) -> list[tuple[int, float]]:
    """Exponentially weighted smoothing: half of any level gap closes every
    half_life seconds. Constant input is a fixed point; the output never
    exceeds the input's max nor undercuts its min."""
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    if not history:
        return []
    alpha = 1.0 - 2.0 ** (-1.0 / half_life)
    out: list[tuple[int, float]] = []
    level = float(history[0][1])
    out.append((history[0][0], level))
    for t, v in history[1:]:
        level = alpha * v + (1.0 - alpha) * level
        out.append((t, level))
    return out


# The live invariants as one scan of the whole cluster.


def cluster_violations_scan(state: ClusterState, workload_id: str,
                            desired: int | None) -> list[str]:
    """Reference for `InvariantChecker`, sharing no code with it: every
    violated invariant of `state`, as `property: what`, recomputed from every
    pod and node. The workload `workload_id` must have `desired` pods Pending,
    Starting or Running; None skips that count."""
    found = []
    pods, nodes = state.pods, state.nodes
    in_pools = [node for pool in state.pools.values() for node in pool.nodes]
    if len(in_pools) != len(nodes) or {n.node_id: n for n in in_pools} != nodes:
        found.append("node-index: the index does not hold exactly the pools' nodes")
    for pool in state.pools.values():
        for node in pool.nodes:
            if node.state is NodeState.DELETED:
                found.append(f"node-retirement: Deleted node {node.node_id} in a pool")
            listed = [pods.get(pid) for pid in node.bound_pods]
            if any(p is None or p.bound_node != node.node_id for p in listed):
                found.append(f"binding-consistency: node {node.node_id} lists a pod "
                             "that is not a live pod bound to it")
                continue
            used = sum(p.cpu_request_millicores for p in listed)
            if used != node.used or used > pool.node_capacity_millicores:
                found.append(f"capacity-conservation: node {node.node_id} counts "
                             f"{node.used}m, holds {used}m")
            if listed and node.state is not NodeState.READY:
                found.append(f"no-teleportation: node {node.node_id} is "
                             f"{node.state.value} with bound pods")
    holding = (PodState.STARTING, PodState.RUNNING, PodState.TERMINATING)
    replicas = (PodState.PENDING, PodState.STARTING, PodState.RUNNING)
    alive: dict[str, int] = {}
    running: dict[str, int] = {}
    for pid, pod in pods.items():
        if pod.state is PodState.DELETED:
            found.append(f"pod-retirement: Deleted pod {pid} is kept")
        if (pod.state in holding) != (pod.bound_node is not None):
            found.append(f"binding-consistency: pod {pid} is {pod.state.value} "
                         f"with bound_node={pod.bound_node}")
        elif pod.bound_node is not None and (
                pod.bound_node not in nodes or pid not in nodes[pod.bound_node].bound_pods):
            found.append(f"binding-consistency: node {pod.bound_node} does not list pod {pid}")
        alive[pod.workload_id] = alive.get(pod.workload_id, 0) + (pod.state in replicas)
        running[pod.workload_id] = (running.get(pod.workload_id, 0)
                                    + (pod.state is PodState.RUNNING))
    if state.pending != {pid: p for pid, p in pods.items() if p.state is PodState.PENDING}:
        found.append("pod-counts: the pending set is not the Pending pods")
    for name, counted, scanned in (("alive", state.alive_by_workload, alive),
                                   ("running", state.running_by_workload, running)):
        if any(counted.get(w, 0) != scanned.get(w, 0) for w in counted.keys() | scanned):
            found.append(f"pod-counts: {name} counted {counted}, scanned {scanned}")
    bound = sum(p.state in holding for p in pods.values())
    if state.bound_count != bound:
        found.append(f"pod-counts: {state.bound_count} bound counted, {bound} scanned")
    if desired is not None and alive.get(workload_id, 0) != desired:
        found.append(f"replica-accounting: {workload_id} desired {desired}, "
                     f"has {alive.get(workload_id, 0)}")
    return found


# The migration hand-off as a scan of the whole migration.


def running_replacements_scan(mig, state: ClusterState) -> int:
    """Replacements of the migration `mig` that are Running now: a
    replacement that has left `state.pods` is not."""
    return sum(1 for pid in mig.replacements
               if pid in state.pods and state.pods[pid].state is PodState.RUNNING)


def released_old_pods_scan(mig) -> int:
    """Pods the migration `mig` moves away that are no longer alive."""
    return sum(1 for p in mig.old_pods if p.state not in ALIVE)


def old_pods_alive_scan(mig) -> bool:
    """Whether any pod the migration `mig` moves away is still alive."""
    return any(p.state in ALIVE for p in mig.old_pods)


def pick_node_scan(state: ClusterState, request: int):
    """Reference for the node `ClusterState.schedule_pending_pods` binds a
    pod of `request` millicores to, as it was first written: a scan of every
    node of the preferred pool, then of every other pool, for the Ready node
    with the most free capacity, ties to the node id first in string order;
    None if that node does not fit the request in either group."""
    preferred = [state.preferred_pool_id] if state.preferred_pool_id in state.pools else []
    rest = [pid for pid in state.pools if pid not in preferred]
    for group in (preferred, rest):
        best, best_free = None, 0
        for pid in group:
            pool = state.pools[pid]
            capacity = pool.node_capacity_millicores
            for node in pool.nodes:
                if node.state is not NodeState.READY:
                    continue
                free = capacity - node.used
                if best is None or free > best_free or (
                        free == best_free and node.node_id < best.node_id):
                    best, best_free = node, free
        if best is not None and best_free >= request:
            return best
    return None


def schedule_pending_pods_scan(state: ClusterState) -> list[tuple[str, str]]:
    """Reference for `ClusterState.schedule_pending_pods`, which must make
    the same bindings in the same order: each Pending pod in creation order
    to `pick_node_scan`'s node, skipping every request at least as large as
    one that fit nowhere."""
    bindings = []
    unplaceable = None
    for pod in sorted(state.pending.values(), key=lambda p: p.creation_seq):
        request = pod.cpu_request_millicores
        if unplaceable is not None and request >= unplaceable:
            continue
        node = pick_node_scan(state, request)
        if node is None:
            unplaceable = request
            continue
        state._bind(pod, node)
        bindings.append((pod.pod_id, node.node_id))
    return bindings


def shrink_victims_scan(pods: list, count: int) -> list:
    """The pods that releasing `count` of `pods` terminates, in order: alive
    Pending pods first, then the youngest bound ones."""
    return sorted(
        (p for p in pods if p.state in ALIVE),
        key=lambda p: (0 if p.state is PodState.PENDING else 1, -p.creation_seq),
    )[:count]


def utilization_fraction(demand: int, running: int, pod_request: int,
                         ceiling: Fraction) -> Fraction:
    """Reference for `metrics.utilization`: demand over the running replicas'
    requests, capped at `ceiling`, as a Fraction; 0 with no replica running."""
    return min(Fraction(demand, running * pod_request), ceiling) if running else Fraction(0)


def node_rate(cost: CostAccumulator, state: ClusterState) -> int:
    """Reference for the node cost rate that `Observer.observe` sums in its
    pass over the nodes: every node of every pool at its pool's rate, in
    micro-units per second."""
    return sum(
        len(pool.nodes) * cost.node_rate_micro[pool.pool_id]
        for pool in state.pools.values()
    )


def pod_rate(cost: CostAccumulator, state: ClusterState) -> int:
    """Reference for the pod cost rate: every bound pod at the pod rate."""
    return state.bound_count * cost.pod_rate_micro


def observe_scan(observer: Observer, state: ClusterState, demand: int, policy: Policy,
                 t: int) -> MetricSample:
    """Reference for `metrics.Observer.observe`, which must return an equal
    sample: its former body, which scans each pool's nodes once per node state
    and once more for the Ready ones, and converts a Fraction utilization to
    float. The sample is not recorded."""
    running = state.running_replicas(observer.workload_id)
    running_capacity = running * observer.pod_request
    util = utilization_fraction(demand, running, observer.pod_request,
                                observer.saturation_ceiling)
    bound_requests = 0
    ready_capacity = 0
    nodes_by_pool = {}
    for pool_id, pool in state.pools.items():
        nodes_by_pool[pool_id] = tuple(
            sum(1 for n in pool.nodes if n.state is s)
            for s in (NodeState.PROVISIONING, NodeState.READY)
        )
        for node in pool.ready_nodes():
            ready_capacity += pool.node_capacity_millicores
            bound_requests += node.used
    packing = bound_requests / ready_capacity if ready_capacity else 0.0
    cost_rate = (node_rate(observer.cost, state) + pod_rate(observer.cost, state)) / MICRO
    return MetricSample(
        t=t,
        demand_millicores=demand,
        running_replicas=running,
        pending_pods=len(state.pending),
        nodes_by_pool=nodes_by_pool,
        utilization=round(float(util), 6),
        cpu_waste_millicores=max(0, running_capacity - demand),
        cumulative_pod_cost=observer.cost.pod_cost,
        cumulative_node_cost=observer.cost.node_cost,
        packing_efficiency=round(packing, 6),
        utility=round(utility_score(float(util), cost_rate, policy, observer.normalizers), 6),
    )


# The output paths and the HPA formula as they were first written.


def _cell(sample: MetricSample, name: str) -> str:
    value = getattr(sample, name)
    return f"{value:.6f}" if _SAMPLE_TYPES[name] is float else str(value)


def sample_row(sample: MetricSample, pool_order: list[str]) -> list[str]:
    """One metrics.csv row, cell by cell: str() of an int, 6 decimals of a
    float, and the dict field's pairs in pool order."""
    row = []
    for name, typ in _SAMPLE_TYPES.items():
        if typ is dict:
            row += [str(n) for p in pool_order for n in getattr(sample, name)[p]]
        else:
            row.append(_cell(sample, name))
    return row


def write_metrics_csv_cells(samples: list[MetricSample], pool_order: list[str],
                            path: Path) -> None:
    """Reference for `artifacts.write_metrics_csv`, which must write the same
    bytes: every row built by `sample_row` and written by `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(metrics_header(pool_order))
        for sample in samples:
            writer.writerow(sample_row(sample, pool_order))


def format_event_sorted(ev: SimEvent) -> str:
    """Reference for `artifacts.format_event`: every payload's pairs sorted by key."""
    payload = " ".join(f"{k}={v}" for k, v in sorted(ev.payload.items()))
    return f"t={ev.fire_at} kind={ev.kind.value}" + (f" {payload}" if payload else "")


def vus_profile_per_second(phases: list[WorkloadPhase]) -> list[int]:
    """The per-second VU counts that `workload.build_trace` scales into
    demand, one second at a time."""
    out: list[int] = []
    prev = 0
    for phase in phases:
        if phase.ramp == "step":
            out.extend([phase.target_vus] * phase.duration)
        else:
            for k in range(phase.duration):
                frac = (k + 1) / phase.duration
                out.append(round(prev + (phase.target_vus - prev) * frac))
        prev = phase.target_vus
    return out


def build_trace_per_second(workload_id: str, phases: list[WorkloadPhase], vu_cost: float,
                           seed: int, noise_amplitude: float = 0.0) -> DemandTrace:
    """Reference for `workload.build_trace`, which must return the same trace:
    a per-second noisy flag, and one `Random.uniform` call per noisy second."""
    vus = vus_profile_per_second(phases)
    rng = random.Random(seed)
    all_noisy = not any(phase.noisy for phase in phases)
    noisy_index: list[bool] = []
    boundaries: list[tuple[int, str]] = []
    t0 = 0
    for phase in phases:
        boundaries.append((t0, phase.name))
        noisy_index.extend([all_noisy or phase.noisy] * phase.duration)
        t0 += phase.duration

    demand: list[int] = []
    for t, v in enumerate(vus):
        eps = rng.uniform(-noise_amplitude, noise_amplitude) \
            if (noise_amplitude > 0 and noisy_index[t]) else 0.0
        demand.append(max(0, round(v * vu_cost * (1.0 + eps))))
    return DemandTrace(workload_id=workload_id, demand=demand, phase_boundaries=boundaries)


def hpa_desired_fraction(demand: int, running: int, pod_request: int, ceiling: Fraction,
                         target: Fraction, min_replicas: int,
                         max_replicas: int) -> tuple[int, float]:
    """Reference for the HPA tick's replica count and logged utilization:
    ceil(running * util / target) in Fractions, clamped to [min, max]."""
    util = utilization_fraction(demand, running, pod_request, ceiling)
    desired = max(min_replicas, min(max_replicas, math.ceil(running * util / target)))
    return desired, float(util)


_KIND_ORDER = {kind: i for i, kind in enumerate(EventKind)}


def fire_by_successors(ticks: range, samples: range, queued: list[tuple[int, EventKind, dict]],
                       handle: Callable) -> list[tuple[int, EventKind, dict]]:
    """Reference for the periodic streams of `ClusterState.every`: the
    scheme the runner used before them. Every event sits in one heap keyed
    (fire_at, kind rank, rank, seq); each periodic ControlTick enqueues its
    successor when it fires, the controller's at rank 0 and the sampler's at
    rank 1, so in one second the controller's tick fires before the sample.
    `handle(enqueue, now, fired)` is called after each event, with the
    heap's `enqueue(fire_at, kind, payload)`. Returns every event fired, as
    (fire_at, kind, payload), in order; the ticks carry `{"controller":
    "ctl"}` and the samples `{"controller": "sampler"}`."""
    heap: list = []
    seq = 0

    def enqueue(fire_at: int, kind: EventKind, payload: dict, rank: int = 0) -> None:
        nonlocal seq
        heapq.heappush(heap, (fire_at, _KIND_ORDER[kind], rank, seq, (fire_at, kind, payload)))
        seq += 1

    clocks = {"ctl": (ticks, 0), "sampler": (samples, 1)}
    for name, (times, rank) in clocks.items():
        if times:
            enqueue(times[0], EventKind.CONTROL_TICK, {"controller": name}, rank)
    for fire_at, kind, payload in queued:
        enqueue(fire_at, kind, payload)
    fired = []
    while heap:
        now, _, _, _, event = heapq.heappop(heap)
        fired.append(event)
        if event[1] is EventKind.CONTROL_TICK and "controller" in event[2]:
            times, rank = clocks[event[2]["controller"]]
            if now + times.step in times:
                enqueue(now + times.step, EventKind.CONTROL_TICK, event[2], rank)
        handle(enqueue, now, event)
    return fired
