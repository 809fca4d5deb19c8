"""Per-tick observation, exact cost accounting, utility scoring, CSV export,
and side-by-side run comparison.

Costs are integrated between consecutive events in integer micro-units, so the
accounting identity (node-seconds x rate == cumulative cost) holds exactly.
"""

from __future__ import annotations

import csv
import statistics
import typing
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

from .engine import PROVISIONING, READY, ClusterState
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


# Node states counted per pool, in the order of a nodes_by_pool tuple.
_NODE_STATES = (PROVISIONING, READY)


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
        rounded as metrics.csv keeps it, and the cost rate in units per
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


# --------------------------------------------------------------------- files

def _field_types(cls) -> dict[str, type]:
    """Field name -> type, in field order; a generic type reads as its origin
    (dict[str, tuple] as dict)."""
    hints = typing.get_type_hints(cls)
    return {f.name: typing.get_origin(hints[f.name]) or hints[f.name] for f in fields(cls)}


# metrics.csv has one column per MetricSample field, in field order. A float is
# written with 6 decimals, and the dict field (nodes_by_pool) expands to one
# column per pool and node state.
_SAMPLE_TYPES = _field_types(MetricSample)

# The %-format of one cell, by its field's type. compare's aligned cells use it
# too, so that they read as metrics.csv writes them.
FLOAT_CELL = "%.6f"
_CELL = {name: FLOAT_CELL if typ is float else "%s" for name, typ in _SAMPLE_TYPES.items()}


def metrics_header(pool_order: list[str]) -> list[str]:
    cols = []
    for name, typ in _SAMPLE_TYPES.items():
        if typ is dict:
            cols += [f"nodes_{p}_{s.value.lower()}" for p in pool_order for s in _NODE_STATES]
        else:
            cols.append(name)
    return cols


def _row_formatter(pool_order: list[str]) -> Callable[[MetricSample], str]:
    """The metrics.csv line of a sample, newline included, for one pool order:
    one %-template for the whole row, filled from one tuple of the scalar
    fields before the dict field, its (provisioning, ready) pairs in pool
    order, and the scalar fields after it. No cell needs quoting: every one
    is a number."""
    names = list(_SAMPLE_TYPES)
    split = names.index("nodes_by_pool")
    head, tail = attrgetter(*names[:split]), attrgetter(*names[split + 1:])
    cells = [_CELL[name] for name in names]
    cells[split:split + 1] = ["%s"] * (len(pool_order) * len(_NODE_STATES))
    template = ",".join(cells) + "\n"

    def row(sample: MetricSample) -> str:
        cells = head(sample)
        nodes = sample.nodes_by_pool
        for pool_id in pool_order:
            cells += nodes[pool_id]
        return template % (cells + tail(sample))

    return row


def write_metrics_csv(samples: list[MetricSample], pool_order: list[str], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(metrics_header(pool_order))
        fh.writelines(map(_row_formatter(pool_order), samples))


def _read_field(path: Path, values: dict[str, str], name: str, typ: type):
    """values[name] read as `typ`, or a ValueError naming the file and field."""
    try:
        return typ(values[name])
    except ValueError:
        raise ValueError(
            f"{path}: {name}: cannot read {values[name]!r} as {typ.__name__}") from None


def read_metrics_csv(path: Path) -> tuple[list[str], list[MetricSample]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty, no header line")
        pool_order = [
            c[len("nodes_"):-len("_provisioning")]
            for c in header if c.startswith("nodes_") and c.endswith("_provisioning")
        ]
        missing = [c for c in metrics_header(pool_order) if c not in header]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column")
        samples = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, not {len(header)}")
            vals = dict(zip(header, row))
            samples.append(MetricSample(**{
                name: {
                    p: tuple(_read_field(path, vals, f"nodes_{p}_{s.value.lower()}", int)
                             for s in _NODE_STATES)
                    for p in pool_order
                } if typ is dict else _read_field(path, vals, name, typ)
                for name, typ in _SAMPLE_TYPES.items()
            }))
    return header, samples


# Marks a RunSummary field that compare leaves out of its table.
_NOT_COMPARED = {"compared": False}


@dataclass
class RunSummary:
    """summary.txt, one line per field. compare tabulates every int or float
    field not marked _NOT_COMPARED."""

    scenario_id: str
    controller: str
    seed: int = field(metadata=_NOT_COMPARED)
    duration: int = field(metadata=_NOT_COMPARED)
    mean_utilization: float
    median_utilization: float
    p95_utilization: float
    max_utilization: float
    max_replicas: int
    total_node_cost: int       # micro-units
    total_pod_cost: int        # micro-units
    time_above_threshold: int  # seconds with utilization > threshold
    utilization_threshold: float = field(metadata=_NOT_COMPARED)
    utility_integral: float    # sum of per-sample utility x sampling interval
    migration_downtime: int    # seconds of capacity deficit during switches
    migrations: int = field(metadata=_NOT_COMPARED)


def summarize(
    scenario_id: str,
    controller: str,
    seed: int,
    duration: int,
    samples: list[MetricSample],
    sampling_interval: int,
    migration_downtime: int,
    migrations: int,
    total_node_cost: int,
    total_pod_cost: int,
    threshold: float = 0.8,
) -> RunSummary:
    utils = [s.utilization for s in samples] or [0.0]
    ordered = sorted(utils)
    n = len(ordered)
    p95 = ordered[min(n - 1, max(0, -(-95 * n // 100) - 1))]
    # statistics.median's rule, on the list already sorted.
    median = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return RunSummary(
        scenario_id=scenario_id,
        controller=controller,
        seed=seed,
        duration=duration,
        mean_utilization=round(statistics.fmean(utils), 6),
        median_utilization=round(median, 6),
        p95_utilization=round(p95, 6),
        max_utilization=round(max(utils), 6),
        max_replicas=max((s.running_replicas for s in samples), default=0),
        total_node_cost=total_node_cost,
        total_pod_cost=total_pod_cost,
        time_above_threshold=sampling_interval * sum(1 for u in utils if u > threshold),
        utilization_threshold=threshold,
        utility_integral=round(sampling_interval * sum(s.utility for s in samples), 6),
        migration_downtime=migration_downtime,
        migrations=migrations,
    )


def write_summary(summary: RunSummary, path: Path) -> None:
    lines = [f"{f.name}: {getattr(summary, f.name)}" for f in fields(RunSummary)]
    path.write_text("\n".join(lines) + "\n")


_SUMMARY_TYPES = _field_types(RunSummary)


def read_summary(path: Path) -> RunSummary:
    lines = dict(line.split(": ", 1) for line in path.read_text().splitlines() if ": " in line)
    missing = [name for name in _SUMMARY_TYPES if name not in lines]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} line")
    return RunSummary(**{name: _read_field(path, lines, name, typ)
                         for name, typ in _SUMMARY_TYPES.items()})


# ----------------------------------------------------------------- comparison

@dataclass
class ComparisonReport:
    deltas: dict[str, float]
    sustained_stress_ratio: float   # mean utilization of run B over run A
    peak_load_ratio: float          # max utilization of run B over run A
    text: str
    aligned_rows: list[list[str]] = field(default_factory=list)
    aligned_header: list[str] = field(default_factory=list)


# metrics.csv columns that comparison.csv puts side by side, run A then run B.
_ALIGNED = ("utilization", "running_replicas", "pending_pods",
            "cumulative_node_cost", "cumulative_pod_cost")

_NUMERIC_SUMMARY_FIELDS = [
    f.name for f in fields(RunSummary)
    if _SUMMARY_TYPES[f.name] in (int, float) and f.metadata.get("compared", True)
]


def compare_runs(run_a: Path, run_b: Path) -> ComparisonReport:
    """Compare two completed run directories produced from the same scenario
    and seed. Deltas are B minus A; ratios are B over A."""
    run_a, run_b = Path(run_a), Path(run_b)
    summary_a = read_summary(run_a / "summary.txt")
    summary_b = read_summary(run_b / "summary.txt")
    if summary_a.scenario_id != summary_b.scenario_id:
        raise ValueError(
            f"scenario mismatch: {summary_a.scenario_id!r} vs {summary_b.scenario_id!r}"
        )
    if summary_a.seed != summary_b.seed:
        raise ValueError(f"seed mismatch: {summary_a.seed} vs {summary_b.seed}")

    values = {name: (getattr(summary_a, name), getattr(summary_b, name))
              for name in _NUMERIC_SUMMARY_FIELDS}
    deltas = {name: float(b) - float(a) for name, (a, b) in values.items()}
    mean_a, max_a = summary_a.mean_utilization, summary_a.max_utilization
    stress_ratio = summary_b.mean_utilization / mean_a if mean_a else 0.0
    peak_ratio = summary_b.max_utilization / max_a if max_a else 0.0

    _, samples_a = read_metrics_csv(run_a / "metrics.csv")
    _, samples_b = read_metrics_csv(run_b / "metrics.csv")
    by_t_b = {s.t: s for s in samples_b}
    header = ["t", "demand_millicores"] + [f"{n}_{run}" for n in _ALIGNED for run in "ab"]
    rows = [
        [str(sa.t), str(sa.demand_millicores)]
        + [_CELL[n] % getattr(s, n) for n in _ALIGNED for s in (sa, by_t_b[sa.t])]
        for sa in samples_a if sa.t in by_t_b
    ]

    lines = [
        f"run A: {summary_a.controller} | run B: {summary_b.controller} "
        f"| scenario {summary_a.scenario_id} seed {summary_a.seed}",
        "",
        f"{'metric':<28}{'A':>16}{'B':>16}{'delta (B-A)':>16}",
    ]
    for name, (a, b) in values.items():
        lines.append(f"{name:<28}{a:>16}{b:>16}{deltas[name]:>16.6f}")
    lines += [
        "",
        "headline ratios (interpretation-dependent; definitions documented in README):",
        f"  sustained_stress_ratio (mean util B/A): {stress_ratio:.6f}",
        f"  peak_load_ratio (max util B/A): {peak_ratio:.6f}",
    ]
    return ComparisonReport(
        deltas=deltas,
        sustained_stress_ratio=round(stress_ratio, 6),
        peak_load_ratio=round(peak_ratio, 6),
        text="\n".join(lines) + "\n",
        aligned_rows=rows,
        aligned_header=header,
    )


def write_comparison(report: ComparisonReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.txt").write_text(report.text)
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.aligned_header)
        writer.writerows(report.aligned_rows)
