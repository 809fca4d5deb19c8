"""The files a run writes and `compare` reads, each declared once: its name
(OUTPUT_FILES), its line grammar, its writer and its reader. The event log
holds a `format_event` line per fired event, the decision log an
`encode_record` line per record, the metrics table a `metrics_header` line and
a row per `MetricSample`, and the summary a `key: value` line per `RunSummary`
field. `compare_runs` reads two runs through `read_summary` and
`read_metrics_csv`. `write_lines` writes every file, and `_read_text` is the
one place that opens a run file to read it, so a damaged file is named with
its line. Only the engine's events and the observer's samples are imported:
reading the files loads no controller, runner or forecaster.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import typing
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

from .engine import PROVISIONING, READY, EventKind, SimEvent
from .metrics import MetricSample

EVENTS_LOG, DECISIONS_LOG, METRICS_CSV, SUMMARY_TXT = OUTPUT_FILES = (
    "events.log", "decisions.log", "metrics.csv", "summary.txt")
COMPARISON_TXT, COMPARISON_CSV = "comparison.txt", "comparison.csv"


# Lines per write: a write per line costs more than joining them all, and
# joining them all holds a second copy of the whole file.
_LINES_PER_WRITE = 512


def write_lines(path: Path, lines: Iterable[str]) -> None:
    """Each line followed by a newline, written a chunk of lines at a time;
    no lines still give one newline, as joining them would."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(islice(lines, _LINES_PER_WRITE)) + "\n")
        while chunk := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(chunk) + "\n")


def _read_text(path: Path) -> str:
    """The text of the run file at `path`, or a ValueError that names the
    file, and the line of the first byte that is not UTF-8."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text "
                         f"(byte 0x{data[exc.start]:02x} at offset {exc.start})") from None


def _read_field(where: str, values: dict[str, str], name: str, typ: type):
    """values[name] read as `typ`, or a ValueError that says where and what."""
    try:
        return typ(values[name])
    except ValueError:
        raise ValueError(
            f"{where}: {name}: cannot read {values[name]!r} as {typ.__name__}") from None


def _field_types(cls) -> dict[str, type]:
    """Field name -> type, in field order; a generic type reads as its origin
    (dict[str, tuple] as dict)."""
    hints = typing.get_type_hints(cls)
    return {f.name: typing.get_origin(hints[f.name]) or hints[f.name] for f in fields(cls)}


# ------------------------------------------------------------------ the logs

# The text of each event kind.
_KIND_TEXT = {kind: kind.value for kind in EventKind}


def format_event(ev: SimEvent) -> str:
    """`t=<fire_at> kind=<kind>`, then the payload's `key=value` pairs by key."""
    payload = ev.payload
    if len(payload) == 1:
        ((key, value),) = payload.items()
        return f"t={ev.fire_at} kind={_KIND_TEXT[ev.kind]} {key}={value}"
    pairs = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
    return f"t={ev.fire_at} kind={_KIND_TEXT[ev.kind]}" + (f" {pairs}" if pairs else "")


def stream_line(payload: dict) -> str:
    """The line of a ControlTick carrying `payload`, after its `t=<fire_at>`:
    the same for every event of one periodic stream."""
    return format_event(SimEvent(0, EventKind.CONTROL_TICK, payload)).removeprefix("t=0")


# One decision record's line, shared by every record. Records are acyclic, so
# an encoder that skips json.dumps's circular-reference check writes the same
# bytes for less.
encode_record = json.JSONEncoder(check_circular=False).encode


# --------------------------------------------------------- the metrics table

# Node states counted per pool, in the order of a nodes_by_pool tuple.
_NODE_STATES = (PROVISIONING, READY)

# One column per MetricSample field, in field order. A float is written with 6
# decimals, and the dict field (nodes_by_pool) expands to one column per pool
# and node state.
_SAMPLE_TYPES = _field_types(MetricSample)

# The %-format of one cell, by its field's type. compare's aligned cells use it
# too, so that they read as the table writes them.
_CELL = {name: "%.6f" if typ is float else "%s" for name, typ in _SAMPLE_TYPES.items()}


def metrics_header(pool_order: list[str]) -> list[str]:
    cols = []
    for name, typ in _SAMPLE_TYPES.items():
        if typ is dict:
            cols += [f"nodes_{p}_{s.value.lower()}" for p in pool_order for s in _NODE_STATES]
        else:
            cols.append(name)
    return cols


def _csv_line(cells: list[str]) -> str:
    """`cells` as one CSV line, quoted as csv.writer quotes them."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(cells)
    return buffer.getvalue()


def _row_formatter(pool_order: list[str]) -> Callable[[MetricSample], str]:
    """The row of a sample, for one pool order: one %-template for the whole
    row, filled from one tuple of the scalar fields before the dict field,
    its (provisioning, ready) pairs in pool order, and the scalar fields
    after it. No cell needs quoting: every one is a number."""
    names = list(_SAMPLE_TYPES)
    split = names.index("nodes_by_pool")
    head, tail = attrgetter(*names[:split]), attrgetter(*names[split + 1:])
    cells = [_CELL[name] for name in names]
    cells[split:split + 1] = ["%s"] * (len(pool_order) * len(_NODE_STATES))
    template = ",".join(cells)

    def row(sample: MetricSample) -> str:
        cells = head(sample)
        nodes = sample.nodes_by_pool
        for pool_id in pool_order:
            cells += nodes[pool_id]
        return template % (cells + tail(sample))

    return row


def write_metrics_csv(samples: list[MetricSample], pool_order: list[str], path: Path) -> None:
    write_lines(path, chain([_csv_line(metrics_header(pool_order))],
                            map(_row_formatter(pool_order), samples)))


def read_metrics_csv(path: Path) -> tuple[list[str], list[MetricSample]]:
    """The table's pool order and samples, what write_metrics_csv writes it from."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty, no header line")
        pool_order = [c[len("nodes_"):-len("_provisioning")]
                      for c in header if c.startswith("nodes_") and c.endswith("_provisioning")]
        missing = [c for c in metrics_header(pool_order) if c not in header]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column")
        samples = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where} has {len(row)} cells, not {len(header)}")
            vals = dict(zip(header, row))
            samples.append(MetricSample(**{
                name: {
                    p: tuple(_read_field(where, vals, f"nodes_{p}_{s.value.lower()}", int)
                             for s in _NODE_STATES)
                    for p in pool_order
                } if typ is dict else _read_field(where, vals, name, typ)
                for name, typ in _SAMPLE_TYPES.items()
            }))
    except csv.Error as exc:        # a cell past csv.field_size_limit(), say
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return pool_order, samples


# --------------------------------------------------------------- the summary

# Marks a RunSummary field that compare leaves out of its table.
_NOT_COMPARED = {"compared": False}


@dataclass
class RunSummary:
    """The summary, one line per field. compare tabulates every int or float
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


def summarize(scenario_id: str, controller: str, seed: int, duration: int,
              samples: list[MetricSample], sampling_interval: int, migration_downtime: int,
              migrations: int, total_node_cost: int, total_pod_cost: int,
              threshold: float = 0.8) -> RunSummary:
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
    write_lines(path, (f"{f.name}: {getattr(summary, f.name)}" for f in fields(RunSummary)))


_SUMMARY_TYPES = _field_types(RunSummary)


def read_summary(path: Path) -> RunSummary:
    lines = dict(line.split(": ", 1) for line in _read_text(path).splitlines() if ": " in line)
    missing = [name for name in _SUMMARY_TYPES if name not in lines]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} line")
    return RunSummary(**{name: _read_field(str(path), lines, name, typ)
                         for name, typ in _SUMMARY_TYPES.items()})


# ------------------------------------------------------------ the comparison

@dataclass
class ComparisonReport:
    deltas: dict[str, int | float]  # an int field's delta is exact
    sustained_stress_ratio: float   # mean utilization of run B over run A
    peak_load_ratio: float          # max utilization of run B over run A
    lines: list[str]                # the comparison text
    aligned_rows: list[list[str]]   # the aligned table, under aligned_header
    aligned_header: list[str]


# Metrics columns that the aligned table puts side by side, run A then run B.
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
    summary_a, summary_b = read_summary(run_a / SUMMARY_TXT), read_summary(run_b / SUMMARY_TXT)
    if summary_a.scenario_id != summary_b.scenario_id:
        raise ValueError(
            f"scenario mismatch: {summary_a.scenario_id!r} vs {summary_b.scenario_id!r}"
        )
    if summary_a.seed != summary_b.seed:
        raise ValueError(f"seed mismatch: {summary_a.seed} vs {summary_b.seed}")

    values = {name: (getattr(summary_a, name), getattr(summary_b, name))
              for name in _NUMERIC_SUMMARY_FIELDS}
    deltas = {name: b - a if _SUMMARY_TYPES[name] is int else float(b) - float(a)
              for name, (a, b) in values.items()}
    mean_a, max_a = summary_a.mean_utilization, summary_a.max_utilization
    stress_ratio = summary_b.mean_utilization / mean_a if mean_a else 0.0
    peak_ratio = summary_b.max_utilization / max_a if max_a else 0.0

    _, samples_a = read_metrics_csv(run_a / METRICS_CSV)
    _, samples_b = read_metrics_csv(run_b / METRICS_CSV)
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
        # An int delta is not made a float, which could overflow; below 2**53 :.6f wrote the same.
        cell = f"{deltas[name]}.000000" if isinstance(deltas[name], int) else f"{deltas[name]:.6f}"
        lines.append(f"{name:<28}{a:>16}{b:>16}{cell:>16}")
    lines += [
        "",
        "headline ratios (interpretation-dependent; definitions documented in README):",
        f"  sustained_stress_ratio (mean util B/A): {stress_ratio:.6f}",
        f"  peak_load_ratio (max util B/A): {peak_ratio:.6f}",
    ]
    return ComparisonReport(deltas, round(stress_ratio, 6), round(peak_ratio, 6), lines, rows,
                            header)


def write_comparison(report: ComparisonReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_lines(out_dir / COMPARISON_TXT, report.lines)
    write_lines(out_dir / COMPARISON_CSV,
                map(_csv_line, [report.aligned_header, *report.aligned_rows]))
