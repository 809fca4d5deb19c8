"""Outside-in tracing of one scalesim session (load_scenario + run_scenario).

The benchmark wraps the public entry points of each scalesim module while a
session runs; no file of the simulator changes. Every wrapped call records a
span (name, start, end, parent, size) in memory. After the session the spans
are reduced to the per-layer metrics that BENCHMARK.json declares.

Functions that a module imports by name are wrapped in the importing
namespace, since that is the binding its callers look up; methods are
wrapped on their classes.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Callable, Iterator

from scalesim import control, engine, invariants, metrics, planning, runner, scenario

# Span layout: [name, start, end, parent index or -1, size or None].
NAME, START, END, PARENT, SIZE = range(5)

RUN_SPAN = "runner.run_scenario"
LAYERS = ("engine", "forecasting", "planning", "control", "invariants", "metrics",
          "workload", "runner")


def _first_arg_len(*args, **_kwargs) -> int:
    """Size of detect_period's history and of pack_ffd's RequestSet."""
    return len(args[0])


class LivePods:
    """Exact peak of pods not yet Deleted, kept from outside the engine.

    Pods only come into being through create_pod, so the live count can rise
    only there. Every created pod is kept in a list that may still hold pods
    deleted since; the list is pruned only when its length passes the peak,
    because only then could the true count have set a new peak.
    """

    def __init__(self) -> None:
        self.created = 0
        self.peak = 0
        self._pods: list = []

    def add(self, pod) -> None:
        self.created += 1
        self._pods.append(pod)
        if len(self._pods) > self.peak:
            self._pods = [p for p in self._pods if p.state is not engine.PodState.DELETED]
            self.peak = max(self.peak, len(self._pods))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.live = LivePods()
        self._stack: list[int] = []

    def wrap(self, func: Callable, name: str, size: Callable | None = None,
             after: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    size(*args, **kwargs) if size else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                stack.pop()
                span[END] = clock()

        return traced


def _targets(tracer: Tracer) -> list[tuple[object, str, str, Callable | None, Callable | None]]:
    """(owner, attribute, span name, size, after) for every wrapped entry point."""
    cluster = engine.ClusterState
    mas, hpa = control.HierarchicalController, control.ReactiveController
    return [
        (cluster, "step", "engine.step", None, None),
        (cluster, "enqueue", "engine.enqueue", None, None),
        (cluster, "schedule_pending_pods", "engine.schedule_pending_pods", None, None),
        (cluster, "resize_pool", "engine.resize_pool", None, None),
        (cluster, "replicas", "engine.pod_queries", None, None),
        (cluster, "running_replicas", "engine.pod_queries", None, None),
        (cluster, "pods_of", "engine.pod_queries", None, None),
        (cluster, "create_pod", "engine.create_pod", None, tracer.live.add),
        (cluster, "terminate_pod", "engine.terminate_pod", None, None),
        (control, "detect_period", "forecasting.detect_period", _first_arg_len, None),
        (control, "smoothed_history", "forecasting.smoothed_history", None, None),
        (control, "forecast", "forecasting.forecast", None, None),
        (control, "plan_replicas", "planning.plan_replicas", None, None),
        (control, "plan_nodes", "planning.plan_nodes", None, None),
        (control, "pack_ffd", "planning.pack_ffd", _first_arg_len, None),
        (planning, "pack_ffd", "planning.pack_ffd", _first_arg_len, None),
        (mas, "tick", "control.mas_tick", None, None),
        (hpa, "tick", "control.hpa_tick", None, None),
        (mas, "advance_migration", "control.advance_migration", None, None),
        (mas, "on_policy_switch", "control.on_policy_switch", None, None),
        (invariants.InvariantChecker, "check", "invariants.check", None, None),
        (invariants.InvariantChecker, "check_costs", "invariants.check_costs", None, None),
        (metrics.Observer, "observe", "metrics.observe", None, None),
        (metrics.CostAccumulator, "advance", "metrics.cost_advance", None, None),
        (runner, "write_metrics_csv", "metrics.write", None, None),
        (runner, "write_summary", "metrics.write", None, None),
        (runner, "summarize", "metrics.summarize", None, None),
        (scenario, "load_scenario", "scenario.load", None, None),
        (scenario.ScenarioConfig, "build_trace", "workload.build_trace", None, None),
        (runner, "run_scenario", RUN_SPAN, None, None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore the
    original attributes exactly."""
    saved = []
    try:
        for owner, attr, name, size, after in _targets(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, size, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one traced session to the per-layer metrics.

    `<layer>.self_s` covers the run_scenario call only, so these sum to
    `runner.run_s`; `scenario.load.s` and `workload.build_trace.*` also cover
    the load that comes before the run.
    """
    spans = tracer.spans
    runs = [i for i, s in enumerate(spans) if s[NAME] == RUN_SPAN]
    if len(runs) != 1:
        raise ValueError(f"expected one {RUN_SPAN} span, found {len(runs)}")
    root = runs[0]

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}      # outermost spans only, so nesting counts once
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    sizes: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        mine = duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + mine
        if span[SIZE] is not None:
            sizes.setdefault(name, []).append(span[SIZE])
        parent, nested, under_run = span[PARENT], False, i == root
        while parent >= 0:
            nested = nested or spans[parent][NAME] == name
            under_run = under_run or parent == root
            parent = spans[parent][PARENT]
        if not nested:
            total[name] = total.get(name, 0.0) + duration
        if under_run:
            layer_self[name.split(".")[0]] += mine

    first_step = next((i for i, s in enumerate(spans) if s[NAME] == "engine.step"), len(spans))
    run_s = spans[root][END] - spans[root][START]
    checks = total.get("invariants.check", 0.0) + total.get("invariants.check_costs", 0.0)

    def mean_size(name: str) -> float:
        return statistics.fmean(sizes[name]) if name in sizes else 0.0

    out = {
        "engine.step.calls": calls.get("engine.step", 0),
        "engine.step.self_s": self_s.get("engine.step", 0.0),
        "engine.enqueue.calls": calls.get("engine.enqueue", 0),
        "engine.enqueue.upfront": sum(
            1 for s in spans[:first_step] if s[NAME] == "engine.enqueue"),
        "engine.pods_created": tracer.live.created,
        "engine.live_pods_peak": tracer.live.peak,
        "engine.live_share": tracer.live.peak / tracer.live.created if tracer.live.created else 0.0,
        "forecasting.detect_period.mean_n": mean_size("forecasting.detect_period"),
        "planning.pack_ffd.mean_items": mean_size("planning.pack_ffd"),
        "control.mas_tick.self_s": self_s.get("control.mas_tick", 0.0),
        "control.hpa_tick.self_s": self_s.get("control.hpa_tick", 0.0),
        "invariants.share": checks / run_s,
        "runner.run_s": run_s,
    }
    for name in ("engine.schedule_pending_pods", "engine.resize_pool", "engine.pod_queries",
                 "forecasting.detect_period", "planning.pack_ffd", "control.advance_migration",
                 "invariants.check", "metrics.observe", "metrics.cost_advance",
                 "workload.build_trace"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("forecasting.smoothed_history", "forecasting.forecast", "planning.plan_replicas",
                 "planning.plan_nodes", "invariants.check_costs", "metrics.write", "scenario.load"):
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("control.mas_tick", "control.hpa_tick", "control.on_policy_switch"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    return out
