"""Work-count guards: what a layer touches per tick, counted from outside by
wrapping the calls it makes, on the `mas-seasonal` shape at lengths L, 2L
and 4L, on the `mas-migrate` shape at widths W, 2W and 4W, and on the
`hpa-long` shape at two sampling intervals. Each bound is
derived from the layer's own rule, not read off a run, and holds whatever
the host; a path that redoes work over the whole history on every tick, or
over the whole cluster for every pod, exceeds it at the first size already."""

import bisect
import builtins
import dataclasses
import functools
import random
import re

import numpy as np
import pytest
from oracles import smallest_5_smooth_at_least

from scalesim import control, engine, forecasting, planning
from scalesim.runner import run_scenario
from scalesim.scenario import parse_scenario_text

from test_golden_artifacts import OTHER_PODS, _bench_workloads

# The cycle of the benchmark's `mas-seasonal` workload: 480 s, the peak
# asks for about 10 replicas of 250m. L is four cycles.
CYCLE = [(60, 1.0, "linear"), (120, 1.0, "step"), (60, 0.1, "linear"), (240, 0.1, "step")]
LENGTHS = (4, 8, 16)
CONTROL_INTERVAL = 60


def mas_seasonal(cycles: int, period: int | None = None):
    """The `mas-seasonal` shape over `cycles` cycles, each peak drawn within
    8% of 1100 VUs, with the period autodetected or set."""
    rng = random.Random(7)
    lines = [
        "workload = custom",
        "seed = 7",
        "controller = mas_h2",
        "vu_cost = 2",
        "noise_amplitude = 0.05",
        "pod_request = 250",
        f"mas.control_interval = {CONTROL_INTERVAL}",
        "mas.forecaster = seasonal_peak",
    ] + ([f"mas.seasonal_period = {period}"] if period is not None else [])
    index = 0
    for _ in range(cycles):
        peak = 1100 * (1.0 + rng.uniform(-0.08, 0.08))
        for seconds, share, ramp in CYCLE:
            index += 1
            lines += [
                f"phase.{index}.duration = {seconds}",
                f"phase.{index}.target_vus = {round(peak * share)}",
                f"phase.{index}.ramp = {ramp}",
            ]
    return parse_scenario_text("\n".join(lines) + "\n", f"mas-seasonal-{cycles}")


def replay_work(monkeypatch, config) -> list[tuple[int | None, int, int]]:
    """Run `config` and return, per forecast, the seasonal period (None for
    another forecaster), the history length and the history items that the
    forecast sorted or inserted into a sorted list."""
    work = [0]
    forecast, sort, insort = control.forecast, builtins.sorted, bisect.insort

    def counting_sorted(items, *args, **kwargs):
        items = list(items)
        work[0] += len(items)
        return sort(items, *args, **kwargs)

    def counting_insort(group, value, *args, **kwargs):
        work[0] += 1
        return insort(group, value, *args, **kwargs)

    ticks = []

    def counting_forecast(kind, history, now, horizon, **kwargs):
        before = work[0]
        peak = forecast(kind, history, now, horizon, **kwargs)
        ticks.append((getattr(kind, "period", None), len(history), work[0] - before))
        return peak

    monkeypatch.setattr(forecasting, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(forecasting, "insort", counting_insort, raising=False)
    monkeypatch.setattr(control, "forecast", counting_forecast)
    run_scenario(config)
    monkeypatch.undo()
    return ticks


def assert_replay_within_bound(ticks) -> int:
    """The replay's rule: a phase's group is sorted when first visited and
    then only takes the seconds appended since, until the period changes and
    every group is dropped. So while one period lasts, each history item is
    sorted or inserted at most once: by any tick, the work so far is at most
    the history length at the last tick of each earlier period, plus the
    history length now. That is the new seconds per tick, plus one rebuild
    of at most the whole history per period change. Returns the changes."""
    period, done, total, changes = None, 0, 0, 0
    for p, n, w in ticks:
        if p is None:
            assert w == 0
            continue
        if p != period:
            if period is not None:
                changes += 1
                done += last_n
            period = p
        last_n = n
        total += w
        assert total <= done + n, (p, n, total, done)
    assert total > 0
    return changes


@pytest.mark.parametrize("cycles", LENGTHS)
def test_seasonal_replay_touches_each_second_once_per_period(monkeypatch, cycles):
    # A set period never changes, so the whole run sorts or inserts each
    # second of history at most once: about one control interval per tick,
    # where sorting every visited phase on every tick costs an eighth of the
    # history per tick (60 of the 480 phases, each 1/480 of it).
    ticks = replay_work(monkeypatch, mas_seasonal(cycles, period=480))
    assert len(ticks) == cycles * 480 // CONTROL_INTERVAL
    assert assert_replay_within_bound(ticks) == 0
    assert sum(w for _, _, w in ticks) <= ticks[-1][1]


@pytest.mark.parametrize("cycles", LENGTHS)
def test_autodetected_replay_rebuilds_once_per_period_change(monkeypatch, cycles):
    ticks = replay_work(monkeypatch, mas_seasonal(cycles))
    assert len(ticks) == cycles * 480 // CONTROL_INTERVAL
    assert_replay_within_bound(ticks)


@pytest.mark.parametrize("cycles", LENGTHS)
def test_detection_fft_is_the_shortest_5_smooth_length_that_holds_every_lag(
        monkeypatch, cycles):
    # Every detection that gets past its early return makes one forward
    # FFT, of the n-sample history padded to the smallest 5-smooth length
    # >= n + n // 2: long enough that no lag <= n // 2 wraps around.
    rfft, detect = np.fft.rfft, control.detect_period
    ffts, screened = [], []

    def recording_rfft(a, n=None, *args, **kwargs):
        ffts.append((len(a), n))
        return rfft(a, n, *args, **kwargs)

    def recording_detect(values, min_lag, min_correlation):
        if len(values) // 2 >= min_lag:
            screened.append(len(values))
        return detect(values, min_lag, min_correlation)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    monkeypatch.setattr(control, "detect_period", recording_detect)
    run_scenario(mas_seasonal(cycles))
    monkeypatch.undo()
    assert screened and [n for n, _ in ffts] == screened
    for n, size in ffts:
        assert size == smallest_5_smooth_at_least(n + n // 2), (n, size)


# ---------------------------------------------------------------- width
#
# The `mas-migrate` shape (seed 1) with its initial nodes, initial replicas
# and demand scaled: W is half the benchmark's width, about 140 replicas on
# 9 small nodes, so 4W is about twice the benchmark's. Three unmanaged pods
# give every node plan two size classes (600m and 250m).
WIDTHS = (1, 2, 4)


def mas_migrate(width: int):
    """Seed-1 `mas-migrate` at `width` halves of the benchmark's width, with
    the unmanaged pods of the golden `-other` runs."""
    def scale(match):
        return f"{match[1]} = {round(int(match[2]) * width / 2)}"

    text = re.sub(r"^(pool\.small\.initial_nodes|initial_replicas|phase\.\d+\.target_vus)"
                  r" = (\d+)$", scale, _bench_workloads()["mas-migrate"].generate(1), flags=re.M)
    return parse_scenario_text(text + OTHER_PODS, f"mas-migrate-w{width}")


class CountingNodes(list):
    """A pool's node list that counts the nodes its readers reach: every
    node per iteration, one per index read."""

    reached = 0

    def __iter__(self):
        CountingNodes.reached += len(self)
        return super().__iter__()

    def __getitem__(self, i):
        item = super().__getitem__(i)
        CountingNodes.reached += len(item) if isinstance(i, slice) else 1
        return item


class CountingPods(dict):
    """The cluster's pod map, counting the pods reached through `values()`,
    forward or backward, while `counting` is set."""

    counting = False
    reached = 0
    workload = ""

    def values(self):
        return _CountedValues(self)


class _CountedValues:
    def __init__(self, pods):
        self.pods = pods

    def __len__(self):
        return len(self.pods)

    def __iter__(self):
        return self._count(dict.values(self.pods))

    def __reversed__(self):
        return self._count(reversed(dict.values(self.pods)))

    @staticmethod
    def _count(pods):
        for pod in pods:
            CountingPods.reached += CountingPods.counting
            yield pod


def counted_enumerate(iterable, start=0):
    for item in builtins.enumerate(iterable, start):
        counted_enumerate.steps += 1
        yield item


@functools.lru_cache(maxsize=None)
def width_work(width: int) -> dict:
    """Run `mas-migrate` at `width` and return what each width layer did:
    per scheduling pass (nodes reached, cluster nodes, Pending pods), per
    `pack_ffd` call (bins walked, size classes, bins opened) and per tick
    scale-down (pods reached, pods released, live pods, releasable pods)."""
    work = {"passes": [], "packs": [], "shrinks": []}
    state_init = engine.ClusterState.__init__
    schedule = engine.ClusterState.schedule_pending_pods
    pack, tick, release = planning.pack_ffd, control.HierarchicalController.tick, control._release

    def counting_init(self, pools, *args, **kwargs):
        for pool in pools:
            pool.nodes = CountingNodes(pool.nodes)
        state_init(self, pools, *args, **kwargs)
        self.pods = CountingPods(self.pods)

    def counting_schedule(self):
        before, nodes, pending = CountingNodes.reached, len(self.nodes), len(self.pending)
        bindings = schedule(self)
        work["passes"].append((CountingNodes.reached - before, nodes, pending))
        return bindings

    def counting_pack(sizes, bin_capacity):
        classes = len(sizes.counts) if hasattr(sizes, "counts") else len(set(sizes))
        before = counted_enumerate.steps
        bins = pack(sizes, bin_capacity)
        work["packs"].append((counted_enumerate.steps - before, classes, bins))
        return bins

    def counting_tick(self, state, now):
        CountingPods.counting, CountingPods.reached = True, 0
        CountingPods.workload = self.trace.workload_id
        try:
            return tick(self, state, now)
        finally:
            CountingPods.counting = False

    def counting_release(state, pending, bound, count):
        if not CountingPods.counting:
            return release(state, pending, bound, count)
        releasable = sum(1 for p in dict.values(state.pods)
                         if p.workload_id == CountingPods.workload
                         and p.state in (engine.STARTING, engine.RUNNING))
        pods = len(state.pods)
        released = release(state, pending, bound, count)
        CountingPods.counting = False
        work["shrinks"].append((CountingPods.reached, count, pods, releasable))
        return released

    counted_enumerate.steps = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.ClusterState, "__init__", counting_init)
        mp.setattr(engine.ClusterState, "schedule_pending_pods", counting_schedule)
        mp.setattr(planning, "enumerate", counted_enumerate, raising=False)
        mp.setattr(planning, "pack_ffd", counting_pack)
        mp.setattr(control, "pack_ffd", counting_pack)
        mp.setattr(control.HierarchicalController, "tick", counting_tick)
        mp.setattr(control, "_release", counting_release)
        run_scenario(mas_migrate(width))
    return work


@pytest.mark.parametrize("width", WIDTHS)
def test_a_scheduling_pass_reaches_each_node_at_most_once(width):
    # The pass keys each pool group's Ready nodes once, when its first pod
    # needs a node, and then each pod costs a look at the groups' tops and
    # one heap step: at most one reach of each node per pass, and none when
    # nothing is Pending. Scanning every node for every pod it places costs
    # nodes x placed pods.
    passes = width_work(width)["passes"]
    assert sum(pending > 1 for _, _, pending in passes) > 0
    for reached, nodes, pending in passes:
        assert reached <= (nodes if pending else 0), (reached, nodes, pending)


@pytest.mark.parametrize("width", WIDTHS)
def test_packing_walks_the_bins_once_per_size_class(width):
    # Each size class walks the bins open when it starts at most once, and
    # there are never more open bins than the count returned: at most
    # classes x bins steps. Packing item by item walks the bins once per
    # item.
    packs = width_work(width)["packs"]
    assert max(bins for _, _, bins in packs) >= 9 * width / 2
    for steps, classes, bins in packs:
        assert steps <= classes * bins, (steps, classes, bins)


@pytest.mark.parametrize("width", WIDTHS)
def test_a_scale_down_reaches_only_the_pods_it_passes(width):
    # The walk back from the youngest pod takes each Starting or Running pod
    # of the workload it meets until `count` are taken, so it passes at most
    # `count` of them and every other pod: at most count + (pods -
    # releasable). Sorting every pod of the workload reaches all the pods.
    shrinks = width_work(width)["shrinks"]
    assert any(count < releasable for _, count, _, releasable in shrinks)
    for reached, count, pods, releasable in shrinks:
        assert reached <= count + pods - releasable, (reached, count, pods, releasable)


# ---------------------------------------------------------------- samples

def enqueued(config) -> int:
    """How many events a run of `config` puts on the engine's queue."""
    calls = 0
    enqueue = engine.ClusterState.enqueue

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return enqueue(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.ClusterState, "enqueue", counting)
        run_scenario(config)
    return calls


def test_samples_put_nothing_on_the_queue():
    # The sampler is a periodic stream that the engine fires from its range,
    # and the HPA never reads a sample, so halving the sampling interval
    # doubles the samples and leaves every queued event as it was. A sampler
    # that enqueues each sample puts one more event on the queue per sample.
    config = parse_scenario_text(_bench_workloads()["hpa-long"].generate(1), "hpa-long-1")
    sparse = dataclasses.replace(config, sampling_interval=2 * config.sampling_interval)
    assert enqueued(sparse) == enqueued(config)
