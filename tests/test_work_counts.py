"""Work-count guards: what a layer touches per tick, counted from outside by
wrapping the calls it makes, on one workload shape at lengths L, 2L and 4L.
Each bound is derived from the layer's own rule, not read off a run, and
holds whatever the host; a path that redoes work over the whole history on
every tick exceeds it at the first length already."""

import bisect
import builtins
import random

import numpy as np
import pytest
from oracles import smallest_5_smooth_at_least

from scalesim import control, forecasting
from scalesim.runner import run_scenario
from scalesim.scenario import parse_scenario_text

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
