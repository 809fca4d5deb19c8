"""Forecaster and smoothing tests, including the zero-error seasonal replay,
the equivalence of the peak forecast with the max of the per-second one, of
replay from carried phase groups with sorting on every call, and of screened
period detection with the full lag scan, and the FFT length that keeps the
screen's autocorrelation free of wrap-around."""

import math
import random
from array import array
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    detect_period_scan,
    forecast_per_second,
    seasonal_sorted,
    smallest_5_smooth_at_least,
    smoothed_pairs,
)

from scalesim import control, forecasting
from scalesim.forecasting import (
    MovingAverage,
    Naive,
    PhaseGroups,
    SeasonalPeak,
    detect_period,
    forecast,
    smoothed_history,
)
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario
from scalesim.workload import build_trace, heartbeat_phases

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def per_second(kind, history, now, horizon):
    """The forecast for each second of (now, now + horizon], one horizon-1
    forecast per second from the same history."""
    return [forecast(kind, history, t, 1) for t in range(now, now + horizon)]


def assert_matches_oracle(kind, history, now, horizon):
    pairs = list(enumerate(history))
    oracle = forecast_per_second(kind, pairs, now, horizon)
    assert forecast(kind, history, now, horizon) == max(v for _, v in oracle.predicted)


@st.composite
def forecast_cases(draw):
    """A dense history, a forecaster, and a (now, horizon) to ask it about:
    seasonal periods up to the history length, quantiles up to 1.0, now at
    or past the end, horizons up to 3 periods."""
    history = draw(st.lists(
        st.one_of(st.integers(0, 5000), st.floats(0.0, 1e6, allow_nan=False)),
        min_size=1, max_size=150,
    ))
    n = len(history)
    kind = draw(st.one_of(
        st.just(Naive()),
        st.builds(MovingAverage, st.integers(1, 2 * n)),
        st.builds(SeasonalPeak, st.integers(1, n),
                  st.one_of(st.sampled_from([0.05, 0.5, 0.95, 1.0]),
                            st.floats(0.0, 1.0, exclude_min=True))),
    ))
    period = kind.period if isinstance(kind, SeasonalPeak) else 50
    now = n + draw(st.integers(0, 2 * period))
    horizon = draw(st.integers(1, 3 * period))
    return kind, history, now, horizon


class TestForecasters:
    def test_naive_flat_line_at_last_value(self):
        history = [600, 700, 800]
        assert forecast(Naive(), history, now=3, horizon=5) == 800
        assert per_second(Naive(), history, now=3, horizon=5) == [800] * 5

    def test_moving_average_mean_of_window(self):
        assert forecast(MovingAverage(window=3), [200, 600, 800, 1000], now=4, horizon=3) == 800

    def test_moving_average_short_history_uses_all(self):
        assert forecast(MovingAverage(window=10), [100, 300], now=2, horizon=2) == 200

    def test_seasonal_peak_replays_prior_cycle(self):
        # History: one full heartbeat cycle plus change; horizon spans the
        # next peak. The realized next-cycle max is the oracle.
        trace = build_trace("web", heartbeat_phases(), 2, 1)
        history = [float(d) for d in trace.demand[:300]]
        peak = forecast(SeasonalPeak(period=300, quantile=1.0), history, now=300, horizon=300)
        realized_peak = max(trace.demand[301:601])
        assert realized_peak == 800
        assert peak == realized_peak

    def test_seasonal_peak_zero_error_after_one_period(self):
        # Post-first-cycle peaks of the noise-free heartbeat are predicted
        # exactly once one 240 s period of history exists.
        trace = build_trace("web", heartbeat_phases(), 2, 1)
        for now in (240, 480):
            history = [float(d) for d in trace.demand[:now]]
            peak = forecast(SeasonalPeak(period=240, quantile=0.95), history, now=now, horizon=240)
            realized = max(trace.demand[now:now + 240])
            assert peak == realized == 800

    def test_seasonal_exact_on_perfectly_periodic_trace(self):
        pattern = [100, 400, 900, 400, 100, 50]
        values = pattern * 4
        kind = SeasonalPeak(period=6, quantile=1.0)
        predicted = per_second(kind, values, now=len(values), horizon=12)
        assert predicted == [pattern[t % 6] for t in range(25, 37)]
        assert forecast(kind, values, now=len(values), horizon=12) == 900

    def test_seasonal_below_one_period_rejected(self):
        # The controller plans a shorter history with Naive, over raw demand.
        with pytest.raises(ValueError, match="shorter than the period 100"):
            forecast(SeasonalPeak(period=100, quantile=1.0), [10, 20, 999], now=3, horizon=4)

    @settings(max_examples=300, deadline=None)
    @given(case=forecast_cases(), half_life=st.integers(1, 60))
    def test_peak_equals_max_of_predicted(self, case, half_life):
        # The peak is the max of what the per-second reference predicts, and
        # smoothing a list gives the reference's levels, bit for bit.
        kind, history, now, horizon = case
        assert_matches_oracle(kind, history, now, horizon)
        pairs = list(enumerate(history))
        assert smoothed_history(history, half_life) == [
            x for _, x in smoothed_pairs(pairs, half_life)
        ]

    def test_every_mas_fixture_tick_matches_per_second_oracle(self, monkeypatch):
        # Each tick extends the smoothed history it carries; after every
        # tick the whole of it must equal the reference smoother run over
        # the whole raw history, and every forecast, made with the phase
        # groups the controller carries, its per-second oracle.
        forecasts, smooths = [], []
        tick = control.HierarchicalController.tick

        def record_forecast(kind, history, now, horizon, *, groups):
            peak = forecast(kind, history, now, horizon, groups=groups)
            forecasts.append((kind, list(history), now, horizon, peak))
            return peak

        def record_tick(self, state, now):
            record = tick(self, state, now)
            smooths.append((list(self.smoothed), self.trace.demand[:now],
                            self.config.smoothing_half_life))
            return record

        monkeypatch.setattr(control, "forecast", record_forecast)
        monkeypatch.setattr(control.HierarchicalController, "tick", record_tick)
        for name in ("heartbeat-mas", "flash-sale-mas"):
            run_scenario(load_scenario(FIXTURES / f"{name}.scn"))
        assert forecasts and len(forecasts) == sum(1 for _, raw, _ in smooths if raw)
        for kind, history, now, horizon, peak in forecasts:
            assert_matches_oracle(kind, history, now, horizon)
            assert peak == forecast(kind, history, now, horizon)
        for smoothed, raw, half_life in smooths:
            assert smoothed == [x for _, x in smoothed_pairs(list(enumerate(raw)), half_life)]

    @settings(max_examples=300, deadline=None)
    @given(
        history=st.lists(
            st.one_of(st.integers(0, 5000), st.floats(0.0, 1e6, allow_nan=False)),
            max_size=120,
        ),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        half_life=st.integers(1, 60),
    )
    def test_smoothing_continued_from_the_last_level_equals_one_shot(
            self, history, cuts, half_life):
        # The history smoothed in parts, each part from the last level of
        # the ones before it, bit for bit.
        bounds = sorted({min(c, len(history)) for c in cuts}) + [len(history)]
        parts, start = [], 0
        for end in bounds:
            parts += smoothed_history(history[start:end], half_life,
                                      parts[-1] if parts else None)
            start = end
        one_shot = smoothed_history(history, half_life)
        assert [x.hex() for x in parts] == [x.hex() for x in one_shot]

    def test_deterministic(self):
        rng = random.Random(3)
        values = [rng.randint(0, 999) for _ in range(50)]
        a = forecast(SeasonalPeak(10, 0.9), values, now=50, horizon=20)
        b = forecast(SeasonalPeak(10, 0.9), values, now=50, horizon=20)
        assert a == b

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            forecast(Naive(), [], now=5, horizon=10)

    def test_history_must_precede_now(self):
        with pytest.raises(ValueError):
            forecast(Naive(), [1, 2, 3], now=2, horizon=10)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MovingAverage(0)
        with pytest.raises(ValueError):
            SeasonalPeak(0)
        with pytest.raises(ValueError):
            SeasonalPeak(10, 0.0)
        with pytest.raises(ValueError):
            SeasonalPeak(10, 1.5)


class TestPhaseGroups:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(0, 20), st.integers(0, 5000),
                      st.floats(0.0, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 7.0])),
            min_size=1, max_size=200,
        ),
        periods=st.lists(st.integers(1, 60), min_size=1, max_size=3),
        ticks=st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 2), st.integers(0, 60),
                      st.integers(1, 180)),
            min_size=2, max_size=40,
        ),
        quantile=st.one_of(st.sampled_from([0.05, 0.5, 0.95, 1.0]),
                           st.floats(0.0, 1.0, exclude_min=True)),
    )
    # The period changes mid-history, and back.
    @example(values=[float(i % 7) for i in range(60)], periods=[5, 7],
             ticks=[(12, 0, 0, 5), (12, 1, 3, 7), (12, 0, 1, 12), (24, 1, 0, 30)],
             quantile=0.5)
    # The max, on values that tie.
    @example(values=[3.0, 1.0, 3.0, -0.0, 0.0, 2.0] * 6, periods=[4],
             ticks=[(5, 0, 0, 4), (9, 0, 2, 9), (22, 0, 0, 1)], quantile=1.0)
    def test_replay_from_carried_groups_equals_sorting_every_call(
            self, values, periods, ticks, quantile):
        # A history grown tick by tick in chunks, as the controller grows
        # its smoothed one, forecast from groups carried across the ticks;
        # each tick picks one of the periods, so the period may change, and
        # a tick's period is at most its history.
        history, groups, taken = array("d"), PhaseGroups(), 0
        for chunk, which, gap, horizon in ticks:
            if taken == len(values):
                break
            history.extend(values[taken:taken + chunk])
            taken = len(history)
            kind = SeasonalPeak(min(periods[which % len(periods)], len(history)), quantile)
            now = len(history) + gap
            assert forecast(kind, history, now, horizon, groups=groups) == seasonal_sorted(
                kind, list(history), now, horizon), (kind, now, horizon)


class TestFftLength:
    def test_fft_length_is_the_smallest_5_smooth_length_at_least_m(self):
        for m in range(1, 10_001):
            assert forecasting._fft_length(m) == smallest_5_smooth_at_least(m), m

    @staticmethod
    def circular_and_direct(y, size):
        """The cross term of every lag k <= n // 2 from an FFT of length
        `size`, and the direct sum of y[i] * y[i + k]."""
        n = len(y)
        spectrum = np.fft.rfft(y, size)
        circular = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[:n // 2 + 1]
        direct = np.array([np.dot(y[:n - k], y[k:]) for k in range(n // 2 + 1)])
        return circular, direct

    @pytest.mark.parametrize("n", [4, 5, 17, 120, 121, 1000, 1001, 3541])
    def test_no_lag_wraps_at_n_plus_half_n(self, n):
        # Within the screen's own rounding bound, for every lag it scores,
        # at exactly n + n // 2 and at the length detect_period uses.
        y = np.random.default_rng(n).normal(300.0, 200.0, n)
        y -= y.mean()
        bound = forecasting._SCREEN_ERROR * np.finfo(float).eps * np.dot(y, y)
        for size in (n + n // 2, forecasting._fft_length(n + n // 2)):
            circular, direct = self.circular_and_direct(y, size)
            assert np.all(np.abs(circular - direct) <= bound), (n, size)

    @pytest.mark.parametrize("n", [4, 5, 17, 120, 121, 1000, 1001])
    def test_one_short_of_n_plus_half_n_lag_half_n_wraps(self, n):
        # Negative control: one sample shorter, the last lag picks up the
        # wrapped term y[n - 1] * y[0], and no other lag does.
        y = np.random.default_rng(n).normal(0.0, 1.0, n)
        y[0], y[-1] = 3.0, -2.0
        bound = forecasting._SCREEN_ERROR * np.finfo(float).eps * np.dot(y, y)
        circular, direct = self.circular_and_direct(y, n + n // 2 - 1)
        assert np.all(np.abs(circular[:-1] - direct[:-1]) <= bound), n
        assert abs(circular[-1] - direct[-1] - y[-1] * y[0]) <= bound, n
        assert abs(circular[-1] - direct[-1]) > bound, n


class TestSmoothing:
    def test_constant_series_is_fixed_point(self):
        smoothed = smoothed_history([500.0] * 40, half_life=7)
        assert all(v == 500.0 for v in smoothed)

    def test_single_spike_attenuated(self):
        values = [100.0] * 20 + [1000.0] + [100.0] * 20
        peak = max(smoothed_history(values, half_life=10))
        assert peak < 1000.0
        assert peak > 100.0

    def test_step_closes_half_gap_per_half_life(self):
        half_life = 8
        values = [0.0] + [1000.0] * 100
        smoothed = smoothed_history(values, half_life=half_life)
        # After exactly k half-lives the remaining gap is 1000 / 2^k.
        for k in (1, 2, 3):
            expected = 1000.0 * (1.0 - 0.5 ** k)
            assert smoothed[k * half_life] == pytest.approx(expected, abs=1e-9)

    def test_never_exceeds_max_nor_undercuts_min(self):
        rng = random.Random(23)
        for _ in range(20):
            values = [float(rng.randint(0, 5000)) for _ in range(rng.randint(2, 200))]
            smoothed = smoothed_history(values, half_life=rng.randint(1, 60))
            assert max(smoothed) <= max(values)
            assert min(smoothed) >= min(values)

    def test_length_preserved(self):
        smoothed = smoothed_history([1.0, 2.0, 3.0], half_life=5)
        assert len(smoothed) == 3

    def test_bad_half_life_rejected(self):
        with pytest.raises(ValueError):
            smoothed_history([1.0], half_life=0)


class TestPeriodDetection:
    def test_detects_heartbeat_cycle(self):
        trace = build_trace("web", heartbeat_phases(), 2, 1)
        values = [float(d) for d in trace.demand[:480]]
        assert detect_period(values) == 240

    def test_detects_with_more_history(self):
        trace = build_trace("web", heartbeat_phases(), 2, 1)
        values = [float(d) for d in trace.demand[:600]]
        assert detect_period(values) == 240

    def test_cold_start_returns_none(self):
        assert detect_period([1.0, 2.0, 3.0]) is None

    def test_aperiodic_returns_none(self):
        rng = random.Random(5)
        values = [float(rng.randint(0, 1000)) for _ in range(400)]
        assert detect_period(values, min_correlation=0.5) is None

    def test_constant_signal_returns_none(self):
        assert detect_period([7.0] * 400) is None


def square_wave(period, n, low=100.0, high=900.0):
    return [high if i % period < period // 2 else low for i in range(n)]


# Histories on which a screen could go wrong, each with the length it is cut
# up to: lags that tie exactly (ramp, square waves at every multiple of their
# period), constants whose mean is inexact (a std of 5.7e-14, not 0.0),
# segments that are flat on one or both sides, whose exact score is rounding
# noise, and a large offset over a small swing.
NAMED_HISTORIES = {
    "linear-ramp": (1200, lambda n: [float(i) for i in range(n)]),
    **{f"square-{p}": (max(1200, 4 * p), partial(square_wave, p)) for p in (60, 97, 240, 480)},
    "sine-300": (1200, lambda n: [
        500.0 + 300.0 * math.sin(2 * math.pi * i / 300) for i in range(n)
    ]),
    "constant-333.3": (1200, lambda n: [333.3] * n),
    "constant-0.1": (1200, lambda n: [0.1] * n),
    "step-333.3-to-0.1": (1200, lambda n: [333.3] * (n // 2) + [0.1] * (n - n // 2)),
    "flat-then-periodic": (1200, lambda n: ([333.3] * 600 + square_wave(240, n))[:n]),
    "periodic-then-flat": (1200, lambda n: (square_wave(240, 300) + [333.3] * n)[:n]),
    "offset-1e9-period-200": (1200, lambda n: [
        1e9 + 50.0 * math.sin(2 * math.pi * i / 200) for i in range(n)
    ]),
}


class TestPeriodDetectionMatchesScan:
    @pytest.mark.parametrize("name", sorted(NAMED_HISTORIES))
    def test_named_history_at_every_60_sample_cut(self, name):
        length, history = NAMED_HISTORIES[name]
        for n in range(60, length + 1, 60):
            values = history(n)
            for min_correlation in (0.5, -1.0):
                assert detect_period(values, 60, min_correlation) == detect_period_scan(
                    values, 60, min_correlation
                ), (n, min_correlation)

    def test_every_mas_fixture_tick(self, monkeypatch):
        # The smoothed history of every control tick that detects a period
        # in the two mas_h2 fixtures, with the tick's parameters.
        calls = []

        def record(values, min_lag, min_correlation):
            calls.append((list(values), min_lag, min_correlation))
            return detect_period(values, min_lag, min_correlation)

        monkeypatch.setattr(control, "detect_period", record)
        for name in ("heartbeat-mas", "flash-sale-mas"):
            run_scenario(load_scenario(FIXTURES / f"{name}.scn"))
        assert len(calls) == 5
        for values, min_lag, min_correlation in calls:
            assert detect_period(values, min_lag, min_correlation) == detect_period_scan(
                values, min_lag, min_correlation
            )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.1, 7.0, 333.3]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=300,
        ),
        repeats=st.integers(1, 4),
        min_correlation=st.sampled_from([-1.0, 1.0]),
    )
    def test_random_history_at_knob_edges(self, values, repeats, min_correlation):
        # Repeating the list makes exact periods and ties as likely as noise.
        values = values * repeats
        assert detect_period(values, 1, min_correlation) == detect_period_scan(
            values, 1, min_correlation
        )

    def test_periodic_history_rechecks_few_lags(self, monkeypatch):
        # Work count, not timing: on 7200 samples of smoothed noisy demand
        # with a 240 s period, the exact formula runs on at most a few dozen
        # of the 3541 lags. Falling back to the full scan fails here.
        rng = random.Random(7)
        raw = [v + rng.uniform(-50.0, 50.0) for v in square_wave(240, 7200)]
        values = smoothed_history(raw, half_life=10)
        exact = forecasting._lag_correlation
        lags = []

        def counting(x, lag):
            lags.append(lag)
            return exact(x, lag)

        monkeypatch.setattr(forecasting, "_lag_correlation", counting)
        assert detect_period(values) == 240
        assert 1 <= len(lags) <= 36
        monkeypatch.undo()
        assert detect_period_scan(values) == 240
