"""Pluggable demand forecasters producing peak-demand estimates over a horizon.

Three transparent models stand behind one interface: a naive last-value
forecaster, a trailing moving average, and a seasonal peak predictor that
replays the quantile of same-phase history. All are deterministic functions
of (history, now, horizon, parameters).
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Naive:
    pass


@dataclass(frozen=True)
class MovingAverage:
    window: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")


@dataclass(frozen=True)
class SeasonalPeak:
    period: int
    quantile: float = 1.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")


ForecasterKind = Naive | MovingAverage | SeasonalPeak


def forecast(kind: ForecasterKind, history: Sequence[float], now: int, horizon: int, *,
             groups: PhaseGroups | None = None) -> int:
    """Peak demand over (now, now + horizon], from a history that holds the
    demand of second t at index t.

    `groups` carries a seasonal forecaster's sorted phase groups from one
    call to the next; pass the same one only while `history` is the same
    sequence, grown by appending. Without it, each call sorts afresh."""
    if not history:
        raise ValueError("history must be non-empty")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(history) > now:
        raise ValueError(f"history reaches t={len(history) - 1}, not strictly before now={now}")

    if isinstance(kind, Naive):
        return _round(history[-1])
    if isinstance(kind, MovingAverage):
        tail = history[-kind.window:]
        return _round(sum(tail) / len(tail))
    if isinstance(kind, SeasonalPeak):
        return _seasonal(kind, history, now, horizon, PhaseGroups() if groups is None else groups)
    raise TypeError(f"unknown forecaster kind {kind!r}")


def _seasonal(kind: SeasonalPeak, history: Sequence[float], now: int, horizon: int,
              groups: PhaseGroups) -> int:
    """The largest same-phase quantile over the phases that (now, now +
    horizon] visits."""
    period = kind.period
    if len(history) < period:
        raise ValueError(f"history of {len(history)} s is shorter than the period {period}")
    phases = {t % period for t in range(now + 1, now + 1 + min(horizon, period))}
    # Rounding is monotone, so the rounded largest quantile is the largest
    # rounded one.
    return _round(groups.largest_quantile(history, period, phases, kind.quantile))


class PhaseGroups:
    """The values of one growing history grouped by phase of one period,
    each group sorted: the group of phase p holds history[p::period].

    A group is built, with one sort, the first time its phase is asked for;
    after that each call inserts only the values appended since the last.
    This is exact because a history value never changes once appended (the
    controller's smoothing continues from its last level), so a group only
    grows. A new period drops every group, and the phases asked for are
    built again, lazily: a period that drifts between calls never costs
    more than sorting the visited phases afresh."""

    def __init__(self) -> None:
        self._period: int | None = None
        self._groups: dict[int, list[float]] = {}

    def largest_quantile(self, history: Sequence[float], period: int,
                         phases: Iterable[int], q: float) -> float:
        """The largest, over `phases`, of history[phase::period]'s order
        statistic at index ceil(q*n)-1 (q=1.0 is the max)."""
        if period != self._period:
            self._period, self._groups = period, {}
        groups, n, largest = self._groups, len(history), -math.inf
        for phase in phases:
            group = groups.get(phase)
            if group is None:
                group = groups[phase] = sorted(history[phase::period])
            elif phase + len(group) * period < n:
                for v in history[phase + len(group) * period::period]:
                    insort(group, v)
            # 0 < q <= 1 puts ceil(q*n) in [1, n], rounding included.
            value = group[math.ceil(q * len(group)) - 1]
            if value > largest:
                largest = value
        return largest


def _round(x: float) -> int:
    return int(round(x))


def smoothed_history(history: list[float], half_life: int,
                     level: float | None = None) -> list[float]:
    """Exponentially weighted smoothing: half of any level gap closes every
    half_life seconds. Constant input is a fixed point; the output never
    exceeds the input's max nor undercuts its min.

    With `level`, the history continues one whose last smoothed level that
    is: smoothing a list in two parts, the second from the last level of the
    first, gives the one-shot result bit for bit."""
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    if not history:
        return []
    alpha = 1.0 - 2.0 ** (-1.0 / half_life)
    values = iter(history)
    out: list[float] = []
    if level is None:
        level = float(next(values))
        out.append(level)
    for v in values:
        level = alpha * v + (1.0 - alpha) * level
        out.append(level)
    return out


# Bound, in units of eps * sum(y^2) = n * eps * mean(y^2), on the rounding
# error of the screen and of `_lag_correlation` in a segment mean, variance
# or covariance: sequential prefix sums err by up to n * eps of their total,
# the FFT and the exact formula's pairwise sums by O(log n * eps); the rest is
# margin. The FFT's term is O(log N * eps) in its length N, and N only
# shrank, from the power of two above 2n - 1 to `_fft_length(n + n // 2)`,
# so the bound that held at the longer length holds at the shorter one.
_SCREEN_ERROR = 64.0


def _fft_length(m: int) -> int:
    """The smallest 5-smooth integer (2^a * 3^b * 5^c) >= m, for m >= 1: a
    length that numpy's FFT transforms fast."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def detect_period(values: Sequence[float], min_lag: int = 60,
                  min_correlation: float = 0.5) -> int | None:
    """Dominant autocorrelation lag in [min_lag, len/2], or None when no lag
    correlates at least min_correlation (cold start, aperiodic signals).

    The answer is that of scoring every lag with `_lag_correlation` in
    ascending order and keeping the first strict maximum above
    min_correlation, float dust included, at O(n log n) instead of O(n^2):

    - Screen: with y = values - mean, prefix sums of y and y^2 give each
      segment pair's means and variances, and one FFT autocorrelation gives
      every lag's cross term, so all lags are scored in one pass.
    - FFT length: y zero-padded to length N gives the circular
      autocorrelation c[k] = sum over i < n of y[i] * y[(i + k) mod N]. A
      term wraps around only when i + k >= N, and then i >= N - k; for
      every screened lag k <= n // 2 and N >= n + n // 2 that is i >= n,
      where y is zero. So c[k] is the linear sum of y[i] * y[i + k], and N
      is the smallest 5-smooth length >= n + n // 2 (`_fft_length`).
    - Re-check: the screen and the exact formula round differently. A lag
      whose smaller segment variance screens as v can differ between the two
      by at most `slack` = 2 * err / (v - err), where err (`_SCREEN_ERROR` *
      n * eps * mean(y^2)) bounds the absolute rounding error in a segment
      mean, variance or covariance; a lag with v <= err, or a non-finite
      score, has unbounded slack. Only lags whose screened score plus slack
      reaches the larger of min_correlation and the best screened score
      minus its slack can win, and only they are scored exactly: one or a
      few on periodic demand, every tied lag on a ramp, every lag on a
      constant.

    numpy is imported here, not with the module: only period autodetection
    needs it, so runs that never detect a period never load it.
    """
    n = len(values)
    max_lag = n // 2
    if max_lag < min_lag:
        return None
    import numpy as np

    x = np.asarray(values, dtype=float)
    y = x - x.mean()
    lags = np.arange(min_lag, max_lag + 1)
    m = n - lags
    s1 = np.concatenate(([0.0], np.cumsum(y)))
    s2 = np.concatenate(([0.0], np.cumsum(y * y)))
    size = _fft_length(n + max_lag)
    spectrum = np.fft.rfft(y, size)
    cross = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[lags]
    mean_a, mean_b = s1[m] / m, (s1[n] - s1[lags]) / m
    var_a = s2[m] / m - mean_a * mean_a
    var_b = (s2[n] - s2[lags]) / m - mean_b * mean_b
    var = np.minimum(var_a, var_b)
    err = _SCREEN_ERROR * np.finfo(float).eps * s2[n]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (cross / m - mean_a * mean_b) / np.sqrt(var_a * var_b)
        slack = np.where((var > err) & np.isfinite(score), 2.0 * err / (var - err), np.inf)
        upper, lower = score + slack, np.where(np.isfinite(slack), score - slack, -np.inf)
    floor = max(min_correlation, float(lower.max()))
    best_lag, best_corr = None, min_correlation
    for lag in lags[~(upper < floor)].tolist():
        corr = _lag_correlation(x, lag)
        if corr is not None and corr > best_corr:
            best_lag, best_corr = lag, corr
    return best_lag


def _lag_correlation(x: np.ndarray, lag: int) -> float | None:
    """Pearson correlation of x[:-lag] and x[lag:], or None when either
    segment's standard deviation is exactly zero."""
    a, b = x[:-lag], x[lag:]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return None
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
