"""From decision functions to decisions: odds, timing, noise.

The decision function n_j(t) is read as player j's subjective probability
of selecting strategy 1 at time t.  A decision is made once the function
has stabilized: given a fluctuation threshold epsilon and an observation
window W, the decision instant tau_j is the earliest grid time t such
that max - min of n_j over [t', t' + W] stays below epsilon for every
window start t' from t to the end of the grid.  The rule runs in O(nt)
whatever the window: the window spans come from running maxima and
minima over blocks of one window length (van Herk/Gil-Werman), which are
exact, so tau equals the brute-force rule bit for bit.  At tau the odds

    O_j = p_j(1) / p_j(0),    p_j(0) = 1 - p_j(1)

select strategy 1 when O_j > 1, strategy 0 when O_j < 1, and a fair coin
when O_j is within odds_tol of 1 (exact equality is measure zero in
floating point; the tolerance is 1e-6).  Values of n_j are clamped to
[0, 1] before forming odds to absorb rounding excursions of a few ulps
past the bounds; the raw series is left untouched and bound checks run
on raw values.

noise_metric reports the standard deviation over a chosen window, the
statistic used to compare amplitude configurations with and without
relative phases.  Where the curves settle for large t is not read from
the grid: dynamics.stationary_limit gives the exact limit from the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DecisionSeries

__all__ = [
    "DecisionOutcome",
    "odds",
    "decision_time",
    "noise_metric",
    "ODDS_TOL",
]

ODDS_TOL = 1e-6
ODDS_INF_FLOOR = 1e-12


@dataclass(frozen=True)
class DecisionOutcome:
    """Decision of one player under the epsilon-window stopping rule.

    tau is None when the fluctuation condition is never met on the grid;
    odds_at_tau and decision are then None as well.  decision is 1 or 0
    (strategy index) or the string "random-coin" when the odds are within
    ODDS_TOL of 1.  A random-coin outcome is reported as a label only;
    this module never samples the coin.
    """

    player: int
    tau: float | None
    odds_at_tau: float | None
    decision: int | str | None
    epsilon: float
    window: float


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def _odds_value(p1: float) -> float:
    p0 = 1.0 - p1
    if p0 < ODDS_INF_FLOOR:
        return math.inf
    return p1 / p0


def odds(series: DecisionSeries, t: float) -> tuple[float, float]:
    """Odds (O1, O2) in favor of strategy 1 at grid time t.

    t must lie on the grid: within 1e-9 * max(dt, 1) of the nearest grid
    time, so an absolute 1e-9 for any dt up to 1.  Decision function
    values are clamped to [0, 1] first; math.inf marks odds with a
    vanishing denominator.
    """
    dt = series.dt
    steps = t / dt
    idx = int(round(steps)) if math.isfinite(steps) else -1
    if idx < 0 or idx >= len(series.times) or abs(series.times[idx] - t) > 1e-9 * max(dt, 1.0):
        raise ValueError(f"t={t!r} is not on the simulation grid")
    p = _clamp(series.n[idx])
    return _odds_value(float(p[0])), _odds_value(float(p[1]))


def _decide(o: float) -> int | str:
    if math.isfinite(o) and abs(o - 1.0) <= ODDS_TOL:
        return "random-coin"
    return 1 if o > 1.0 else 0


def _window_spans(values: np.ndarray, length: int) -> np.ndarray:
    """max - min of every run of `length` consecutive values, in O(len(values)).

    Cut the series into blocks of `length`.  The window starting at i is
    the tail of i's block joined to the head of the next block up to
    i + length - 1, so its extreme is that of a backward running extreme
    at i and a forward one at i + length - 1.  The edge padding of the
    last block never reaches a window inside the series.
    """
    n = len(values)
    blocks = -(-n // length)
    b = np.pad(values, (0, blocks * length - n), mode="edge").reshape(blocks, length)

    def extreme(ufunc):
        forward = ufunc.accumulate(b, axis=1).ravel()
        backward = ufunc.accumulate(b[:, ::-1], axis=1)[:, ::-1].ravel()
        return ufunc(backward[: n - length + 1], forward[length - 1 : n])

    return extreme(np.maximum) - extreme(np.minimum)


def _rule_window(epsilon: float, window: float | None, t_max: float) -> float:
    """Check the decision-rule settings; return the window (default 10% of t_max)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if window is None:
        window = 0.1 * t_max
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be positive and finite, got {window}")
    if window > t_max:
        raise ValueError(f"window {window} exceeds the run length {t_max}")
    return window


def decision_time(series: DecisionSeries, epsilon: float = 0.01,
                  window: float | None = None) -> tuple[DecisionOutcome, DecisionOutcome]:
    """Earliest stable instant and resulting decision for both players.

    The stability condition (max - min of n_j below epsilon over every
    window of length `window` starting at or after tau) is evaluated on
    the raw series in O(nt).  window defaults to 10 percent of the run
    length.  A non-finite or non-positive epsilon or window, or a window
    longer than the run, raises ValueError.
    """
    window = _rule_window(epsilon, window, series.t_max)
    dt = series.dt
    w_samples = max(1, int(round(window / dt)))

    outcomes = []
    for j in (0, 1):
        values = series.n[:, j]
        spans = _window_spans(values, min(w_samples + 1, len(values)))
        # tau is one past the last unstable window; a nan span is unstable
        unstable = np.flatnonzero(~(spans < epsilon))
        idx = int(unstable[-1]) + 1 if len(unstable) else 0
        if idx < len(spans):
            tau = float(series.times[idx])
            o = _odds_value(float(_clamp(values[idx])))
            outcomes.append(DecisionOutcome(
                player=j + 1, tau=tau, odds_at_tau=o, decision=_decide(o),
                epsilon=epsilon, window=window))
        else:
            outcomes.append(DecisionOutcome(
                player=j + 1, tau=None, odds_at_tau=None, decision=None,
                epsilon=epsilon, window=window))
    return outcomes[0], outcomes[1]


def noise_metric(series: DecisionSeries, window: tuple[float, float]) -> tuple[float, float]:
    """Standard deviation of each decision function over [t_a, t_b].

    The window is the grid points k with t_a <= times[k] <= t_b, cut from
    the sorted times by two binary searches.  Both players' std come from
    one reduction over the window's two rows, each contiguous: a run's n
    keeps each player's values contiguous, and a series whose n is
    C-ordered is copied to that layout first.  So each value has the bits
    of the std of the player's own column.
    """
    t_a, t_b = window
    if t_b < t_a:
        raise ValueError(f"window must be ordered, got [{t_a}, {t_b}]")
    times = series.times
    k0 = np.searchsorted(times, t_a, side="left")
    k1 = np.searchsorted(times, t_b, side="right")
    # a nan bound sorts past every time: the last point must lie in the window
    if k0 >= k1 or not times[k1 - 1] <= t_b:
        raise ValueError(f"window [{t_a}, {t_b}] contains no grid points")
    rows = series.n[k0:k1].T
    if rows.strides[1] != rows.itemsize:
        rows = rows.copy()  # a C-ordered series: its columns as contiguous rows
    std = rows.std(axis=1)
    return float(std[0]), float(std[1])
