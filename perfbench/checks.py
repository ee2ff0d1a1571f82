"""Output checks against the independent reference.

Every check returns a list of failure messages; an empty list means the
output passed.  Nothing here imports qduet: CSVs are parsed with numpy
and the decision rule is re-implemented from its documented definition.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from reference import Reference, amplitudes

CSV_HEADER = "t,n1,mu1,dmu1,nB1,n2,mu2,dmu2,nB2"
LTP_HEADER = "t,R1,R2"
REF_TOL = 1e-4        # the program's documented bound tolerance
SUM_TOL = 1e-12       # n = mu + dmu + nB, written with 17 digits
BORN_TOL = 1e-10
LTP_TOL = 1e-8        # R - dmu: both are sums of the same exact terms
ERROR_FLOOR = 1e-13   # accuracy below this reads as round-off
EPSILON = 0.01        # CLI default fluctuation threshold
WINDOW_FRACTION = 0.1  # CLI default window, share of t_max
ODDS_TOL = 1e-6
ODDS_INF_FLOOR = 1e-12

_DECISION = re.compile(
    r"decision player (\d): (?:tau=(\S+) odds=(\S+) decision=(\S+)|not reached)")
_ORACLE = re.compile(r"oracle: propagator defect \S+ at dt=\S+ \((\w+)\)")


def read_table(path: Path, header: str, columns: int, nt: int) -> np.ndarray:
    """Parse a CSV written by the program; raise ValueError if malformed."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (nt, columns):
        raise ValueError(f"{path.name}: shape {data.shape}, expected {(nt, columns)}")
    return data


def born(alpha: np.ndarray) -> np.ndarray:
    w = np.abs(alpha) ** 2
    return np.array([w[1] + w[3], w[2] + w[3]])


def series_errors(times: np.ndarray, mu: np.ndarray, dmu: np.ndarray,
                  nB: np.ndarray, n: np.ndarray, ref: Reference,
                  alpha: np.ndarray, dt: float) -> tuple[list[str], float]:
    """Check one decision series (arrays of shape (nt, 2)).

    Returns the failures and the max |n - n_ref| over the sample times.
    """
    errors = []
    grid = np.arange(len(times)) * dt
    if np.abs(times - grid).max() > 1e-12 * max(1.0, grid[-1]):
        errors.append("time column is not the uniform grid")
    sum_dev = np.abs(n - (mu + dmu + nB)).max()
    if not sum_dev <= SUM_TOL:
        errors.append(f"n != mu + dmu + nB by {sum_dev:.3g}")
    born_dev = np.abs(n[0] - born(alpha)).max()
    if not born_dev <= BORN_TOL:
        errors.append(f"n(0) misses the Born marginals by {born_dev:.3g}")
    i = ref.idx
    for name, got, want in (("mu", mu, ref.mu), ("dmu", dmu, ref.dmu),
                            ("nB", nB, ref.nB), ("n", n, ref.n)):
        dev = np.abs(got[i] - want).max()
        if not dev <= REF_TOL:
            errors.append(f"{name} misses the reference by {dev:.3g}")
    return errors, float(np.abs(n[i] - ref.n).max())


def accuracy_digits(max_error: float) -> float:
    return -math.log10(max(max_error, ERROR_FLOOR))


def window_spans(values: np.ndarray, length: int) -> np.ndarray:
    """max - min over every window of `length` consecutive samples."""
    first = length // 2   # the centred filter's output for the window at 0
    count = len(values) - length + 1
    hi = maximum_filter1d(values, length)[first:first + count]
    lo = minimum_filter1d(values, length)[first:first + count]
    return hi - lo


def decide(values: np.ndarray, dt: float, t_max: float) -> tuple | None:
    """Stopping rule of the analysis module: (tau, odds, decision) or None."""
    window = WINDOW_FRACTION * t_max
    length = max(1, int(round(window / dt))) + 1
    if length > len(values):
        spans = np.array([values.max() - values.min()])
    else:
        spans = window_spans(values, length)
    bad = np.flatnonzero(spans >= EPSILON)
    start = 0 if bad.size == 0 else int(bad[-1]) + 1
    if start >= len(spans):
        return None
    p1 = min(max(float(values[start]), 0.0), 1.0)
    p0 = 1.0 - p1
    odds = math.inf if p0 < ODDS_INF_FLOOR else p1 / p0
    if math.isfinite(odds) and abs(odds - 1.0) <= ODDS_TOL:
        decision = "random-coin"
    else:
        decision = "1" if odds > 1.0 else "0"
    return start * dt, odds, decision


def _close(printed: str, value: float) -> bool:
    """A value printed with %.6g matches `value`."""
    if printed == "inf":
        return value == math.inf
    return math.isfinite(value) and abs(float(printed) - value) <= 1e-5 * abs(value) + 1e-12


def report_errors(lines: list[str], n: np.ndarray, dt: float, t_max: float,
                  route: str | None) -> list[str]:
    """Check the decision lines (and the oracle route line if `route`)."""
    errors = []
    found = {}
    for line in lines:
        m = _DECISION.match(line)
        if m:
            found[int(m.group(1))] = m.groups()[1:]
    for j in (1, 2):
        if j not in found:
            errors.append(f"no decision line for player {j}")
            continue
        want = decide(n[:, j - 1], dt, t_max)
        tau, odds, decision = found[j]
        if want is None:
            if tau is not None:
                errors.append(f"player {j}: decision reported, rule says none")
        elif tau is None:
            errors.append(f"player {j}: no decision reported, rule gives tau={want[0]:.6g}")
        elif not (_close(tau, want[0]) and _close(odds, want[1]) and decision == want[2]):
            errors.append(f"player {j}: reported tau={tau} odds={odds} "
                          f"decision={decision}, rule gives {want}")
    if route is not None:
        routes = [m.group(1) for m in map(_ORACLE.match, lines) if m]
        if routes != [route]:
            errors.append(f"oracle route {routes}, expected {route}")
    return errors


def split_report(stdout: str) -> dict[str, list[str]]:
    """Group CLI report lines by the scenario label that opens each block."""
    blocks: dict[str, list[str]] = {}
    current = None
    for line in stdout.splitlines():
        m = re.match(r"scenario (\S+): ", line)
        if m:
            current = blocks.setdefault(m.group(1), [])
        if current is not None:
            current.append(line)
    return blocks


def svg_errors(path: Path, nt: int) -> list[str]:
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    m = re.search(r'<polyline points="([^"]*)"', text)
    if not (text.startswith("<svg") and text.endswith("</svg>\n") and m):
        return [f"{path.name}: not a complete SVG line chart"]
    if len(m.group(1).split()) != nt:
        return [f"{path.name}: polyline does not have {nt} points"]
    return []


def cli_scenario_errors(out_dir: Path, stem: str, lines: list[str], d: dict,
                        ref: Reference, ltp: bool, svg: bool,
                        oracle: bool) -> tuple[list[str], float]:
    """Check every file and report line of one scenario run by the CLI."""
    nt = int(round(d["t_max"] / d["dt"])) + 1
    try:
        data = read_table(out_dir / f"{stem}.csv", CSV_HEADER, 9, nt)
    except (OSError, ValueError) as exc:
        return [f"{stem}.csv: {exc}"], math.inf
    times = data[:, 0]
    n, mu, dmu, nB = (data[:, [c, c + 4]] for c in (1, 2, 3, 4))
    errors, max_err = series_errors(times, mu, dmu, nB, n, ref, amplitudes(d), d["dt"])
    errors += report_errors(lines, n, d["dt"], d["t_max"],
                            ref.route if oracle else None)
    if ltp:
        try:
            R = read_table(out_dir / f"{stem}_ltp.csv", LTP_HEADER, 3, nt)[:, 1:]
            dev = np.abs(R - dmu).max()
            if not dev <= LTP_TOL:
                errors.append(f"LTP residual misses dmu by {dev:.3g}")
        except (OSError, ValueError) as exc:
            errors.append(f"{stem}_ltp.csv: {exc}")
    if svg:
        for j in (1, 2):
            errors += svg_errors(out_dir / f"{stem}_n{j}.svg", nt)
    return errors, max_err
