"""Command-line front end: run scenarios, write CSV/SVG, print reports.

Usage patterns:

    qduet --list-presets
    qduet --preset fig1-left --out results --svg
    qduet --scenario my_run.json --ltp --oracle
    qduet --all-presets --out results

Exactly one source is required: --preset, --scenario, --all-presets or
--list-presets.  argparse enforces the rule, and rejects a preset name
that does not exist.  Exit status 0 on success, 1 on configuration
errors (bad flags, unreadable files, invalid scenarios) and 2 on
numerical failures inside the simulation.

Per run the tool writes `<label>.csv` (columns
t,n1,mu1,dmu1,nB1,n2,mu2,dmu2,nB2, 17 significant digits) and optionally
`<label>_n1.svg`, `<label>_n2.svg` line charts and `<label>_ltp.csv`
(columns t,R1,R2, the law-of-total-probability residuals).  All outputs
are deterministic: rerunning a configuration reproduces the files byte
for byte.  Each run also prints each player's exact limit n(inf)
(dynamics.stationary_limit) and its distance at t_max.

Tables are written in blocks of _BLOCK_ROWS rows, so the file never
exists as one array or one string.  The bytes are those numpy's savetxt
writes with fmt="%.17g", delimiter="," and the header as its first line.
Each block's values are formatted in one call of qduet._g17, which
computes the 17 digits of every value at once from an exact
double-double product and lays them out in fixed byte slots; a value it
cannot place exactly (a tie at the 18th digit, nan, an infinity, a
subnormal or a magnitude outside [1e-280, 1e280]) is formatted by
"%.17g" % value itself.  Tables and charts alike are written under a
temporary name in their directory and renamed onto their path only once
complete, so a failed write leaves the path as it was.  Charts are
streamed as well: the polyline's coordinates are computed and formatted
one block of _BLOCK_ROWS points at a time, with the same float
operations as per point.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import _g17, analysis, oracle
from .dynamics import (
    DecisionSeries,
    NumericalError,
    decision_series,
    scenario_grid,
    stationary_limit,
)
from .model import (
    CALPHA1,
    CALPHA2,
    C1,
    C2,
    PRESETS,
    Scenario,
    ScenarioError,
    grid_steps,
    is_entangled,
    load_scenario,
)

__all__ = ["main", "build_parser", "write_csv", "write_svg"]

CSV_HEADER = "t,n1,mu1,dmu1,nB1,n2,mu2,dmu2,nB2"

_BLOCK_ROWS = 1024


def _create_beside(path: Path, mode: str):
    """A new file in path's directory, opened with "x" + mode, and its name.

    open(..., "x") gives it the permission bits open(path, "w") would give
    path.
    """
    while True:
        temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
        with contextlib.suppress(FileExistsError):
            return temp, open(temp, "x" + mode)


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str = ""):
    """Open a file for writing under a temporary name beside path, and rename
    it onto path once the block completes.

    So a failed write leaves path as it was: absent, or with its old bytes.
    """
    temp, fh = _create_beside(Path(path), mode)
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_table(path: str | Path, header: str, cols) -> None:
    # 17 significant digits reproduce every double exactly; a row is its
    # values in column order, each followed by "," or, last, the newline
    ends = np.tile(np.frombuffer(b"," * (len(cols) - 1) + b"\n", np.uint8), _BLOCK_ROWS)
    with _replacing(path, "b") as fh:
        fh.write(header.encode() + b"\n")
        for a in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[a:a + _BLOCK_ROWS] for c in cols]).ravel()
            fh.write(_g17.format_values(block, ends[:block.size]))


def write_csv(path: str | Path, series: DecisionSeries) -> None:
    """Write the full component table, one row per grid point."""
    _write_table(path, CSV_HEADER, (
        series.times,
        series.n[:, 0], series.mu[:, 0], series.dmu[:, 0], series.nB[:, 0],
        series.n[:, 1], series.mu[:, 1], series.dmu[:, 1], series.nB[:, 1]))


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape without its import of urllib, http and email
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def write_svg(path: str | Path, times: np.ndarray, values: np.ndarray,
              title: str, ylabel: str) -> None:
    """Minimal SVG 1.1 line chart of one decision function against time."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    width, height = 640, 400
    left, right, top, bottom = 70.0, 615.0, 30.0, 355.0
    t0, t1 = float(times[0]), float(times[-1])
    y0 = min(0.0, float(values.min()))
    y1 = max(1.0, float(values.max()))
    if t1 <= t0:
        t1 = t0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    # applied to floats and to blocks of points alike: the same operations
    # in the same order, so a block's coordinates match the per-point ones
    def sx(t):
        return left + (t - t0) / (t1 - t0) * (right - left)

    def sy(v):
        return bottom - (v - y0) / (y1 - y0) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tick in np.linspace(t0, t1, 6):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" '
                     f'y2="{bottom + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{bottom + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tick:.3g}</text>')
    for tick in np.linspace(y0, y1, 6):
        y = sy(tick)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 9}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:.3g}</text>')
    parts.append(f'<text x="{(left + right) / 2:.1f}" y="{height - 6}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">t</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(top + bottom) / 2:.1f})">{_escape(ylabel)}</text>')
    with _replacing(path) as fh:
        fh.write("\n".join(parts) + '\n<polyline points="')
        n = len(times)
        for a in range(0, n, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, n)
            xy = np.column_stack((sx(times[a:b]), sy(values[a:b]))).ravel().tolist()
            points = "%.2f,%.2f " * (b - a) % tuple(xy)
            fh.write(points if b < n else points[:-1])
        fh.write('" fill="none" stroke="#1f77b4" stroke-width="1"/>\n</svg>\n')


def _safe_name(label: str) -> str:
    return "".join(c if (c.isalnum() or c in "-._") else "_" for c in label) or "run"


def _tag(value, named: dict) -> str:
    """The name under which named holds value, or "custom"."""
    return next((name for name, v in named.items() if v == value), "custom")


def list_presets() -> str:
    """Table of the built-in scenarios with their full parameter sets."""
    lines = []
    header = (f"{'name':<12} {'params':<7} {'N1':>4} {'N2':>4} "
              f"{'mu_ex':>7} {'mu_coop':>7} {'alpha':<8} {'t_max':>6} {'dt':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, s in PRESETS.items():
        p = s.params
        base = {k: getattr(p, k) for k in C1}
        lines.append(
            f"{name:<12} {_tag(base, {'C1': C1, 'C2': C2}):<7} "
            f"{s.reservoir.N1:>4g} {s.reservoir.N2:>4g} {p.mu_ex:>7g} {p.mu_coop:>7g} "
            f"{_tag(s.initial, {'Calpha1': CALPHA1, 'Calpha2': CALPHA2}):<8} "
            f"{s.t_max:>6g} {s.dt:>8g}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qduet",
        description="Simulate two-player quantum-like decision dynamics and "
                    "analyze the resulting decision functions.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", metavar="NAME", choices=PRESETS,
                        help="built-in scenario name (see --list-presets)")
    source.add_argument("--scenario", metavar="FILE",
                        help="JSON scenario file")
    source.add_argument("--all-presets", action="store_true",
                        help="run every built-in preset")
    source.add_argument("--list-presets", action="store_true",
                        help="print the preset table and exit")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    parser.add_argument("--csv", default=True, action=argparse.BooleanOptionalAction,
                        help="write <label>.csv (default: on)")
    parser.add_argument("--svg", action="store_true",
                        help="write <label>_n1.svg and <label>_n2.svg line charts")
    parser.add_argument("--oracle", action="store_true",
                        help="run independent verification checks and print them")
    parser.add_argument("--ltp", action="store_true",
                        help="write <label>_ltp.csv and print the law-of-total-"
                             "probability residual summary")
    parser.add_argument("--epsilon", type=float, default=0.01, metavar="F",
                        help="fluctuation threshold for the decision rule")
    parser.add_argument("--window", type=float, default=None, metavar="F",
                        help="observation window for the decision rule "
                             "(default: 10%% of t_max)")
    parser.add_argument("--t-max", type=float, default=None, metavar="F",
                        help="override the scenario's t_max")
    parser.add_argument("--dt", type=float, default=None, metavar="F",
                        help="override the scenario's dt")
    return parser


def _outcome_line(o: analysis.DecisionOutcome) -> str:
    if o.tau is None:
        return (f"decision player {o.player}: not reached "
                f"(epsilon={o.epsilon:g}, window={o.window:g})")
    odds_text = "inf" if o.odds_at_tau == float("inf") else f"{o.odds_at_tau:.6g}"
    return (f"decision player {o.player}: tau={o.tau:.6g} odds={odds_text} "
            f"decision={o.decision} (epsilon={o.epsilon:g}, window={o.window:g})")


def run_one(s: Scenario, args: argparse.Namespace) -> None:
    """Simulate one scenario and emit files and report lines."""
    series = decision_series(s)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(s.label)

    print(f"scenario {s.label}: {len(series.times)} points, "
          f"dt={s.dt:g}, t_max={s.t_max:g}, entangled={is_entangled(s.initial)}")
    if args.csv:
        csv_path = out_dir / f"{stem}.csv"
        write_csv(csv_path, series)
        print(f"wrote {csv_path}")
    if args.svg:
        for j in (1, 2):
            svg_path = out_dir / f"{stem}_n{j}.svg"
            write_svg(svg_path, series.times, series.n[:, j - 1],
                      title=f"{s.label}: n{j}(t)", ylabel=f"n{j}")
            print(f"wrote {svg_path}")

    limit = stationary_limit(s.params, s.reservoir)
    for j in (1, 2):
        if limit is None:
            print(f"limit player {j}: not certified (an undamped player)")
        else:
            print(f"limit player {j}: n(inf)={limit[j - 1]:.6g} "
                  f"|n(t_max) - n(inf)|={abs(series.n[-1, j - 1] - limit[j - 1]):.3g}")
    for outcome in analysis.decision_time(series, epsilon=args.epsilon,
                                          window=args.window):
        print(_outcome_line(outcome))

    if args.oracle:
        grid = scenario_grid(s)  # the run's own grid, not a rebuild
        residual = oracle.propagator_residual(grid)
        route = "fallback" if grid.used_fallback else "eigendecomposition"
        print(f"oracle: propagator defect {residual:.6g} at dt={s.dt:g} ({route})")
        print(f"oracle: form defect {oracle.form_defect(grid):.6g}")
        dev = oracle.master_equation_deviation(s)
        print(f"oracle: master-equation deviation {dev:.6g}")

    if args.ltp:
        times, R = oracle.ltp_residual(s)
        ltp_path = out_dir / f"{stem}_ltp.csv"
        _write_table(ltp_path, "t,R1,R2", (times, R[:, 0], R[:, 1]))
        print(f"wrote {ltp_path}")
        ident = np.abs(R - series.dmu).max()
        print(f"ltp: max |R1|={np.abs(R[:, 0]).max():.6g} "
              f"max |R2|={np.abs(R[:, 1]).max():.6g} "
              f"max |R - dmu|={ident:.3g}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.list_presets:
        print(list_presets())
        return 0

    if args.all_presets:
        scenarios = list(PRESETS.values())
    elif args.preset:
        scenarios = [PRESETS[args.preset]]
    else:
        path = Path(args.scenario)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {path}")
        scenarios = [load_scenario(path)]

    grid = {k: v for k, v in (("t_max", args.t_max), ("dt", args.dt))
            if v is not None}
    scenarios = [dataclasses.replace(s, **grid) for s in scenarios]
    # check the analysis settings before any run writes a file
    for s in scenarios:
        try:
            analysis._rule_window(args.epsilon, args.window,
                                  grid_steps(s.t_max, s.dt) * s.dt)
        except ValueError as exc:
            raise ScenarioError(f"{s.label}: {exc}") from None
    for s in scenarios:
        run_one(s, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return _dispatch(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
