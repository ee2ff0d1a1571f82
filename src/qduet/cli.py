"""Command-line front end: run scenarios, write CSV/SVG, print reports.

Usage patterns:

    qduet --list-presets
    qduet --preset fig1-left --out results --svg
    qduet --scenario my_run.json --ltp --oracle
    qduet --all-presets --out results

Exactly one scenario source (--preset or --scenario) is required unless
--all-presets or --list-presets is given.  Exit status 0 on success, 1 on
configuration errors (bad flags, unreadable files, invalid scenarios) and
2 on numerical failures inside the simulation.

Per run the tool writes `<label>.csv` (columns
t,n1,mu1,dmu1,nB1,n2,mu2,dmu2,nB2, 17 significant digits) and optionally
`<label>_n1.svg`, `<label>_n2.svg` line charts and `<label>_ltp.csv`
(columns t,R1,R2, the law-of-total-probability residuals).  All outputs
are deterministic: rerunning a configuration reproduces the files byte
for byte.

Tables are written in blocks of _BLOCK_ROWS rows, each formatted by one
%-format call over the block's values, so the file never exists as one
array or one string.  The bytes are those numpy's savetxt writes with
fmt="%.17g", delimiter="," and the header as its first line.  Chart
coordinates are computed on whole arrays with the same float operations
as per point, and the polyline is formatted in one call.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, oracle
from .dynamics import (
    DecisionSeries,
    NumericalError,
    decision_series,
    make_times,
    scenario_grid,
)
from .model import (
    CALPHA1,
    CALPHA2,
    C1,
    C2,
    PRESETS,
    Scenario,
    ScenarioError,
    build_generator,
    is_entangled,
    load_scenario,
)

__all__ = ["main", "build_parser", "write_csv", "read_csv", "write_svg"]

CSV_HEADER = "t,n1,mu1,dmu1,nB1,n2,mu2,dmu2,nB2"

_BLOCK_ROWS = 1024


def _write_table(path: str | Path, header: str, cols) -> None:
    # 17 significant digits reproduce every double exactly
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_csv(path: str | Path, series: DecisionSeries) -> None:
    """Write the full component table, one row per grid point."""
    _write_table(path, CSV_HEADER, (
        series.times,
        series.n[:, 0], series.mu[:, 0], series.dmu[:, 0], series.nB[:, 0],
        series.n[:, 1], series.mu[:, 1], series.dmu[:, 1], series.nB[:, 1]))


def read_csv(path: str | Path) -> DecisionSeries:
    """Read a component table back into a series (scenario not recorded).

    A wrong header, a table without data rows, a non-numeric cell or a
    row of the wrong length raises ScenarioError.
    """
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ScenarioError(f"{path}: not a decision-series CSV "
                                f"(expected header {CSV_HEADER!r})")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as an error instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    if len(data) == 0:
        raise ScenarioError(f"{path}: no data rows")
    if data.shape[1] != 9:
        raise ScenarioError(f"{path}: expected 9 columns per row")
    return DecisionSeries(
        times=data[:, 0],
        n=data[:, [1, 5]], mu=data[:, [2, 6]],
        dmu=data[:, [3, 7]], nB=data[:, [4, 8]],
        scenario=None,
    )


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

    # applied to floats and to whole arrays alike: the same operations in
    # the same order, so an array's coordinates match the per-point ones
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
    xy = np.column_stack((sx(times), sy(values))).ravel().tolist()
    points = ("%.2f,%.2f " * len(times) % tuple(xy))[:-1]
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _safe_name(label: str) -> str:
    return "".join(c if (c.isalnum() or c in "-._") else "_" for c in label) or "run"


def _params_tag(s: Scenario) -> str:
    p = s.params
    base = {k: getattr(p, k) for k in C1}
    if base == C1:
        tag = "C1"
    elif base == C2:
        tag = "C2"
    else:
        tag = "custom"
    return tag


def _alpha_tag(s: Scenario) -> str:
    a = s.initial
    if a == CALPHA1:
        return "Calpha1"
    if a == CALPHA2:
        return "Calpha2"
    return "custom"


def list_presets() -> str:
    """Table of the built-in scenarios with their full parameter sets."""
    lines = []
    header = (f"{'name':<12} {'params':<7} {'N1':>4} {'N2':>4} "
              f"{'mu_ex':>7} {'mu_coop':>7} {'alpha':<8} {'t_max':>6} {'dt':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, s in PRESETS.items():
        p = s.params
        lines.append(
            f"{name:<12} {_params_tag(s):<7} {s.reservoir.N1:>4g} {s.reservoir.N2:>4g} "
            f"{p.mu_ex:>7g} {p.mu_coop:>7g} {_alpha_tag(s):<8} {s.t_max:>6g} {s.dt:>8g}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qduet",
        description="Simulate two-player quantum-like decision dynamics and "
                    "analyze the resulting decision functions.")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", metavar="NAME",
                        help="built-in scenario name (see --list-presets)")
    source.add_argument("--scenario", metavar="FILE",
                        help="JSON scenario file")
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
    parser.add_argument("--tail", type=float, default=0.2, metavar="F",
                        help="tail fraction for asymptotics")
    parser.add_argument("--t-max", type=float, default=None, metavar="F",
                        help="override the scenario's t_max")
    parser.add_argument("--dt", type=float, default=None, metavar="F",
                        help="override the scenario's dt")
    parser.add_argument("--all-presets", action="store_true",
                        help="run every built-in preset")
    parser.add_argument("--list-presets", action="store_true",
                        help="print the preset table and exit")
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

    report = analysis.asymptotics(series, tail_fraction=args.tail,
                                  epsilon=args.epsilon)
    for j in (1, 2):
        print(f"asymptotics player {j} (tail from t={report.tail_start:.6g}): "
              f"mean={report.mean[j - 1]:.6g} "
              f"fluctuation={report.fluctuation[j - 1]:.6g} "
              f"converged={report.converged[j - 1]}")
    for outcome in analysis.decision_time(series, epsilon=args.epsilon,
                                          window=args.window):
        print(_outcome_line(outcome))

    if args.oracle:
        grid = scenario_grid(s)  # the run's own grid, not a rebuild
        residual = oracle.propagator_residual(build_generator(s.params), grid)
        route = "fallback" if grid.used_fallback else "eigendecomposition"
        print(f"oracle: propagator defect {residual:.6g} at dt={s.dt:g} ({route})")
        if s.params.lambda1 == 0.0 and s.params.lambda2 == 0.0:
            n1_ref, n2_ref = oracle.exact_closed_evolution(
                s.params, s.initial, series.times)
            dev = max(np.abs(series.n[:, 0] - n1_ref).max(),
                      np.abs(series.n[:, 1] - n2_ref).max())
            print(f"oracle: closed-system deviation {dev:.6g}")

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
        if args.preset or args.scenario:
            raise ScenarioError("--all-presets cannot be combined with "
                                "--preset or --scenario")
        scenarios = list(PRESETS.values())
    elif args.preset:
        if args.preset not in PRESETS:
            raise ScenarioError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(PRESETS))
        scenarios = [PRESETS[args.preset]]
    elif args.scenario:
        path = Path(args.scenario)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {path}")
        scenarios = [load_scenario(path)]
    else:
        raise ScenarioError("one of --preset, --scenario, --all-presets or "
                            "--list-presets is required")

    grid = {k: v for k, v in (("t_max", args.t_max), ("dt", args.dt))
            if v is not None}
    scenarios = [dataclasses.replace(s, **grid) for s in scenarios]
    # check the analysis settings before any run writes a file
    if not 0.0 < args.tail < 1.0:
        raise ScenarioError(f"--tail must lie in (0, 1), got {args.tail}")
    for s in scenarios:
        try:
            analysis._rule_window(args.epsilon, args.window,
                                  make_times(s.t_max, s.dt)[-1])
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
