"""Table values: the bytes of "%.17g" % x, computed for whole arrays."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hard import hard_values
from qduet import _g17
from qduet.cli import main


def reference(values):
    return b"".join(("%.17g" % v).encode() + b"\n" for v in values.tolist())


def formatted(values):
    return _g17.format_values(values, np.full(values.size, ord("\n"), np.uint8))


def count_fallbacks(monkeypatch):
    """The values _g17 hands to "%.17g" itself, in order."""
    seen, fallback = [], _g17._fallback

    def counting(x):
        seen.append(x)
        return fallback(x)
    monkeypatch.setattr(_g17, "_fallback", counting)
    return seen


def test_hard_values_format_as_percent_g():
    # whole and one value at a time: numpy's log10 may round differently
    # on long and short arrays, and either exponent estimate must work
    values = hard_values()
    assert formatted(values) == reference(values)
    assert [formatted(values[i:i + 1]) for i in range(values.size)] == [
        reference(values[i:i + 1]) for i in range(values.size)]


def test_exact_ties_and_specials_take_the_fallback(monkeypatch):
    seen = count_fallbacks(monkeypatch)
    # 2**-25 = 2.98023223876953125e-08 ends in a tie at its 18th digit
    values = np.array([2.0 ** -25, np.nan, -np.inf, 5e-324, 1e-300, 1e300,
                       0.0, -0.0, 0.1])
    assert formatted(values) == reference(values)
    assert len(seen) == 6


@pytest.mark.parametrize("kind", ["bits", "log-uniform"])
def test_random_values_format_as_percent_g(kind):
    rng = np.random.default_rng(2024)
    if kind == "bits":
        values = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    else:
        values = 10.0 ** rng.uniform(-40.0, 30.0, 200_000)
    assert formatted(values) == reference(values)


def needs_fallback(x):
    """Whether "%.17g" % x may take _g17's per-value path: x is nan, an
    infinity, subnormal or outside [1e-280, 1e280], or its exact 18th-digit
    fraction is within 1e-6 of one half, plus the kernel's 1e-13 error."""
    if not math.isfinite(x) or x == 0.0:
        return not math.isfinite(x)
    ax = abs(x)
    if ax < sys.float_info.min or not 1e-280 <= ax <= 1e280:
        return True
    e = math.floor(math.log10(ax))
    scaled = Fraction(ax) * Fraction(10) ** (16 - e)
    while scaled < 10 ** 16:
        scaled *= 10
    while scaled >= 10 ** 17:
        scaled /= 10
    fraction = scaled - math.floor(scaled)
    return abs(fraction - Fraction(1, 2)) <= Fraction(1, 10 ** 6) + Fraction(1, 10 ** 13)


def test_needs_fallback_marks_ties_and_specials():
    assert needs_fallback(2.0 ** -25)  # 2.98023223876953125e-08: an exact tie
    # a value of the fig1 bath tables, within 1e-6 of a tie at its 18th digit
    assert needs_fallback(0.18904863037154992)
    for x in (np.nan, -np.inf, 5e-324, 1e-300, 1e300):
        assert needs_fallback(x)
    for x in (0.0, -0.0, 0.1, 1.0, np.nextafter(0.18904863037154992, 1.0),
              1e-280, 1e280):
        assert not needs_fallback(x)


@pytest.mark.parametrize("argv", [["--all-presets", "--ltp"],
                                  ["--preset", "fig3-left", "--t-max", "2"]],
                         ids=["presets", "fig3-left-t2"])
def test_cli_tables_fall_back_only_where_needed(tmp_path, capsys, monkeypatch, argv):
    # a kernel change that sent ordinary table values down the per-value
    # path would keep every byte and lose the speed; a genuine near-tie
    # at the 18th digit (about 1 value in 480k) must take it
    seen = count_fallbacks(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert [x for x in seen if not needs_fallback(x)] == []
    assert len(list(tmp_path.glob("*.csv"))) == (16 if "--ltp" in argv else 1)


def test_import_qduet_does_not_load_the_formatter():
    # the formatter is the CLI's; a library import pays nothing for it
    src = str(Path(_g17.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qduet; "
            f"print('qduet._g17' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
