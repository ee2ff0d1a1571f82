"""Model inputs: Hamiltonian parameters, bath state, initial state, scenarios.

A simulation is specified by four ingredients:

  * ModelParams: the two player inertias omega_j, the bath dispersion
    slopes Omega_j (linear dispersion Omega_j(k) = Omega_j * k), the
    player-bath couplings lambda_j, and the player-player couplings mu_ex
    (strategy exchange) and mu_coop (joint creation/annihilation).
  * ReservoirState: the bath occupation constants N_j in [0, 1].  After
    averaging over the baths these two numbers are all that survives of
    the infinite reservoir modes.
  * InitialState: the four complex amplitudes of the joint strategy state
    on the basis (phi_00, phi_10, phi_01, phi_11), normalized to 1.
  * a time grid (t_max, dt).

The players and their couplings are the closed Hamiltonian

    H = omega1 n1 + omega2 n2 + mu_ex (b1^dag b2 + b2^dag b1)
                              + mu_coop (b1^dag b2^dag + b2 b1).

Eliminating the bath modes leaves a closed linear system for the mode
operators B = (b1, b2, b1^dag, b2^dag), db/dt = i U b(t) + noise, with a
constant 4x4 generator U: H's Heisenberg generator on B plus the damping
i diag(Gamma1, Gamma2, Gamma1, Gamma2) the baths add, where
Gamma_j = pi lambda_j**2 / Omega_j.  H's four terms and B are built once
here, and closed_hamiltonian and build_generator both read them.

Every model dataclass checks its invariants when it is constructed,
Scenario included: a Scenario, or a dataclasses.replace of one, is valid
by construction, so no caller validates it again.  validate_scenario is
the named check that Scenario runs.

The grid rule dt * f_max <= 0.1 keeps the fastest frequency in the
problem (couplings, inertias or damping rates) sampled at sixty or more
points per period, so the curves written on the grid, and the max - min
spans the decision rule reads from them, resolve the fastest oscillation.
The value at each grid point is exact for any dt; the rule governs only
the sampling.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import algebra

__all__ = [
    "ScenarioError",
    "ModelParams",
    "ReservoirState",
    "InitialState",
    "Scenario",
    "closed_hamiltonian",
    "build_generator",
    "born_probabilities",
    "is_entangled",
    "validate_scenario",
    "grid_steps",
    "default_dt",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "PRESETS",
    "C1",
    "C2",
    "CALPHA1",
    "CALPHA2",
]

NORM_TOL = 1e-10
GRID_RULE = 0.1
# 2**22 grid points keep what a run holds within 302 MB
MAX_GRID_POINTS = 2 ** 22
# bytes a run keeps per grid point, at most: the time and the two float64
# columns of each of mu, dmu, nB and n.  The grid's factor stacks and
# their terms add about 2688 sqrt(nt) bytes on either propagator route
RUN_BYTES_PER_POINT = 8 + 4 * 16
# relative tolerance on t_max / dt being a whole number of steps
STEP_TOL = 1e-9
# B = (b1, b2, b1^dag, b2^dag) and the terms T_t of H, weighted by
# (omega1, omega2, mu_ex, mu_coop): n1, n2, exchange and cooperation
_b1, _b2 = algebra.build_mode_operators()
_MODES = np.stack([_b1, _b2, _b1.conj().T, _b2.conj().T])
_b1d, _b2d = _MODES[2:]
_TERMS = np.stack([*algebra.number_operators(_b1, _b2),
                   _b1d @ _b2 + _b2d @ _b1, _b1d @ _b2d + _b2 @ _b1])
# K_t of [T_t, B_k] = sum_l K_t[k, l] B_l.  Each B_l has two +-1 entries on
# a support no other B_l shares, so the projection is exact: K_t is 0 or +-1
_TABLES = ((_TERMS[:, None] @ _MODES - _MODES @ _TERMS[:, None]).reshape(4, 4, 16)
           @ _MODES.reshape(4, 16).T / 2).real
# the diagonals of n1, n2: the basis states where player j plays 1
_N_DIAG = tuple(np.diag(n).real.copy() for n in _TERMS[:2])


class ScenarioError(ValueError):
    """Invalid model input: domain violation, normalization or grid failure."""


def _require_finite(name: str, value: float) -> float:
    """value as a float if it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int past any float
        raise ScenarioError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian parameters (all rates in inverse time units).

    omega1, omega2: player inertias.
    Omega1, Omega2: bath dispersion slopes, strictly positive.
    lambda1, lambda2: player-bath couplings.
    mu_ex: strategy-exchange coupling between the players.
    mu_coop: cooperation coupling (joint creation/annihilation).
    """

    omega1: float
    omega2: float
    Omega1: float
    Omega2: float
    lambda1: float
    lambda2: float
    mu_ex: float
    mu_coop: float

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.Omega1 <= 0 or self.Omega2 <= 0:
            raise ScenarioError(
                f"dispersion slopes must be positive, got "
                f"Omega1={self.Omega1}, Omega2={self.Omega2}")

    @property
    def gamma1(self) -> float:
        """Bath-induced damping rate of player 1, pi lambda1^2 / Omega1."""
        return math.pi * self.lambda1 ** 2 / self.Omega1

    @property
    def gamma2(self) -> float:
        """Bath-induced damping rate of player 2, pi lambda2^2 / Omega2."""
        return math.pi * self.lambda2 ** 2 / self.Omega2

    @property
    def f_max(self) -> float:
        """Fastest rate in the problem; controls the required time step."""
        return max(abs(self.omega1), abs(self.omega2),
                   abs(self.mu_ex), abs(self.mu_coop),
                   self.gamma1, self.gamma2)


@dataclass(frozen=True)
class ReservoirState:
    """Bath occupation constants N_j in [0, 1] (fermionic occupations)."""

    N1: float
    N2: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            _require_finite(f.name, value)
            if not 0.0 <= value <= 1.0:
                raise ScenarioError(f"{f.name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class InitialState:
    """Joint strategy amplitudes on the basis (phi_00, phi_10, phi_01, phi_11).

    The squared amplitudes must sum to 1 within 1e-10.
    """

    a00: complex
    a10: complex
    a01: complex
    a11: complex

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Complex):
                raise ScenarioError(f"{f.name} must be a complex number, got {value!r}")
        total = (abs(self.a00) ** 2 + abs(self.a10) ** 2
                 + abs(self.a01) ** 2 + abs(self.a11) ** 2)
        if not math.isfinite(total):
            raise ScenarioError("initial amplitudes must be finite")
        if abs(total - 1.0) > NORM_TOL:
            raise ScenarioError(
                f"initial state not normalized: sum |alpha|^2 = {total!r}")

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Amplitudes as a read-only length-4 complex array in basis order,
        built on first use and kept with the state."""
        a = np.array([self.a00, self.a10, self.a01, self.a11], dtype=complex)
        a.flags.writeable = False
        return a

    @classmethod
    def from_amplitudes(cls, alpha) -> "InitialState":
        a = np.asarray(alpha, dtype=complex).reshape(4)
        return cls(complex(a[0]), complex(a[1]), complex(a[2]), complex(a[3]))

    @classmethod
    def basis_state(cls, k: int, l: int) -> "InitialState":
        """Sharp strategy pair: player 1 holds k, player 2 holds l."""
        a = np.zeros(4, dtype=complex)
        a[k + 2 * l] = 1.0
        return cls.from_amplitudes(a)


def _couplings(params: ModelParams) -> np.ndarray:
    """The weights (omega1, omega2, mu_ex, mu_coop) of the terms of H."""
    return np.array([params.omega1, params.omega2, params.mu_ex, params.mu_coop])


def closed_hamiltonian(params: ModelParams) -> np.ndarray:
    """H = sum_t c_t T_t, the Hermitian 4x4 Hamiltonian of the bath-free players."""
    return np.tensordot(_couplings(params), _TERMS, 1)


def build_generator(params: ModelParams) -> np.ndarray:
    """Generator U of the reduced mode dynamics db/dt = i U b.

    U = sum_t c_t K_t + i diag(Gamma1, Gamma2, Gamma1, Gamma2), the
    Heisenberg generator of closed_hamiltonian on B plus the bath damping;
    each entry is one parameter, so U is exact.  With the effective
    complex frequencies nu_j = i omega_j + pi lambda_j^2 / Omega_j it is
    the 4x4 complex array

        [[ i nu1,   -mu_ex,   0,          -mu_coop],
         [-mu_ex,    i nu2,   mu_coop,     0      ],
         [ 0,        mu_coop, i conj(nu1), mu_ex  ],
         [-mu_coop,  0,       mu_ex,       i conj(nu2)]].
    """
    return (np.tensordot(_couplings(params), _TABLES, 1)
            + np.diag(1j * np.array([params.gamma1, params.gamma2] * 2)))


def born_probabilities(initial: InitialState) -> tuple[float, float, float, float]:
    """Marginal strategy probabilities (p1(0), p1(1), p2(0), p2(1)) at t=0.

    p1(j) sums |alpha_{j,l}|^2 over the other player's bit, and likewise
    p2(j); each player's pair sums to 1 for a normalized state.
    p_j(1) = <psi, n_j psi> reads the diagonal of algebra's n_j.
    """
    w = np.abs(initial.amplitudes) ** 2
    p1_1, p2_1 = (float(w @ d) for d in _N_DIAG)
    return (1.0 - p1_1, p1_1, 1.0 - p2_1, p2_1)


def is_entangled(initial: InitialState, tol: float = 1e-12) -> bool:
    """Whether the joint state fails to factorize over the two players.

    The 2x2 coefficient matrix alpha_{k,l} factorizes exactly when its
    determinant alpha_00 alpha_11 - alpha_01 alpha_10 vanishes; the state
    is reported entangled when |det| exceeds tol.
    """
    det = initial.a00 * initial.a11 - initial.a01 * initial.a10
    return bool(abs(det) > tol)


@dataclass(frozen=True)
class Scenario:
    """A complete, runnable simulation specification.

    Construction runs validate_scenario, so every instance is valid.
    """

    params: ModelParams
    reservoir: ReservoirState
    initial: InitialState
    t_max: float
    dt: float
    label: str = "scenario"

    def __post_init__(self) -> None:
        validate_scenario(self)


def _largest_dt(f_max: float) -> float:
    """The largest float dt with dt * f_max <= GRID_RULE, for f_max > 0.

    GRID_RULE / f_max is within an ulp of it, but its product with f_max
    can round above GRID_RULE (or the next float up can still pass), so
    the quotient is stepped one ulp at a time to the boundary.
    """
    dt = GRID_RULE / f_max
    while dt * f_max > GRID_RULE:
        dt = math.nextafter(dt, 0.0)
    while math.nextafter(dt, math.inf) * f_max <= GRID_RULE:
        dt = math.nextafter(dt, math.inf)
    return dt


def default_dt(params: ModelParams) -> float:
    """Default step: min(1e-4, the largest dt the grid rule allows)."""
    if params.f_max == 0.0:
        return 1e-4
    return min(1e-4, _largest_dt(params.f_max))


def grid_steps(t_max: float, dt: float) -> int:
    """The number of dt steps of the grid 0, dt, ..., t_max: the grid rule.

    ScenarioError unless 0 < dt < t_max are finite, the grid has at most
    MAX_GRID_POINTS points and t_max / dt is whole within STEP_TOL; those
    two messages name the largest or the nearest t_max that passes, and
    the first also the bytes a run and a --ltp run keep.
    """
    _require_finite("t_max", t_max)
    _require_finite("dt", dt)
    if t_max <= 0:
        raise ScenarioError(f"t_max must be positive, got {t_max}")
    if dt <= 0:
        raise ScenarioError(f"dt must be positive, got {dt}")
    if dt >= t_max:
        raise ScenarioError(f"dt={dt} must be smaller than t_max={t_max}")
    steps = t_max / dt
    nt = round(steps) + 1 if math.isfinite(steps) else math.inf
    if nt > MAX_GRID_POINTS:
        ltp = RUN_BYTES_PER_POINT + 5 * 16  # the four conditional n and R
        raise ScenarioError(
            f"grid too large: {nt} points, whose run would keep up to "
            f"{nt * RUN_BYTES_PER_POINT:.4g} bytes ({RUN_BYTES_PER_POINT} "
            f"per point, {ltp} with --ltp: {MAX_GRID_POINTS * ltp:.4g} bytes "
            f"at the cap); at dt={dt:g} t_max may be at most "
            f"{(MAX_GRID_POINTS - 1) * dt:.12g} ({MAX_GRID_POINTS} points)")
    if abs(steps - round(steps)) > STEP_TOL * steps:
        raise ScenarioError(
            f"t_max={t_max} is not a whole number of dt={dt} steps "
            f"({steps:.6g}); the nearest valid t_max is "
            f"{round(steps) * dt:.12g}")
    return round(steps)


def validate_scenario(s: Scenario) -> Scenario:
    """Check all scenario invariants; return the scenario unchanged.

    Raises ScenarioError, naming the field, on a field of the wrong type,
    on domain violations, on a grid that breaks grid_steps' rule and on a
    grid too coarse for the fastest frequency (dt * f_max must be at most
    0.1; the message reports the product and the largest dt that passes,
    both at full precision).
    """
    for name, kind in (("params", ModelParams), ("reservoir", ReservoirState),
                       ("initial", InitialState), ("label", str)):
        value = getattr(s, name)
        if not isinstance(value, kind):
            raise ScenarioError(
                f"{name} must be of type {kind.__name__}, got "
                f"{type(value).__name__}")
    grid_steps(s.t_max, s.dt)
    f_max = s.params.f_max
    if s.dt * f_max > GRID_RULE:
        raise ScenarioError(
            f"grid too coarse: dt*f_max = {s.dt * f_max!r} > {GRID_RULE}; "
            f"need dt <= {_largest_dt(f_max)!r}")
    return s


# parameter sets used by the built-in presets
C1 = dict(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1, lambda1=0.5, lambda2=0.5)
C2 = dict(omega1=0.1, omega2=0.2, Omega1=1.0, Omega2=1.0, lambda1=1.0, lambda2=0.7)

# amplitude configurations: real uniform superposition and a phased one
CALPHA1 = InitialState(0.5 + 0j, 0.5 + 0j, 0.5 + 0j, 0.5 + 0j)
CALPHA2 = InitialState(0.5j, -0.5j, 0.5 + 0j, -0.5 + 0j)


def _preset(label: str, base: dict, mu_ex: float, mu_coop: float,
            N1: float, N2: float, initial: InitialState) -> Scenario:
    params = ModelParams(mu_ex=mu_ex, mu_coop=mu_coop, **base)
    return Scenario(
        params=params,
        reservoir=ReservoirState(N1=N1, N2=N2),
        initial=initial,
        t_max=0.5,
        dt=1e-4,
        label=label,
    )


# left panels use the real uniform amplitudes, right panels the phased ones
PRESETS: dict[str, Scenario] = {
    "fig1-left": _preset("fig1-left", C1, 500.0, 0.0, 0.0, 1.0, CALPHA1),
    "fig1-right": _preset("fig1-right", C1, 500.0, 0.0, 0.0, 1.0, CALPHA2),
    "fig2-left": _preset("fig2-left", C1, 500.0, 0.0, 1.0, 1.0, CALPHA1),
    "fig2-right": _preset("fig2-right", C1, 500.0, 0.0, 1.0, 1.0, CALPHA2),
    "fig3-left": _preset("fig3-left", C2, 100.0, 0.0, 0.0, 1.0, CALPHA1),
    "fig3-right": _preset("fig3-right", C2, 100.0, 0.0, 0.0, 1.0, CALPHA2),
    "fig6-left": _preset("fig6-left", C1, 10.0, 10.0, 0.0, 1.0, CALPHA1),
    "fig6-right": _preset("fig6-right", C1, 10.0, 10.0, 0.0, 1.0, CALPHA2),
}


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-data form of a scenario (JSON-ready).

    The parameter and reservoir keys are their dataclass field names.
    """
    return {
        **asdict(s.params), **asdict(s.reservoir),
        "alpha": [[float(z.real), float(z.imag)] for z in s.initial.amplitudes],
        "t_max": s.t_max, "dt": s.dt, "label": s.label,
    }


# the keys scenario_to_dict writes, the only ones scenario_from_dict reads
_DOCUMENT_KEYS = frozenset([f.name for cls in (ModelParams, ReservoirState) for f in fields(cls)]
                           + ["alpha", "t_max", "dt", "label"])


def _from_fields(cls, d: dict):
    """cls built from the numbers of d under its field names, as floats."""
    return cls(**{f.name: _require_finite(f.name, d[f.name]) for f in fields(cls)})


def scenario_from_dict(d: dict) -> Scenario:
    """Build a scenario from the plain-data form; validates all fields (a
    value of the wrong JSON type, such as "1.0", true or null, included)
    and rejects a key scenario_to_dict does not write, such as a misspelt
    label."""
    try:
        unknown = sorted(set(d) - _DOCUMENT_KEYS, key=str)
        if unknown:
            raise ScenarioError(f"scenario document has unknown keys {unknown}")
        alpha = d["alpha"]
        if len(alpha) != 4:
            raise ScenarioError(f"alpha must hold 4 [re, im] pairs, got {len(alpha)}")
        amps = [complex(_require_finite(f"alpha[{k}][0]", re),
                        _require_finite(f"alpha[{k}][1]", im))
                for k, (re, im) in enumerate(alpha)]
        return Scenario(
            params=_from_fields(ModelParams, d),
            reservoir=_from_fields(ReservoirState, d),
            initial=InitialState.from_amplitudes(amps),
            t_max=_require_finite("t_max", d["t_max"]), dt=_require_finite("dt", d["dt"]),
            label=d.get("label", "scenario"),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario document is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario document: {exc}") from exc


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario to a JSON document."""
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario from a JSON document."""
    # bytes, so that json detects UTF-8/16/32 and a bad encoding is a
    # ScenarioError like bad syntax
    try:
        d = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise ScenarioError(f"scenario document must be a JSON object: {path}")
    return scenario_from_dict(d)
