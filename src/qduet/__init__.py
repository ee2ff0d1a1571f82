"""Two-player quantum-like decision dynamics.

A small research library simulating a pair of interacting agents whose
binary strategies are carried by fermionic modes coupled to information
baths.  The observable output is a pair of decision functions n_j(t),
subjective probabilities that evolve under strategy exchange, cooperative
two-player transitions and bath-driven relaxation, and split into a
classical part, a quantum interference part and a bath feed.  Analysis
utilities turn the curves into odds, decision times and noise summaries,
and an oracle module provides independent verification paths including
the law-of-total-probability residual.
"""

from .algebra import build_basis, build_mode_operators, car_residual, number_operators
from .analysis import (
    AsymptoticsReport,
    DecisionOutcome,
    asymptotics,
    decision_time,
    noise_metric,
    odds,
)
from .dynamics import (
    DecisionSeries,
    NumericalError,
    PropagatorGrid,
    bath_contribution,
    decision_series,
    delta_mu,
    make_times,
    mu_player,
    propagator,
    scenario_grid,
)
from .model import (
    CALPHA1,
    CALPHA2,
    C1,
    C2,
    PRESETS,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    ScenarioError,
    born_probabilities,
    build_generator,
    default_dt,
    is_entangled,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .oracle import (
    closed_hamiltonian,
    exact_closed_evolution,
    ltp_residual,
    propagator_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "build_basis", "build_mode_operators", "number_operators", "car_residual",
    "ModelParams", "ReservoirState", "InitialState",
    "Scenario", "ScenarioError", "build_generator", "born_probabilities",
    "is_entangled", "validate_scenario", "default_dt",
    "load_scenario", "save_scenario",
    "PRESETS", "C1", "C2", "CALPHA1", "CALPHA2",
    "PropagatorGrid", "DecisionSeries", "NumericalError",
    "make_times", "propagator", "mu_player", "delta_mu",
    "bath_contribution", "scenario_grid", "decision_series",
    "closed_hamiltonian", "exact_closed_evolution",
    "propagator_residual", "ltp_residual",
    "DecisionOutcome", "AsymptoticsReport",
    "odds", "decision_time", "asymptotics", "noise_metric",
]
