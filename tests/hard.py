"""The hard inputs: one family of scenarios and draws every oracle test reads.

ROADMAP aim 3 asks that the inputs where the decision functions are
hardest to compute be test cases of their own: exceptional points, where
the generator U is defective; undamped modes, where no limit exists; long
horizons; empty and full baths.  This module says once what such an input
is, so a new one is one line here that every oracle test sees:

  * HARD, the named scenarios; a test takes every member its oracle's
    premise admits (both Gamma_j > 0 for a limit, the eigen route where the
    gate picks it, a short horizon for a growing reference);
  * hard_params(), the hypothesis strategy of ModelParams draws: the
    parameter box, its damped corner, lambda_j = 0, and both
    exceptional-point families exact and detuned; hard_reservoirs(), N_j
    at 0 and 1 and between;
  * the builders the tests share, and hard_values(), the table formatter's
    own hard inputs.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qduet import dynamics
from qduet.model import (
    CALPHA1,
    PRESETS,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    build_generator,
)


def make_params(**kw):
    base = dict(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                lambda1=0.5, lambda2=0.5, mu_ex=0.0, mu_coop=0.0)
    base.update(kw)
    return ModelParams(**base)


def make_scenario(params, initial, N1=0.0, N2=0.0, t_max=1.0, dt=1e-3,
                  label="test"):
    return Scenario(params=params, reservoir=ReservoirState(N1, N2),
                    initial=initial, t_max=t_max, dt=dt, label=label)


def slow_scenario(t_max=5.0, dt=1e-3):
    """fig1-left's bath and state at rates slow enough for steps up to 1."""
    params = make_params(omega1=0.1, omega2=0.1, Omega1=1.0, Omega2=1.0,
                         lambda1=0.1, lambda2=0.1, mu_ex=0.1)
    return make_scenario(params, CALPHA1, N1=0.0, N2=1.0, t_max=t_max, dt=dt,
                         label="slow")


def exceptional_params(detune=0.0, g1=2.0, g2=1.0, omega=1.0, family="exchange"):
    # two families put the generator at an exceptional point: equal
    # inertias with exchange balancing the damping mismatch, and opposite
    # inertias with cooperation balancing it (at omega = 1 and
    # Gamma = (2, 1) U has the double eigenvalues -1 + 1.5i and
    # 1 + 1.5i); detune moves the coupling off the point
    coupling = abs(g1 - g2) / 2.0 + detune
    common = dict(Omega1=1.0, Omega2=1.0, lambda1=math.sqrt(g1 / math.pi),
                  lambda2=math.sqrt(g2 / math.pi))
    if family == "exchange":
        return make_params(omega1=omega, omega2=omega, mu_ex=coupling, **common)
    assert family == "cooperation"
    return make_params(omega1=omega, omega2=-omega, mu_coop=coupling, **common)


def eigen_cond(U):
    """cond(P) of U's eigenvector matrix P, the number the route gate reads."""
    return np.linalg.cond(np.linalg.eig(U)[1])


def ep_scenario(seed):
    # the benchmark's exceptional point: equal inertias, Gamma = (2, 1),
    # mu_ex = 1/2, equal weights with seeded relative phases
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 3)
    alpha = 0.5 * np.exp(1j * np.concatenate([[0.0], phases]))
    return make_scenario(exceptional_params(), InitialState.from_amplitudes(alpha),
                         N1=0.0, N2=1.0, t_max=5.0, dt=1e-3, label=f"ep-{seed}")


def exceptional_draws(count, low, high, seed=5):
    # seeded draws near either exceptional-point family whose cond(P) lies
    # in (low, high], in the order drawn
    rng = np.random.default_rng(seed)
    while count:
        detune = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0)
        g1, g2 = rng.uniform(0.05, 3.0, 2)
        family = rng.choice(["exchange", "cooperation"])
        params = exceptional_params(detune, g1, g2, rng.uniform(-2.0, 2.0), family)
        t_max = rng.uniform(0.5, 20.0)
        if not low < eigen_cond(build_generator(params)) <= high:
            continue
        count -= 1
        yield make_scenario(params, InitialState(0.5j, -0.5j, 0.5, -0.5),
                            t_max=t_max, dt=t_max / 2000, label=f"near-ep-{count}")


def near_exceptional_eigen_draws(count):
    # seeded draws on the eigen route just under the switch
    return exceptional_draws(count, 100.0, dynamics.COND_LIMIT)


exceptional_families = st.sampled_from(["exchange", "cooperation"])

exceptional_detunes = st.one_of(
    st.just(0.0),
    st.floats(-1e-3, 1e-3),
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -3.0)),
)


def exceptional_points():
    """Parameters on and near either exceptional-point family."""
    return st.builds(exceptional_params, exceptional_detunes,
                     st.floats(0.05, 3.0), st.floats(0.05, 3.0),
                     st.floats(-2.0, 2.0), exceptional_families)


@dataclasses.dataclass(frozen=True)
class Box:
    """|omega_j| <= 3, Omega_j in [0.1, 2], lambda_j in lambdas, |mu| <= mu."""

    lambdas: tuple
    mu: float

    def draws(self, undamped=False):
        """ModelParams drawn in the box; undamped puts lambda_j at 0 half
        the time each."""
        coupling = st.floats(*self.lambdas)
        if undamped:
            coupling = st.just(0.0) | coupling
        mu = st.floats(-self.mu, self.mu)
        return st.builds(make_params, omega1=st.floats(-3, 3), omega2=st.floats(-3, 3),
                         Omega1=st.floats(0.1, 2.0), Omega2=st.floats(0.1, 2.0),
                         lambda1=coupling, lambda2=coupling, mu_ex=mu, mu_coop=mu)

    def __contains__(self, params):
        low, high = self.lambdas
        return (abs(params.omega1) <= 3 and abs(params.omega2) <= 3
                and 0.1 <= params.Omega1 <= 2.0 and 0.1 <= params.Omega2 <= 2.0
                and low <= params.lambda1 <= high and low <= params.lambda2 <= high
                and abs(params.mu_ex) <= self.mu and abs(params.mu_coop) <= self.mu)


# the parameter box, and its damped corner, Gamma_j = pi lambda_j^2 >= 0.126,
# where the limit and master-equation properties have always drawn
BOX = Box((0.0, 1.5), 5.0)
DAMPED_BOX = Box((0.2, 1.0), 3.0)


def hard_params():
    """ModelParams draws over every hard region, about a quarter each: the box,
    its damped corner, the box with lambda_j = 0 (one undamped player, or
    none) and either exceptional-point family, exact or detuned."""
    return st.one_of(BOX.draws(), DAMPED_BOX.draws(), BOX.draws(undamped=True),
                     exceptional_points())


def hard_reservoirs():
    """ReservoirState draws, each N_j exactly 0 or 1, or in [0, 1]."""
    occupation = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return st.builds(ReservoirState, occupation, occupation)


# the eigen route rounds at eps cond(P): a route comparison with a fixed
# bound in eps takes it only where cond(P) is at most this; the members
# just under the switch, cond(P) > 100, are for the bounds that carry cond(P)
WELL_CONDITIONED = 10.0


def route_cases(cases, cond_max=dynamics.COND_LIMIT):
    """pytest params (s, route), id "<label>-<route>", for the tests that
    force a route: the table route on every case, and the eigen route
    where the gate takes it and cond(P) is at most cond_max."""
    params = []
    for s in cases:
        routes = ["fallback"]
        if eigen_cond(build_generator(s.params)) <= cond_max:
            routes.insert(0, "eigendecomposition")
        params += [pytest.param(s, route, id=f"{s.label}-{route}") for route in routes]
    return params


def damped(params):
    """Whether both players are damped, the premise of a limit."""
    return params.gamma1 > 0.0 and params.gamma2 > 0.0


# the bath part's least-squares solve loses digits as sigma_max / sigma_min
# of its Lyapunov operator (CHANGES.md FOUND): at a margin sigma_min /
# sigma_max of 1.6e-3 the limit misses a 40-digit solve by 1.7e-13, and at
# 1e-4 to 1e-3 a draw's master-equation deviation read up to 127 times its
# scale; at 1e-2 and above, 3.9 times at most
BATH_MARGIN = 1e-2


def bath_well_posed(params):
    """No bath feed (lambda1 = lambda2 = 0), or a margin of at least
    BATH_MARGIN for the bath's Lyapunov operator K = A (x) 1 + 1 (x) conj(A),
    A = i U."""
    if params.lambda1 == 0.0 and params.lambda2 == 0.0:
        return True
    A = 1j * build_generator(params)
    K = np.kron(A, np.eye(4)) + np.kron(np.eye(4), A.conj())
    sigma = np.linalg.svd(K, compute_uv=False)
    return sigma[-1] >= BATH_MARGIN * sigma[0]


def bath_premise(params):
    """Whether a drawn run's bath part is held to its rounding bounds: in
    DAMPED_BOX always, since the properties that reach the bath solve have
    always checked that box whole; elsewhere where bath_well_posed.  Every
    exceptional-point draw is well posed (margin 0.025 at least, at
    Gamma = (0.05, 0.05), |omega| = 2)."""
    return params in DAMPED_BOX or bath_well_posed(params)


def _fig6_right(label, **changes):
    base = PRESETS["fig6-right"]
    return dataclasses.replace(base, params=dataclasses.replace(base.params, **changes),
                               t_max=2.0, dt=1e-3, label=label)


HARD = [
    *(PRESETS[name] for name in sorted(PRESETS)),
    # a long horizon: nt = 200001
    dataclasses.replace(PRESETS["fig3-left"], t_max=20.0, label="fig3-left-t20"),
    # the exchange exceptional point, cond(P) 9.0e7: the table route
    *(ep_scenario(seed) for seed in (1, 2, 3)),
    # the same point against partly filled baths, short enough for a
    # reference that grows like exp(Gamma t)
    make_scenario(exceptional_params(), InitialState(0.5j, -0.5j, 0.5, -0.5),
                  N1=0.3, N2=0.8, t_max=2.0, dt=1e-3, label="exceptional-point"),
    # the cooperation exceptional point, omega2 = -1, cond(P) 9.0e7
    make_scenario(exceptional_params(family="cooperation"),
                  InitialState(0.5j, -0.5j, 0.5, -0.5), N1=0.0, N2=1.0,
                  t_max=5.0, dt=1e-3, label="coop-ep"),
    # the gate band: mu_ex = 0.5000001 is diagonalisable, but cond(P) 3.2e3
    # puts it on the table route
    make_scenario(exceptional_params(1e-7), InitialState(0.5, 0.5, 0.5, 0.5),
                  N1=0.0, N2=1.0, t_max=5.0, dt=1e-3, label="band"),
    # the eigen route just under the switch, cond(P) in (100, COND_LIMIT]
    *near_exceptional_eigen_draws(6),
    # no bath: the closed run of ci/smoke.sh, no limit
    make_scenario(make_params(lambda1=0.0, lambda2=0.0, mu_ex=3.0, mu_coop=2.0),
                  InitialState(0.5, 0.5, 0.5j, -0.5), N1=0.0, N2=1.0,
                  t_max=5.0, dt=1e-3, label="closed"),
    # player 2 undamped but A Hurwitz through the couplings; without them
    # player 2 is free and the Lyapunov operator singular
    _fig6_right("fig6-right-undamped2", lambda2=0.0),
    _fig6_right("fig6-right-free2", lambda2=0.0, mu_ex=0.0, mu_coop=0.0),
    # empty baths
    dataclasses.replace(PRESETS["fig6-right"], reservoir=ReservoirState(0.0, 0.0),
                        label="fig6-right-N00"),
]


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)])


def hard_values():
    """The table formatter's hard inputs: decade edges, ties and specials."""
    rng = np.random.default_rng(17)
    # float("1e-30") is correctly rounded; 10.0 ** -30 need not be
    powers = [float(f"1e{k}") for k in range(-30, 21)]
    switches = [1e-5, 1e-4, 1e16, 1e17]  # where %g changes its layout
    integers = rng.integers(10 ** 16, 10 ** 17, 2000).astype(float)
    # m * 2**e has as many decimal digits as m * 5**-e: many end in an
    # exact tie at the 18th digit
    dyadic = np.ldexp(rng.integers(1, 2 ** 20, 4000).astype(float),
                      rng.integers(-45, 1, 4000))
    limits = [1e-280, 1e280]
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               np.inf, np.nan, 0.1, 0.5, 1.0, 2.0 ** 53, 2.0 ** -25]
    pool = np.concatenate([with_neighbours(powers + switches + limits),
                           integers, dyadic, special])
    return np.concatenate([pool, -pool])
