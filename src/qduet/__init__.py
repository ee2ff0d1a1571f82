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

When qduet is the first to import numpy, it loads numpy with one BLAS
thread; a thread count the user sets, or a numpy imported before qduet,
is left alone.
"""

import os
import sys

# The BLAS calls here are small: a form's (2 nq x 16) by (16 x B) product,
# under 1 ms on one thread at nt = 200001, the 16-vector product that
# precedes it, and the law-of-total-probability prediction, a 4-vector
# times a (4, 2 nt) matrix.  An OpenBLAS worker pool once split the form
# product and took 6 to 8 ms on 2 cores, so the pool only costs CPU.  It
# starts when the library loads, so the count must be in the environment
# while numpy is imported; it is taken out again so that child processes
# and later libraries keep their defaults.
if "numpy" not in sys.modules and not any(
        v in os.environ for v in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import algebra, analysis, dynamics, model, oracle
from .algebra import *
from .analysis import *
from .dynamics import *
from .model import *
from .oracle import *

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package's is their union
__all__ = ["__version__", *algebra.__all__, *model.__all__, *dynamics.__all__,
           *oracle.__all__, *analysis.__all__]
