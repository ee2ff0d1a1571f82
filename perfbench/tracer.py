"""Span recording around qduet's public functions, for the traced run.

The tracer replaces each traced function in every qduet module namespace
where callers look it up, so calls made inside the package (for example
`decision_series` called from `oracle.ltp_residual`) are recorded too.
Spans are kept in memory as [name, start, end, parent, info] and written
out by the caller once the workload is done.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _propagator_info(args, kwargs, grid) -> dict:
    return {"nt": len(grid.times), "fallback": bool(grid.used_fallback)}


def _file_info(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# canonical span name -> (home module, function name, info recorder)
TARGETS = {
    "model.validate_scenario": ("qduet.model", "validate_scenario", None),
    "model.load_scenario": ("qduet.model", "load_scenario", None),
    "dynamics.propagator": ("qduet.dynamics", "propagator", _propagator_info),
    "dynamics.mu_player": ("qduet.dynamics", "mu_player", None),
    "dynamics.delta_mu": ("qduet.dynamics", "delta_mu", None),
    "dynamics.bath_contribution": ("qduet.dynamics", "bath_contribution", None),
    "dynamics.decision_series": ("qduet.dynamics", "decision_series", None),
    "analysis.decision_time": ("qduet.analysis", "decision_time", None),
    "analysis.asymptotics": ("qduet.analysis", "asymptotics", None),
    "analysis.noise_metric": ("qduet.analysis", "noise_metric", None),
    "oracle.ltp_residual": ("qduet.oracle", "ltp_residual", None),
    "oracle.propagator_residual": ("qduet.oracle", "propagator_residual", None),
    "cli.write_csv": ("qduet.cli", "write_csv", _file_info),
    "cli.write_svg": ("qduet.cli", "write_svg", _file_info),
    "cli.run_one": ("qduet.cli", "run_one", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def install(self) -> "Tracer":
        """Patch every qduet namespace that holds a traced function.

        A target the package no longer defines is skipped; its metrics
        then read 0.
        """
        import qduet.cli  # noqa: F401  (the CLI module is not imported by qduet)
        modules = [m for k, m in sys.modules.items()
                   if k == "qduet" or k.startswith("qduet.")]
        for name, (home, attr, info) in TARGETS.items():
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return self
