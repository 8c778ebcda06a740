"""Key-rate toolkit for qudit QKD protocols built on Weyl-operator bases.

The package computes asymptotic and finite-size secret-key rates for the
two-basis and (d+1)-basis protocol families, cross-checks the analytic
error statistics against a Monte Carlo measurement model, and ships a CLI
(`quditkd`) for tables, sweeps and self-checks.

Importing the package loads none of its modules: each name of `__all__` is
imported from its home module in `_HOMES` on first use (PEP 562), so a
command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "channels": ("BellSpectrum", "depolarizing_spectrum", "lambda_from_q", "q_from_lambda"),
    "errors": ("QkdError",),
    "info_theory": ("depolarizing_vector", "shannon_entropy"),
    "protocol": ("Dim", "Family", "FluxMode", "ProtocolSpec", "WeylIndex"),
    "qudit_algebra": ("basis_for", "weyl_operator"),
    "rates_asymptotic": ("RateReport", "critical_q", "ie_depolarizing", "r_infinity"),
    "rates_finite": ("FiniteKeyBudget", "FiniteRateReport", "FreeParams", "optimize_r_finite", "r_finite", "xi"),
    "simulator": ("SimConfig", "SimResult", "joint_outcome_distribution", "run_simulation"),
    "verification": ("CheckResult", "run_suite"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
