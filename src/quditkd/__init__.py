"""Key-rate toolkit for qudit QKD protocols built on Weyl-operator bases.

The package computes asymptotic and finite-size secret-key rates for the
two-basis and (d+1)-basis protocol families, cross-checks the analytic
error statistics against a Monte Carlo measurement model, and ships a CLI
(`quditkd`) for tables, sweeps and self-checks.
"""

from .channels import BellSpectrum, depolarizing_spectrum, lambda_from_q, q_from_lambda
from .errors import QkdError
from .info_theory import depolarizing_vector, shannon_entropy
from .protocol import Family, ProtocolSpec
from .qudit_algebra import Dim, WeylIndex, basis_for, weyl_operator
from .rates_asymptotic import RateReport, critical_q, ie_depolarizing, r_infinity
from .rates_finite import (
    FiniteKeyBudget,
    FiniteRateReport,
    FluxMode,
    FreeParams,
    optimize_r_finite,
    r_finite,
    xi,
)
from .simulator import SimConfig, SimResult, joint_outcome_distribution, run_simulation
from .verification import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BellSpectrum",
    "CheckResult",
    "Dim",
    "Family",
    "FiniteKeyBudget",
    "FiniteRateReport",
    "FluxMode",
    "FreeParams",
    "ProtocolSpec",
    "QkdError",
    "RateReport",
    "SimConfig",
    "SimResult",
    "WeylIndex",
    "basis_for",
    "critical_q",
    "depolarizing_spectrum",
    "depolarizing_vector",
    "ie_depolarizing",
    "joint_outcome_distribution",
    "lambda_from_q",
    "optimize_r_finite",
    "q_from_lambda",
    "r_finite",
    "r_infinity",
    "run_simulation",
    "run_suite",
    "shannon_entropy",
    "weyl_operator",
    "xi",
]
