"""The asymptotic and finite-key rates against the 60-digit reference in `exact.py`."""

import itertools
import math
from decimal import Context, Decimal, localcontext

import exact

from quditkd import adversary
from quditkd.protocol import Family, FluxMode, ProtocolSpec
from quditkd.rates_asymptotic import BISECTION_TOL, critical_q, r_infinity
from quditkd.rates_finite import FiniteKeyBudget, FreeParams, r_finite, xi

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SUPPORTED = [(Family.TWO_BASIS, d) for d in range(2, 33)] + [(Family.DPLUS1, d) for d in PRIMES_TO_31]
GRID_Q = (0.001, 0.01, 0.05, 0.1, 0.15)

# The largest distance of each `RateReport` field from the reference over
# SUPPORTED x GRID_Q, in ulp of the reference, measured on the code before
# `r_infinity` built its depolarizing vector once, and fixed then: a change
# to the asymptotic path may not move any value farther from the truth.
# The worst cases are dplus1 d = 29 at Q = 0.001 for i_e, which misses by
# 1.8e-14 because the kernel forms the spectrum's small entries as
# (d c + q_01[0] - 1)/d and that difference cancels; two-basis d = 28 at
# Q = 0.1 for h_ab; and dplus1 d = 13 at Q = 0.15 for r_inf_raw.
MAX_ULP = {"i_e": 20862.42, "h_ab": 4.47, "r_inf_raw": 42.62}


def _ulp_distance(got: float, ref: Decimal) -> float:
    return float(abs(Decimal(got) - ref) / Decimal(math.ulp(float(ref))))


def test_r_infinity_is_within_the_measured_ulp_of_the_truth():
    worst = dict.fromkeys(MAX_ULP, 0.0)
    for family, d in SUPPORTED:
        for q in GRID_Q:
            report = r_infinity(ProtocolSpec(family, d), q)
            h_q = exact.entropy(exact.depolarizing_vector(d, q))
            reference = {"i_e": exact.ie(family, d, q), "h_ab": h_q, "r_inf_raw": exact.r_inf(family, d, q)}
            for name, ref in reference.items():
                worst[name] = max(worst[name], _ulp_distance(getattr(report, name), ref))
    assert all(worst[name] <= bound for name, bound in MAX_ULP.items()), worst


def test_critical_q_is_within_the_bisection_tolerance_of_the_true_root():
    misses = {
        (family.value, d): float(abs(Decimal(critical_q(ProtocolSpec(family, d))) - exact.critical_q(family, d)))
        for family, d in SUPPORTED
    }
    assert max(misses.values()) <= BISECTION_TOL, max(misses.items(), key=lambda item: item[1])


def test_the_uniform_vector_has_entropy_log2_d_at_60_digits():
    for d in range(2, 33):
        with localcontext(Context(prec=exact.PRECISION)):
            uniform = [(Decimal(1) / d, d)]
            assert abs(exact.entropy(uniform) - exact.log2(Decimal(d))) <= Decimal("1e-58"), d


# The finite-key grid: both families at small, middle and the largest
# supported d, x every flux mode x FINITE_Q x FINITE_N x FINITE_PARAMS, at
# eps = 1e-5 and eps_EC = 1e-10. It holds rates, zero rates, saturated
# cells (most at N = 1e4) and degenerate ones.
FINITE_DIMS = {Family.TWO_BASIS: (2, 3, 11, 32), Family.DPLUS1: (2, 3, 11, 31)}
FINITE_Q = (0.0, 0.01, 0.05, 0.12)
FINITE_N = (10**4, 10**6, 10**9, 10**12)
FINITE_PARAMS = (FreeParams(0.5, 2e-6, 1e-7, 2e-6), FreeParams(0.8, 1e-9, 1e-8, 5e-6))
EPS, EPS_EC = 1e-5, 1e-10
# No grid cell clips the dplus1 spectrum: that takes a key radius larger
# than the check radius, so a p01 small enough that the key basis keeps
# fewer rounds than each check basis. These cells, with p01 found by
# bisection, clip about 3e-7 of the mass, below CLAMP_MASS_TOL, so they are
# renormalized rather than saturated.
CLIP_CELLS = [
    (Family.DPLUS1, d, FluxMode(mode), q, 10**9, FreeParams(p01, 2e-6, 1e-7, 2e-6))
    for d, mode, q, p01 in ((2, "equal", 0.0, 0.19552), (3, "brute", 0.0, 0.179068), (5, "single", 0.01, 0.087322))
]
FINITE_CELLS = CLIP_CELLS + [
    (family, d, mode, q, n_signals, params)
    for family, dims in FINITE_DIMS.items()
    for d, mode, q, n_signals, params in itertools.product(dims, FluxMode, FINITE_Q, FINITE_N, FINITE_PARAMS)
]

# The largest distance of each `r_finite` term from the reference over
# FINITE_CELLS, in ulp of the reference, measured on the code before
# `critical_q` lost its end-point evaluations and `_rates` its all-degenerate
# return, and fixed then: a change to the finite-key path may not move any
# value farther from the truth. The worst cases are dplus1 d = 2 at Q = 0
# and N = 1e12 for holevo_worst, which misses by 6.3e-16 because the kernel
# forms the spectrum's small entries as (d c + q_01[0] - 1)/d and that
# difference cancels, as for `r_infinity`'s i_e; and dplus1 d = 11 at
# Q = 0.12, N = 1e6 and p01 = 0.8 for r_n, a rate of 1.2e-3 left after
# subtracting terms a thousand times larger. The penalty terms and h_ab
# stay within 2.4 ulp.
FINITE_MAX_ULP = {
    "holevo_worst": 11638.0, "h_ab": 2.37, "ec_term": 0.6, "pa_term": 0.88, "smooth_term": 1.12, "r_n": 655.79,
}
# `xi` over XI_GRID, measured and fixed with FINITE_MAX_ULP: its worst
# case is m = 1e12, d = 3, eps_PE = 1e-7
XI_MAX_ULP = 1.15
XI_GRID = ((1, 2, 10, 1000, 27777, 10**6, 10**9, 10**12, 2**53), (2, 3, 11, 32), (0.5, 1e-7, 1e-10, 1e-300))


def test_xi_is_within_the_measured_ulp_of_the_truth():
    worst = max(_ulp_distance(xi(m, d, e), exact.xi(m, d, e)) for m, d, e in itertools.product(*XI_GRID))
    assert worst <= XI_MAX_ULP, worst


def test_the_reference_uses_the_package_tolerances():
    assert float(exact.SATURATION_TOL) == adversary.SATURATION_TOL
    assert float(exact.CLAMP_MASS_TOL) == adversary.CLAMP_MASS_TOL


def test_r_finite_terms_are_within_the_measured_ulp_of_the_truth():
    worst = dict.fromkeys(FINITE_MAX_ULP, 0.0)
    cells = {"rate": 0, "saturated": 0, "degenerate": 0}
    for family, d, mode, q, n_signals, params in FINITE_CELLS:
        report = r_finite(ProtocolSpec(family, d), q, FiniteKeyBudget(n_signals, EPS, EPS_EC), params, mode)
        if report.degenerate:
            assert min(report.m_per_basis) == 0
            cells["degenerate"] += 1
            continue
        terms, saturated = exact.finite_key_terms(
            family.value, d, q, mode.value, n_signals, report.n, report.m_per_basis[1], EPS_EC,
            (params.p01, params.eps_pa, params.eps_pe, params.eps_bar),
        )
        assert report.saturated == saturated, (family.value, d, mode.value, q, n_signals, params)
        if saturated:
            assert report.r_n == 0.0 and report.terms == {}
            cells["saturated"] += 1
            continue
        cells["rate"] += 1
        got = dict(report.terms, r_n=report.r_n)
        for name, ref in terms.items():
            worst[name] = max(worst[name], _ulp_distance(got[name], ref))
    assert all(cells.values()), cells
    assert all(worst[name] <= bound for name, bound in FINITE_MAX_ULP.items()), worst
