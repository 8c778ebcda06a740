"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured worst-case numbers, then asserts. Run with `pytest -v` (lines
print live) or plain `pytest` (lines still bypass capture).
"""

import math
import time

import numpy as np
import pytest

from oracles import adversary_information_rows, two_basis_adversary_grid_max

from quditkd.channels import BellSpectrum, depolarizing_spectrum, lambda_from_q, q_from_lambda
from quditkd.cli import main
from quditkd.errors import NonPrimeDimension
from quditkd.info_theory import depolarizing_vector, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_asymptotic import critical_q, ie_depolarizing, r_infinity
from quditkd.rates_finite import FluxMode, optimize_r_finite
from quditkd.simulator import SimConfig, difference_marginal, run_simulation
from quditkd.verification import run_suite

MC_SEED = 20260815

CRITICAL_PERCENT_TWO_BASIS = {2: 11.00, 3: 15.95, 4: 18.93, 5: 20.99, 7: 23.72, 11: 26.82}
CRITICAL_PERCENT_DPLUS1 = {2: 12.62, 3: 19.14, 5: 25.94, 7: 29.53, 11: 33.36}


def _verdict(capsys, number: int, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {number:02d}: {label}"


def test_criterion_01_critical_noise_table(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for family, table in (
        (Family.TWO_BASIS, CRITICAL_PERCENT_TWO_BASIS),
        (Family.DPLUS1, CRITICAL_PERCENT_DPLUS1),
    ):
        for d, expected in table.items():
            got = 100.0 * critical_q(ProtocolSpec(family, d))
            worst = max(worst, abs(got - expected))
    gate_ok = False
    try:
        ProtocolSpec(Family.DPLUS1, 4)
    except NonPrimeDimension:
        gate_ok = True
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and gate_ok and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"critical-noise table, 11 entries (max dev {worst:.4f} pp, "
             f"composite d rejected: {gate_ok}, {elapsed:.2f} s)")


def test_criterion_02_holevo_consistency(capsys):
    worst = 0.0
    for d in (2, 3, 5, 7, 11):
        spec = ProtocolSpec(Family.DPLUS1, d)
        q_max = critical_q(spec)
        for q in np.arange(0.01, q_max, 0.01):
            closed = ie_depolarizing(spec, float(q))
            stats = q_from_lambda(spec, depolarizing_spectrum(spec.dim, float(q)))
            general, saturated = adversary_information_rows(spec, stats[None])
            assert not saturated[0]
            worst = max(worst, abs(closed - float(general[0])))
    ok = worst <= 1e-10
    _verdict(capsys, 2, ok,
             f"(d+1)-basis closed-form I_E vs generic Holevo (max dev {worst:.2e})")


def test_criterion_03_two_basis_adversary_bound(capsys):
    exact_ok = True
    for d in (2, 3, 5, 7, 11):
        spec = ProtocolSpec(Family.TWO_BASIS, d)
        for q in (0.01, 0.05, 0.1):
            vec = depolarizing_vector(spec.dim, q)
            info, saturated = adversary_information_rows(spec, np.stack([vec, vec])[None])
            exact_ok &= not saturated[0] and float(info[0]) == shannon_entropy(vec)
            exact_ok &= ie_depolarizing(spec, q) == shannon_entropy(vec)
    worst_gap, worst_overshoot = 0.0, 0.0
    for q in (np.array([0.9, 0.1]), np.array([0.9, 0.05, 0.05])):
        info, saturated = adversary_information_rows(ProtocolSpec(Family.TWO_BASIS, q.size), np.stack([q, q])[None])
        assert not saturated[0]
        closed = float(info[0])
        grid_max, violation = two_basis_adversary_grid_max(q, step=0.05)
        assert violation <= 1e-9
        worst_overshoot = max(worst_overshoot, grid_max - closed)
        worst_gap = max(worst_gap, closed - grid_max)
    ok = exact_ok and worst_overshoot <= 1e-12 and worst_gap <= 0.01
    _verdict(capsys, 3, ok,
             f"two-basis adversary maximum (grid never above closed form by {worst_overshoot:.1e}, "
             f"approaches it within {worst_gap:.4f})")


def test_criterion_04_statistics_roundtrip(capsys):
    worst = 0.0
    for d in (2, 3, 5, 7):
        spec = ProtocolSpec(Family.DPLUS1, d)
        rng = np.random.default_rng(MC_SEED + d)
        for _ in range(100):
            lam = BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))
            back = lambda_from_q(spec.dim, q_from_lambda(spec, lam))
            worst = max(worst, float(np.abs(back.lam - lam.lam).max()))
    ok = worst <= 1e-12
    _verdict(capsys, 4, ok,
             f"error-statistics roundtrip, 100 spectra x d in {{2,3,5,7}} (max dev {worst:.2e})")


def test_criterion_05_operator_self_checks(capsys):
    results = run_suite([2, 3, 4, 5, 6, 7, 13, 19])
    failures = [r for r in results if not r.passed]
    worst = max(r.max_err for r in results)
    ok = not failures and len(results) >= 40
    _verdict(capsys, 5, ok,
             f"operator algebra self-checks, {len(results)} checks d<=19 "
             f"({len(failures)} failures, max err {worst:.2e})")


def test_criterion_06_monte_carlo_agreement(capsys):
    worst_dev, worst_time = 0.0, 0.0
    chi_ok = True
    for d in (2, 3, 5):
        spec = ProtocolSpec(Family.DPLUS1, d)
        for q in (0.05, 0.10):
            cfg = SimConfig(spec, depolarizing_spectrum(spec.dim, q), rounds=10**6, seed=MC_SEED)
            t0 = time.perf_counter()
            res = run_simulation(cfg)
            worst_time = max(worst_time, time.perf_counter() - t0)
            chi_ok &= res.all_passed
            for st in res.per_basis:
                counts_t = difference_marginal(st.counts.astype(float))
                for t, q_t in enumerate(st.analytic_q):
                    if q_t <= 1e-15:
                        continue
                    sigma = math.sqrt(st.matched * q_t * (1.0 - q_t))
                    worst_dev = max(worst_dev, abs(counts_t[t] - st.matched * q_t) / sigma)
    ok = chi_ok and worst_dev < 5.0 and worst_time < 60.0
    _verdict(capsys, 6, ok,
             f"Monte Carlo vs analytic statistics, 6 configs x 1e6 rounds "
             f"(chi-square all pass: {chi_ok}, worst class dev {worst_dev:.2f} sigma, "
             f"slowest {worst_time:.1f} s)")


def test_criterion_07_finite_key_behavior(capsys):
    q = 0.05
    decades = [10**3, 10**4, 10**5, 10**6]
    zero_ok, window_ok, mono_ok = True, True, True
    for family in (Family.TWO_BASIS, Family.DPLUS1):
        for d in (2, 3, 5, 7, 11):
            spec = ProtocolSpec(family, d)
            rates = [optimize_r_finite(spec, q, n, 1e-5, 1e-10).r_n for n in decades]
            zero_ok &= rates[0] == 0.0
            first_pos = next((n for n, r in zip(decades, rates) if r > 0.0), None)
            window_ok &= first_pos is not None and 10**4 <= first_pos <= 10**6
            mono_ok &= all(b >= a for a, b in zip(rates, rates[1:]))
    worst_gap = 0.0
    for family in (Family.TWO_BASIS, Family.DPLUS1):
        for d in (2, 3, 5):
            spec = ProtocolSpec(family, d)
            limit = r_infinity(spec, q).r_inf
            r_big = optimize_r_finite(spec, q, 10**12, 1e-5, 1e-10).r_n
            worst_gap = max(worst_gap, (limit - r_big) / limit)
    ok = zero_ok and window_ok and mono_ok and worst_gap <= 0.10
    _verdict(capsys, 7, ok,
             f"finite-key onset and convergence (zero at 1e3: {zero_ok}, onset in [1e4,1e6]: "
             f"{window_ok}, monotone: {mono_ok}, gap to asymptote at 1e12 <= {worst_gap:.1%})")


def test_criterion_08_smoothing_coefficient(capsys):
    from quditkd.rates_finite import FiniteKeyBudget, FreeParams, r_finite

    coeffs = {}
    for d in (2, 5):
        spec = ProtocolSpec(Family.TWO_BASIS, d)
        budget = FiniteKeyBudget(10**8, 1e-5, 1e-10)
        rep = r_finite(spec, 0.05, budget, FreeParams(0.9, 1e-6, 1e-6, 1e-6))
        coeffs[d] = rep.terms["smooth_coefficient"]
    ok = coeffs[2] == 5.0 and abs(coeffs[5] - (2 * math.log2(5) + 3)) <= 1e-12 \
        and abs(coeffs[5] - 7.6439) <= 1e-4
    _verdict(capsys, 8, ok,
             f"smoothing coefficient 2*log2(d)+3 (d=2: {coeffs[2]:.10g}, d=5: {coeffs[5]:.10g})")


def test_criterion_09_flux_mode_ordering(capsys):
    ok = True
    details = []
    for d in (3, 5):
        spec = ProtocolSpec(Family.TWO_BASIS, d)
        for n in (10**5, 10**7):
            rates = {
                mode: optimize_r_finite(spec, 0.05, n, 1e-5, 1e-10, mode=mode).r_n
                for mode in (FluxMode.BRUTE, FluxMode.EQUAL, FluxMode.SINGLE)
            }
            ordered = rates[FluxMode.BRUTE] <= rates[FluxMode.EQUAL] <= rates[FluxMode.SINGLE]
            ok &= ordered and rates[FluxMode.BRUTE] > 0.0
            details.append(f"d={d},N=1e{int(math.log10(n))}:{'ok' if ordered else 'BAD'}")
    _verdict(capsys, 9, ok,
             f"statistical-fluctuation allocation ordering brute<=equal<=single ({', '.join(details)})")


def test_criterion_10_cli_determinism(capsys):
    commands = [
        ["critical-q", "--dims", "2,3,5", "--family", "dplus1", "--format", "json"],
        ["asymptotic", "--dim", "3", "--q-max", "0.15"],
        ["finite-key", "--dim", "2", "--n-min", "1000", "--n-max", "100000", "--n-points", "3"],
        ["simulate", "--dim", "2", "--q", "0.1", "--rounds", "20000", "--seed", "42"],
        ["verify", "--dims", "2,3,5"],
    ]
    ok = True
    for argv in commands:
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        ok &= code_a == 0 and code_b == 0 and out_a == out_b and bool(out_a)
    _verdict(capsys, 10, ok,
             f"CLI determinism, {len(commands)} subcommands run twice byte-identically")
