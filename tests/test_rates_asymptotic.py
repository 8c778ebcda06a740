import math

import numpy as np
import pytest
from oracles import two_basis_adversary_grid_max

from quditkd.channels import BellSpectrum, depolarizing_spectrum, q_from_lambda
from quditkd.errors import NonPrimeDimension, OutOfRange
from quditkd.info_theory import depolarizing_vector, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim
from quditkd.rates_asymptotic import (
    adversary_information_rows,
    critical_q,
    ie_depolarizing,
    r_infinity,
)


def _information(spec, stats):
    info, saturated = adversary_information_rows(spec, stats[None])
    assert not saturated[0]
    return float(info[0])


def holevo_of(spec, spectrum):
    return _information(spec, q_from_lambda(spec, spectrum))


def two_basis_information(q01, q10):
    spec = ProtocolSpec(Family.TWO_BASIS, len(q10))
    return _information(spec, np.array([q01, q10], dtype=float))


def test_holevo_trivial_cases():
    spec = ProtocolSpec(Family.DPLUS1, 2)
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0
    assert holevo_of(spec, BellSpectrum(lam)) == 0.0
    assert holevo_of(spec, BellSpectrum(np.full((2, 2), 0.25))) == pytest.approx(1.0, abs=1e-12)


def test_holevo_depolarizing_d2():
    spec = ProtocolSpec(Family.DPLUS1, 2)
    got = holevo_of(spec, depolarizing_spectrum(spec.dim, 0.1))
    expect = shannon_entropy([0.85, 0.05, 0.05, 0.05]) - shannon_entropy([0.9, 0.1])
    assert got == pytest.approx(expect, abs=1e-12)


def test_ie_two_basis_is_exactly_check_basis_entropy():
    q01 = np.array([0.92, 0.05, 0.03])
    q10 = np.array([0.89, 0.06, 0.05])
    assert two_basis_information(q01, q10) == shannon_entropy(q10)
    assert two_basis_information([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_ie_two_basis_threshold_values():
    # Q = 11% is the d=2 threshold: 1 - 2 H(0.89, 0.11) crosses 0 there
    h = two_basis_information([0.89, 0.11], [0.89, 0.11])
    assert h == pytest.approx(0.499915958164528, abs=1e-14)
    assert abs(1.0 - 2.0 * h) < 5e-4
    q5 = depolarizing_vector(Dim(5), 0.2099)
    v = two_basis_information(q5, q5)
    assert abs(math.log2(5) - 2.0 * v) < 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_ie_two_basis_matches_brute_force_grid(d):
    q = np.array([0.9, 0.1]) if d == 2 else np.array([0.9, 0.05, 0.05])
    closed_form = two_basis_information(q, q)
    grid_max, violation = two_basis_adversary_grid_max(q, step=0.05)
    assert violation <= 1e-9
    assert grid_max <= closed_form + 1e-12
    assert grid_max >= closed_form - 0.01


def test_ie_depolarizing_two_basis_closed_form():
    for d in (2, 3, 5, 11):
        spec = ProtocolSpec(Family.TWO_BASIS, d)
        for q in (0.0, 0.02, 0.11):
            vec = depolarizing_vector(spec.dim, q)
            assert ie_depolarizing(spec, q) == shannon_entropy(vec)
            assert ie_depolarizing(spec, q) == two_basis_information(vec, vec)


def test_ie_depolarizing_matches_holevo_spot_checks():
    for d in (2, 3, 5):
        spec = ProtocolSpec(Family.DPLUS1, d)
        for q in (0.01, 0.07, 0.15, 0.21):
            lam = depolarizing_spectrum(spec.dim, q)
            assert ie_depolarizing(spec, q) == pytest.approx(
                holevo_of(spec, lam), abs=1e-10
            )


def test_ie_depolarizing_zero_noise_and_domain():
    assert ie_depolarizing(ProtocolSpec(Family.DPLUS1, 3), 0.0) == 0.0
    assert ie_depolarizing(ProtocolSpec(Family.TWO_BASIS, 3), 0.0) == 0.0
    with pytest.raises(OutOfRange):
        ie_depolarizing(ProtocolSpec(Family.TWO_BASIS, 2), 0.51)
    with pytest.raises(OutOfRange):
        ie_depolarizing(ProtocolSpec(Family.DPLUS1, 2), 2 / 3 + 1e-6)


def test_ie_depolarizing_table_thresholds():
    r2 = r_infinity(ProtocolSpec(Family.DPLUS1, 2), 0.1262)
    assert abs(r2.r_inf_raw) < 5e-4
    r3 = r_infinity(ProtocolSpec(Family.TWO_BASIS, 3), 0.1595)
    assert abs(r3.r_inf_raw) < 5e-4


def test_r_infinity_reports():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    assert r_infinity(spec, 0.0).r_inf == pytest.approx(1.0, abs=1e-12)
    rep = r_infinity(spec, 0.05)
    assert rep.r_inf == pytest.approx(0.4272060857680875, abs=1e-13)
    assert rep.r_inf_raw == pytest.approx(
        math.log2(2) - rep.h_ab - rep.i_e, abs=1e-12
    )
    beyond = r_infinity(spec, 0.2)
    assert beyond.r_inf == 0.0 and beyond.r_inf_raw < 0.0


def test_critical_q_spec_examples():
    assert critical_q(ProtocolSpec(Family.TWO_BASIS, 2)) == pytest.approx(0.1100, abs=1e-4)
    assert critical_q(ProtocolSpec(Family.DPLUS1, 7)) == pytest.approx(0.2953, abs=1e-4)
    # composite d allowed for the two-basis family
    assert critical_q(ProtocolSpec(Family.TWO_BASIS, 4)) == pytest.approx(0.1893, abs=1e-4)


def test_critical_q_orderings():
    prev_two, prev_dp = 0.0, 0.0
    for d in (2, 3, 5, 7, 11):
        two = critical_q(ProtocolSpec(Family.TWO_BASIS, d))
        dp = critical_q(ProtocolSpec(Family.DPLUS1, d))
        assert dp > two
        assert two > prev_two and dp > prev_dp
        prev_two, prev_dp = two, dp


def test_r_inf_strictly_decreasing_up_to_threshold():
    spec = ProtocolSpec(Family.DPLUS1, 3)
    qc = critical_q(spec)
    grid = np.linspace(0.0, qc, 25)
    values = [r_infinity(spec, q).r_inf_raw for q in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_dplus1_requires_prime_dimension():
    with pytest.raises(NonPrimeDimension):
        ProtocolSpec(Family.DPLUS1, 4)
