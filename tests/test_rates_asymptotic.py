import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import adversary_information_rows, two_basis_adversary_grid_max

from quditkd.channels import BellSpectrum, depolarizing_spectrum, q_from_lambda
from quditkd.errors import NonPrimeDimension, OutOfRange
from quditkd.adversary import _holevo_pairs
from quditkd.info_theory import depolarizing_vector, entropy_rows, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim
import quditkd.rates_asymptotic as rates_asymptotic
from quditkd.rates_asymptotic import critical_q, ie_depolarizing, r_infinity


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
    # both families end at depolarizing_vector's limit (d-1)/d, below d/(d+1)
    for family in Family:
        for d in (2, 3, 5):
            spec = ProtocolSpec(family, d)
            for q in (0.0, 0.001, 0.05, 0.1, 0.15, 0.3, (d - 1) / d):
                assert ie_depolarizing(spec, q) == r_infinity(spec, q).i_e
            for q in ((d - 1) / d + 1e-6, d / (d + 1)):
                with pytest.raises(OutOfRange):
                    ie_depolarizing(spec, q)


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("d", PRIMES_TO_31)
def test_ie_depolarizing_equals_the_spectrum_reconstruction(d):
    # criterion 02 stops at d = 11 and below critical Q; this covers every
    # prime d <= 31 up to the end of the domain, (d-1)/d
    spec = ProtocolSpec(Family.DPLUS1, d)
    qs = np.linspace(0.0, (d - 1) / d, 41)
    stats = np.stack([np.repeat(depolarizing_vector(spec.dim, q)[None], d + 1, axis=0) for q in qs])
    expected, saturated = adversary_information_rows(spec, stats)
    assert not saturated.any()
    got = np.array([ie_depolarizing(spec, float(q)) for q in qs])
    assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_q_just_below_zero_is_q_zero_for_both_families(family):
    # Q down to -ENTRY_SLACK is rounding noise, clamped to 0 as depolarizing_vector does
    spec = ProtocolSpec(family, 3)
    below, zero = r_infinity(spec, -1e-13), r_infinity(spec, 0.0)
    assert (below.i_e, below.h_ab, below.r_inf, below.r_inf_raw) == (zero.i_e, zero.h_ab, zero.r_inf, zero.r_inf_raw)


# every supported (family, d), and rows of more than 128 terms, where
# numpy's pairwise sum splits a row in two
TIED = (
    [(Family.TWO_BASIS, d) for d in range(2, 33)]
    + [(Family.DPLUS1, d) for d in PRIMES_TO_31]
    + [(Family.TWO_BASIS, 64), (Family.TWO_BASIS, 257), (Family.DPLUS1, 257)]
)
TIED_Q = 501  # even grid on [0, (d-1)/d], both ends included
# numpy's baseline dispatch, whose log2 is the C library's, as math.log2 is
BASELINE = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def kernel_gaps() -> dict:
    """`r_infinity` against `_holevo_pairs` and `entropy_rows` on the same
    depolarizing vector, over TIED x TIED_Q: per field, how many values
    differ in any bit and the largest distance in ulp of max(|x|, 1), and
    how many kernel pairs saturate."""
    unequal = dict.fromkeys(("i_e", "h_ab", "r_inf_raw"), 0)
    worst = dict.fromkeys(unequal, 0.0)
    reports = saturated = 0
    for family, d in TIED:
        spec = ProtocolSpec(family, d)
        for q in np.linspace(0.0, (d - 1) / d, TIED_Q).tolist():
            vec = depolarizing_vector(spec.dim, q)[None]
            info, sat = _holevo_pairs(spec, vec, vec)
            kernel = {"i_e": float(info[0]), "h_ab": float(entropy_rows(vec)[0])}
            kernel["r_inf_raw"] = math.log2(d) - kernel["h_ab"] - kernel["i_e"]
            report = r_infinity(spec, q)
            for name, want in kernel.items():
                got = getattr(report, name)
                unequal[name] += got.hex() != want.hex()
                worst[name] = max(worst[name], abs(got - want) / math.ulp(max(abs(want), 1.0)))
            reports += 1
            saturated += bool(sat[0])
    return {"reports": reports, "saturated": saturated, "unequal": unequal, "worst_ulp": worst}


def pairwise_mismatches() -> int:
    """Random rows of every length 1..600, 20 of each, on which
    `_pairwise_sum` and numpy's `.sum(axis=1)` differ in any bit."""
    rng = np.random.default_rng(45)
    mismatches = 0
    for n in range(1, 601):
        rows = rng.standard_normal((20, n)) * 10.0 ** rng.integers(-6, 7, size=(20, n))
        for row, want in zip(rows.tolist(), rows.sum(axis=1).tolist()):
            mismatches += rates_asymptotic._pairwise_sum(row).hex() != want.hex()
    return mismatches


def _in_baseline_child(call: str):
    """The JSON value of `call`, a function of this module, run in a fresh
    interpreter under numpy's baseline dispatch."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(rates_asymptotic.__file__).resolve().parents[1]), str(here)])
    code = f"import json, {Path(__file__).stem} as tests; print(json.dumps(tests.{call}()))"
    env = dict(os.environ, **BASELINE, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


def test_r_infinity_equals_the_kernel_bit_for_bit_where_log2_is_the_c_librarys():
    gaps = _in_baseline_child("kernel_gaps")
    assert gaps["reports"] == TIED_Q * len(TIED) and gaps["saturated"] == 0
    assert gaps["unequal"] == dict.fromkeys(gaps["unequal"], 0), gaps


def test_r_infinity_is_within_8_ulp_of_the_kernel_under_default_dispatch():
    # numpy's AVX-512 log2 differs from math.log2 on about 0.05% of inputs
    gaps = kernel_gaps()
    assert gaps["saturated"] == 0 and max(gaps["worst_ulp"].values()) <= 8.0, gaps


@pytest.mark.parametrize("baseline", [False, True], ids=["default-dispatch", "baseline-dispatch"])
def test_the_pairwise_sum_adds_in_numpys_order(baseline):
    assert (_in_baseline_child("pairwise_mismatches") if baseline else pairwise_mismatches()) == 0


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


# every supported d and a few beyond; dplus1 needs a prime
BRACKET_DIMS = {
    Family.TWO_BASIS: (*range(2, 33), 64, 100, 257),
    Family.DPLUS1: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 257),
}


@pytest.mark.parametrize("family", list(Family))
def test_the_critical_q_bracket_always_changes_sign(family):
    # `critical_q` bisects without evaluating its end points: this is the
    # fact it rests on
    for d in BRACKET_DIMS[family]:
        spec = ProtocolSpec(family, d)
        assert r_infinity(spec, 1e-6).r_inf_raw > 0.0, d
        assert r_infinity(spec, (d - 1) / d - 1e-6).r_inf_raw < 0.0, d


@pytest.mark.parametrize(
    "family, d, calls", [(Family.TWO_BASIS, 2, 29), (Family.TWO_BASIS, 32, 30), (Family.DPLUS1, 31, 30)]
)
def test_critical_q_evaluates_only_midpoints(monkeypatch, family, d, calls):
    seen = []
    rate = rates_asymptotic.r_infinity

    def counting(spec, q):
        seen.append(q)
        return rate(spec, q)

    monkeypatch.setattr(rates_asymptotic, "r_infinity", counting)
    critical_q(ProtocolSpec(family, d))
    assert len(seen) == calls
    assert all(1e-6 < q < (d - 1) / d - 1e-6 for q in seen)


def test_r_inf_strictly_decreasing_up_to_threshold():
    spec = ProtocolSpec(Family.DPLUS1, 3)
    qc = critical_q(spec)
    grid = np.linspace(0.0, qc, 25)
    values = [r_infinity(spec, q).r_inf_raw for q in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_dplus1_requires_prime_dimension():
    with pytest.raises(NonPrimeDimension):
        ProtocolSpec(Family.DPLUS1, 4)
