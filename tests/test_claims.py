"""The abstract's three claims, across every supported dimension.

At fixed depolarizing noise the asymptotic key rate rises with d (claim 1),
and so does the robustness, the critical Q where that rate reaches zero
(claim 2). Both are checked strictly, step by step in d: two-basis at every
d from 2 to MAX_DIM, and (d+1)-basis at every prime up to MAX_DIM, the
dimensions whose spectrum reconstruction the family needs.

Finite-key corrections are almost insensitive to d up to about 20 (claim
3): the optimized r_N over r_inf at Q = 5% and N = 1e8 varies little with
d. It is asserted for two-basis d = 2..19, where the largest ratio must be
at most FLAT_SPREAD times the smallest, a threshold fixed before the first
run. The (d+1)-basis ratio falls with d under the paper's bound; the README
"Claims" table, regenerated here byte for byte, states both verdicts.
"""

import functools
from pathlib import Path

import pytest

from quditkd.cli import MAX_DIM
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim
from quditkd.rates_asymptotic import critical_q, r_infinity
from quditkd.rates_finite import optimize_r_finite

DIMS = {
    Family.TWO_BASIS: list(range(2, MAX_DIM + 1)),
    Family.DPLUS1: [d for d in range(2, MAX_DIM + 1) if Dim(d).prime],
}


FINITE_KEY = {"q": 0.05, "n_signals": 10**8, "eps": 1e-5, "eps_ec": 1e-10}
TABLE_DIMS = range(2, 32)
FLAT_DIMS = range(2, 20)
FLAT_SPREAD = 1.10
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _rises_strictly(values):
    return all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("q", (0.01, 0.05, 0.15))
def test_claim_1_the_asymptotic_rate_rises_with_d(family, q):
    rates = [r_infinity(ProtocolSpec(family, d), q).r_inf for d in DIMS[family]]
    assert _rises_strictly(rates), rates


@pytest.mark.parametrize("family", list(Family))
def test_claim_2_the_critical_noise_rises_with_d(family):
    thresholds = [critical_q(ProtocolSpec(family, d)) for d in DIMS[family]]
    assert _rises_strictly(thresholds), thresholds


@functools.cache
def _finite_over_asymptotic(family, d):
    spec = ProtocolSpec(family, d)
    return optimize_r_finite(spec, **FINITE_KEY).r_n / r_infinity(spec, FINITE_KEY["q"]).r_inf


def _spread(family):
    """Largest over smallest r_N / r_inf for d in FLAT_DIMS."""
    ratios = [_finite_over_asymptotic(family, d) for d in FLAT_DIMS if d in DIMS[family]]
    return max(ratios) / min(ratios)


def test_claim_3_the_two_basis_finite_key_ratio_barely_moves_up_to_d_19():
    assert _spread(Family.TWO_BASIS) <= FLAT_SPREAD


def _claims_table():
    """The README's claim-3 table: r_N / r_inf per d and family, then each
    family's spread over FLAT_DIMS and its verdict."""
    lines = ["| d | two-basis r_N / r_inf | dplus1 r_N / r_inf |", "| --- | --- | --- |"]
    for d in TABLE_DIMS:
        cells = [f"{_finite_over_asymptotic(f, d):.3f}" if d in DIMS[f] else "-" for f in Family]
        lines.append(f"| {d} | {' | '.join(cells)} |")
    verdicts = [
        f"{_spread(f):.3f}, " + ("reproduced" if _spread(f) <= FLAT_SPREAD else "not reproduced with the paper bound")
        for f in Family
    ]
    lines.append(f"| largest / smallest, d <= {FLAT_DIMS[-1]} | {' | '.join(verdicts)} |")
    return "\n".join(lines) + "\n"


def test_readme_claims_table_is_regenerated_byte_for_byte():
    assert _claims_table() in README, _claims_table()
