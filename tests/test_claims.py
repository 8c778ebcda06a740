"""The abstract's first two claims, across every supported dimension.

At fixed depolarizing noise the asymptotic key rate rises with d (claim 1),
and so does the robustness, the critical Q where that rate reaches zero
(claim 2). Both are checked strictly, step by step in d: two-basis at every
d from 2 to MAX_DIM, and (d+1)-basis at every prime up to MAX_DIM, the
dimensions whose spectrum reconstruction the family needs.
"""

import pytest

from quditkd.cli import MAX_DIM
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim
from quditkd.rates_asymptotic import critical_q, r_infinity

DIMS = {
    Family.TWO_BASIS: list(range(2, MAX_DIM + 1)),
    Family.DPLUS1: [d for d in range(2, MAX_DIM + 1) if Dim(d).prime],
}


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
