"""Soundness of the finite-key fluctuation radius on sampled data.

`rates_finite.xi(m, d, eps_PE)` promises that the error vector estimated
from m samples lies within xi of the true one, in l1 distance, except with
probability eps_PE. Here that promise is checked against seeded multinomial
draws from depolarizing error vectors.
"""

import math

import numpy as np
import pytest

from quditkd.info_theory import depolarizing_vector
from quditkd.qudit_algebra import Dim
from quditkd.rates_finite import xi

DRAWS = 20_000
# one-sided binomial tolerance on the miss share, fixed before the first run:
# 4 standard deviations of a share of DRAWS Bernoulli(eps_PE) trials
Z = 4.0


@pytest.mark.parametrize("eps_pe", (0.05, 0.2))
@pytest.mark.parametrize("m", (100, 1_000, 10_000))
@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_xi_covers_the_sampled_error_vector(d, m, eps_pe):
    radius = xi(m, d, eps_pe)
    allowed = eps_pe + Z * math.sqrt(eps_pe * (1.0 - eps_pe) / DRAWS)
    for q in (0.01, 0.05, 0.15):
        nominal = depolarizing_vector(Dim(d), q)
        rng = np.random.default_rng([d, m, round(100 * q), round(100 * eps_pe)])
        estimates = rng.multinomial(m, nominal, size=DRAWS) / m
        distance = np.abs(estimates - nominal).sum(axis=1)
        misses = float(np.mean(distance >= radius))
        assert misses <= allowed, (d, m, q, eps_pe, misses, allowed)
