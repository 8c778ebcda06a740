"""The Bell-diagonal reduction, tested on general two-qudit states.

Every rate assumes that the adversary's best source is Bell-diagonal (the
twirl argument in the `rates_asymptotic` docstring). So for every density
matrix rho on C^d (x) C^d, with q(rho) its protocol statistics,

    H(Z_A|E)_rho >= log2 d - I_E(q(rho)),

with H(Z_A|E) computed from a purification (`oracles.key_entropy_given_eve`)
and q(rho) from the Born rule (`oracles.stats_of_state`), neither of which
goes through the package's Bell-spectrum maps. Equality holds for the
(d+1)-basis family on every Bell-diagonal state, and for the two-basis
family on the product spectra lam = a (x) b that its bound is attained at.
The states are random states of every rank and mixtures
(1 - delta) rho_sigma + delta tau of a Bell-diagonal rho_sigma near Phi_00,
whose spectrum sigma is random (a depolarized one has q[t] = q[-t], which
would hide a sign slip in t), with a rank-2 state tau and 1e-4 <= delta <= 0.1.
"""

import math

import numpy as np
import pytest

from oracles import adversary_information_rows, key_entropy_given_eve, stats_of_state

from quditkd.channels import BellSpectrum, q_from_lambda
from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import WeylIndex, bell_matrix

CASES = [(Family.TWO_BASIS, d) for d in (2, 3, 4, 5)] + [(Family.DPLUS1, d) for d in (2, 3, 5)]
STATES_PER_RANK = 4
MIXTURES = 100
BELL_DIAGONAL = 30


def _seed(family: Family, d: int) -> int:
    return 20261018 + 100 * (family is Family.DPLUS1) + d


def _slack(spec: ProtocolSpec, rho: np.ndarray) -> np.ndarray:
    """H(Z_A|E) - (log2 d - I_E(q(rho))) for each state of the stack rho."""
    info, saturated = adversary_information_rows(spec, stats_of_state(spec, rho))
    assert not saturated.any()  # q(rho) is the statistics of a Bell-diagonal state
    return key_entropy_given_eve(protocol_bases(spec)[0], rho) - (math.log2(spec.dim.d) - info)


def _density(vectors: np.ndarray) -> np.ndarray:
    """G G^dagger / Tr for each (n, r) matrix G of a stack: a state of rank r."""
    rho = vectors @ vectors.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _bell_diagonal(spec: ProtocolSpec, sigma: np.ndarray) -> np.ndarray:
    """The states sum_jk sigma[j, k] |Phi_{-j mod d, k}><...| of a stack of
    spectra (K, d, d), paired with the Bell states as in `channels`."""
    d = spec.dim.d
    j, k = np.divmod(np.arange(d * d), d)
    vecs = bell_matrix(spec.dim, WeylIndex(-j % d, k)).reshape(d * d, d * d)
    return np.einsum("ki,ia,ib->kab", sigma.reshape(-1, d * d), vecs, vecs.conj())


def _random_states(rng: np.random.Generator, d: int) -> np.ndarray:
    n = d * d
    return np.concatenate([_density(_gaussian(rng, (STATES_PER_RANK, n, r))) for r in range(1, n + 1)])


def _mixtures(rng: np.random.Generator, spec: ProtocolSpec) -> np.ndarray:
    n = spec.dim.d ** 2
    weight = rng.uniform(0.05, 0.5, size=(MIXTURES, 1))
    sigma = weight * rng.dirichlet(np.ones(n), size=MIXTURES)
    sigma[:, 0] += 1.0 - weight[:, 0]
    delta = 10.0 ** rng.uniform(-4.0, -1.0, size=(MIXTURES, 1, 1))
    tau = _density(_gaussian(rng, (MIXTURES, n, 2)))
    return (1.0 - delta) * _bell_diagonal(spec, sigma) + delta * tau


@pytest.mark.parametrize("family, d", CASES)
def test_bell_diagonal_bound_holds_on_general_states(family, d):
    spec = ProtocolSpec(family, d)
    rng = np.random.default_rng(_seed(family, d))
    for rho in (_random_states(rng, d), _mixtures(rng, spec)):
        slack = _slack(spec, rho)
        assert slack.min() >= -1e-9, (family, d, slack.min())


@pytest.mark.parametrize("family, d", CASES)
def test_bell_diagonal_bound_is_tight_where_the_reduction_says(family, d):
    spec = ProtocolSpec(family, d)
    rng = np.random.default_rng(_seed(family, d) + 1)
    if family is Family.DPLUS1:  # every spectrum
        sigma = rng.dirichlet(np.ones(d * d), size=BELL_DIAGONAL).reshape(-1, d, d)
    else:  # product spectra a (x) b
        a, b = rng.dirichlet(np.ones(d), size=(2, BELL_DIAGONAL))
        sigma = a[:, :, None] * b[:, None, :]
    rho = _bell_diagonal(spec, sigma)
    assert np.abs(_slack(spec, rho)).max() <= 1e-12
    # the Born-rule statistics of these states are the package's map of their spectra
    mapped = np.stack([q_from_lambda(spec, BellSpectrum(lam)) for lam in sigma])
    assert np.abs(stats_of_state(spec, rho) - mapped).max() <= 1e-12
