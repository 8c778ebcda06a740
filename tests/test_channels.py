import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import q_from_lambda_per_basis

from quditkd.channels import (
    BellSpectrum,
    depolarizing_spectrum,
    lambda_from_q,
    q_from_lambda,
)
from quditkd.errors import (
    IncompleteStatistics,
    InvalidDistribution,
    NegativeSpectrum,
    NonPrimeDimension,
    OutOfRange,
)
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim


def _unit_spectrum(d: int) -> BellSpectrum:
    lam = np.zeros((d, d))
    lam[0, 0] = 1.0
    return BellSpectrum(lam)


def test_error_vector_validates():
    stats = q_from_lambda(ProtocolSpec(Family.TWO_BASIS, 2), _unit_spectrum(2))
    assert stats.shape == (2, 2)
    with pytest.raises(InvalidDistribution):
        lambda_from_q(Dim(2), [[0.9, 0.1], [0.9, 0.2], [0.9, 0.1]])


def test_bell_spectrum_clamps_and_validates():
    lam = BellSpectrum(np.array([[1.0 + 5e-13, -5e-13], [0.0, 0.0]]))
    assert lam.lam.min() == 0.0
    with pytest.raises(NegativeSpectrum):
        BellSpectrum(np.array([[1.1, -0.1], [0.0, 0.0]]))
    with pytest.raises(InvalidDistribution):
        BellSpectrum(np.full((2, 3), 1.0 / 6.0))


def test_bell_spectrum_rejects_nan():
    with pytest.raises(InvalidDistribution):
        BellSpectrum(np.array([[np.nan, 0.5], [0.25, 0.25]]))


def test_q_from_lambda_hand_example_d2():
    spec = ProtocolSpec(Family.DPLUS1, 2)
    lam = BellSpectrum(np.array([[0.85, 0.05], [0.05, 0.05]]))
    q01, q10, _ = q_from_lambda(spec, lam)
    assert np.allclose(q01, [0.90, 0.10])
    assert np.allclose(q10, [0.90, 0.10])


def test_q_from_lambda_pure_and_uniform():
    spec3 = ProtocolSpec(Family.DPLUS1, 3)
    for q in q_from_lambda(spec3, _unit_spectrum(3)):
        assert np.allclose(q, [1.0, 0.0, 0.0])
    uniform = BellSpectrum(np.full((3, 3), 1.0 / 9.0))
    for q in q_from_lambda(spec3, uniform):
        assert np.allclose(q, [1 / 3, 1 / 3, 1 / 3])


def test_lambda_from_q_noiseless_and_depolarizing():
    spec = ProtocolSpec(Family.DPLUS1, 2)
    perfect = np.tile([1.0, 0.0], (spec.n_bases, 1))
    assert np.allclose(lambda_from_q(Dim(2), perfect).lam, [[1.0, 0.0], [0.0, 0.0]])

    noisy = np.tile([0.9, 0.1], (spec.n_bases, 1))
    assert np.allclose(lambda_from_q(Dim(2), noisy).lam, [[0.85, 0.05], [0.05, 0.05]])


def test_lambda_from_q_requires_all_bases():
    spec = ProtocolSpec(Family.DPLUS1, 3)
    qs = np.tile([0.9, 0.05, 0.05], (spec.n_bases, 1))
    with pytest.raises(IncompleteStatistics):
        lambda_from_q(Dim(3), qs[:-1])


def test_lambda_from_q_prime_only():
    spec = ProtocolSpec(Family.TWO_BASIS, 4)
    qs = np.tile([0.97, 0.01, 0.01, 0.01], (spec.n_bases, 1))
    with pytest.raises(NonPrimeDimension):
        lambda_from_q(Dim(4), qs)


def test_lambda_from_q_flags_inconsistent_statistics():
    # no Bell-diagonal state is error-free in two bases yet unbiased in the third
    # rows follow basis_indices: U_01, U_10, U_11
    qs = [[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
    with pytest.raises(NegativeSpectrum):
        lambda_from_q(Dim(2), qs)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_roundtrip_identity_random_spectra(d):
    spec = ProtocolSpec(Family.DPLUS1, d)
    rng = np.random.default_rng(100 + d)
    worst = 0.0
    for _ in range(100):
        lam = BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))
        back = lambda_from_q(Dim(d), q_from_lambda(spec, lam))
        worst = max(worst, float(np.abs(back.lam - lam.lam).max()))
    assert worst <= 1e-12


def test_depolarizing_spectrum_values():
    assert np.allclose(depolarizing_spectrum(Dim(2), 0.0).lam, [[1, 0], [0, 0]])
    assert np.allclose(depolarizing_spectrum(Dim(2), 0.1).lam, [[0.85, 0.05], [0.05, 0.05]])
    lam3 = depolarizing_spectrum(Dim(3), 0.19).lam
    assert lam3[0, 0] == pytest.approx(1 - 4 * 0.19 / 3, abs=1e-12)
    off = np.delete(lam3.reshape(-1), 0)
    assert np.allclose(off, 0.19 / 6)


def test_depolarizing_spectrum_domain():
    d = 3
    limit = d / (d + 1)
    assert depolarizing_spectrum(Dim(d), limit).lam[0, 0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        depolarizing_spectrum(Dim(d), limit + 1e-6)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("family", [Family.TWO_BASIS, Family.DPLUS1])
def test_depolarizing_spectrum_gives_depolarizing_vector_everywhere(d, family):
    spec = ProtocolSpec(family, d)
    for q in (0.0, 0.03, 0.1, (d - 1) / d * 0.9):
        lam = depolarizing_spectrum(spec.dim, q)
        expect = depolarizing_vector(spec.dim, q)
        for row in q_from_lambda(spec, lam):
            assert np.abs(row - expect).max() <= 1e-12


@pytest.mark.parametrize("family, dims", [(Family.TWO_BASIS, range(2, 24)),
                                           (Family.DPLUS1, (2, 3, 5, 7, 11, 13, 17, 19, 23))])
def test_q_from_lambda_equals_per_basis_reference(family, dims):
    # the one gather must reproduce the per-basis sums bit for bit
    rng = np.random.default_rng(31)
    for d in dims:
        spec = ProtocolSpec(family, d)
        for _ in range(10):
            lam = BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))
            got = q_from_lambda(spec, lam)
            assert got.shape == (spec.n_bases, d)
            assert np.array_equal(got, q_from_lambda_per_basis(spec, lam.lam))


@st.composite
def _prime_spectra(draw):
    d = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d * d, max_size=d * d)))
    assume(weights.sum() > 0.0)
    return BellSpectrum((weights / weights.sum()).reshape(d, d))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lam=_prime_spectra())
def test_roundtrip_property(lam):
    spec = ProtocolSpec(Family.DPLUS1, lam.d)
    back = lambda_from_q(spec.dim, q_from_lambda(spec, lam))
    assert np.abs(back.lam - lam.lam).max() <= 1e-12
