import numpy as np
import pytest

from quditkd.channels import BellSpectrum, depolarizing_spectrum, q_from_lambda
from quditkd.errors import DimensionTooLarge, InvalidDistribution
from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import Dim, basis_for
from quditkd.simulator import (
    SimConfig,
    difference_marginal,
    joint_outcome_distribution,
    run_simulation,
    sifting_fraction,
)


def _pure(d: int, j: int = 0, k: int = 0) -> BellSpectrum:
    lam = np.zeros((d, d))
    lam[j, k] = 1.0
    return BellSpectrum(lam)


def _random_spectrum(d: int, rng: np.random.Generator) -> BellSpectrum:
    return BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_noiseless_source_correlates_every_basis(d):
    spec = ProtocolSpec(Family.DPLUS1, d)
    for basis in protocol_bases(spec):
        table = joint_outcome_distribution(spec.dim, _pure(d), basis)
        assert np.allclose(table, np.eye(d) / d, atol=1e-12)


def test_qubit_depolarizing_joint_table():
    dim = Dim(2)
    table = joint_outcome_distribution(
        dim, depolarizing_spectrum(dim, 0.1), basis_for(dim, (0, 1))
    )
    assert np.allclose(table, [[0.45, 0.05], [0.05, 0.45]], atol=1e-12)


def test_maximally_mixed_source_is_flat():
    d = 3
    lam = BellSpectrum(np.full((d, d), 1.0 / d**2))
    spec = ProtocolSpec(Family.DPLUS1, d)
    for basis in protocol_bases(spec):
        table = joint_outcome_distribution(spec.dim, lam, basis)
        assert np.allclose(table, np.full((d, d), 1.0 / d**2), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_joint_tables_reproduce_analytic_error_vectors(d):
    # Born-rule projection and the closed-form difference statistics must
    # agree for arbitrary Bell-diagonal sources, not just depolarizing ones
    rng = np.random.default_rng(415 + d)
    spec = ProtocolSpec(Family.DPLUS1, d)
    bases = protocol_bases(spec)
    for _ in range(10):
        spectrum = _random_spectrum(d, rng)
        analytic = q_from_lambda(spec, spectrum)
        for i, basis in enumerate(bases):
            table = joint_outcome_distribution(spec.dim, spectrum, basis)
            assert abs(table.sum() - 1.0) < 1e-10
            assert np.allclose(difference_marginal(table), analytic[i], atol=1e-10)


def test_exact_path_dimension_cap():
    d = 12
    dim = Dim(d)
    lam = BellSpectrum(np.full((d, d), 1.0 / d**2))
    with pytest.raises(DimensionTooLarge):
        joint_outcome_distribution(dim, lam, basis_for(dim, (0, 1)))


def test_config_validation():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    with pytest.raises(InvalidDistribution):
        SimConfig(spec, _pure(2), rounds=0, seed=1)
    with pytest.raises(InvalidDistribution):
        SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(0.2, 0.3, 0.5))
    with pytest.raises(InvalidDistribution):
        SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(3.0, 1.0))
    cfg = SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(0.75, 0.25))
    assert cfg.basis_probs == (0.75, 0.25)


def test_run_determinism():
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    cfg = SimConfig(spec, depolarizing_spectrum(spec.dim, 0.08), rounds=20000, seed=99)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.sifted_count == b.sifted_count
    for sa, sb in zip(a.per_basis, b.per_basis):
        assert np.array_equal(sa.counts, sb.counts)
    c = run_simulation(
        SimConfig(spec, depolarizing_spectrum(spec.dim, 0.08), rounds=20000, seed=100)
    )
    assert any(
        not np.array_equal(sa.counts, sc.counts) for sa, sc in zip(a.per_basis, c.per_basis)
    )


def test_noiseless_run_never_errs():
    spec = ProtocolSpec(Family.DPLUS1, 3)
    res = run_simulation(SimConfig(spec, _pure(3), rounds=50000, seed=7))
    assert res.all_passed and not res.fast
    for s in res.per_basis:
        assert np.allclose(s.empirical_q, [1.0, 0.0, 0.0])
        assert np.array_equal(s.counts, np.diag(np.diag(s.counts)))


def test_sifted_count_matches_expected_fraction():
    spec = ProtocolSpec(Family.DPLUS1, 5)
    cfg = SimConfig(spec, _pure(5), rounds=200000, seed=31)
    assert sifting_fraction(cfg) == pytest.approx(1.0 / 6.0)
    res = run_simulation(cfg)
    f = sifting_fraction(cfg)
    sigma = np.sqrt(cfg.rounds * f * (1 - f))
    assert abs(res.sifted_count - cfg.rounds * f) < 5 * sigma

    skewed = SimConfig(spec, _pure(5), rounds=1000, seed=31,
                       basis_probs=(0.5, 0.1, 0.1, 0.1, 0.1, 0.1))
    assert sifting_fraction(skewed) == pytest.approx(0.25 + 5 * 0.01)


def test_fast_path_beyond_exact_cap():
    spec = ProtocolSpec(Family.DPLUS1, 13)
    cfg = SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=30000, seed=11)
    res = run_simulation(cfg)
    assert res.fast and res.all_passed
    again = run_simulation(cfg)
    assert res.sifted_count == again.sifted_count
    for sa, sb in zip(res.per_basis, again.per_basis):
        assert np.array_equal(sa.counts, sb.counts)


def test_fast_and_exact_paths_agree_statistically():
    # force-sampling from the analytic vector must be indistinguishable from
    # Born-rule cells as far as the chi-square difference test is concerned
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    spectrum = depolarizing_spectrum(spec.dim, 0.1)
    for fast in (False, True):
        res = run_simulation(SimConfig(spec, spectrum, rounds=100000, seed=5, fast=fast))
        assert res.fast == fast
        assert res.all_passed
        for s in res.per_basis:
            assert np.allclose(s.empirical_q, s.analytic_q, atol=0.01)
