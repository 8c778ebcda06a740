import tracemalloc

import numpy as np
import pytest

from oracles import joint_table_per_state, simulation_counts_reference

from quditkd.channels import BellSpectrum, depolarizing_spectrum, q_from_lambda
from quditkd.cli import MAX_DIM
from quditkd.errors import DimensionTooLarge, InvalidDistribution
from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import Dim, basis_for
from quditkd.simulator import (
    _CHUNK,
    CHI2_CONFIDENCE,
    CHI2_THRESHOLDS,
    SimConfig,
    _chi_square_check,
    _label_chunks,
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


@pytest.mark.parametrize("d", [2, 3, 5, 11])
def test_joint_tables_equal_the_per_state_sum(d):
    # the stacked table keeps the per-state loop's summation order exactly
    rng = np.random.default_rng(d)
    spec = ProtocolSpec(Family.DPLUS1, d)
    spectra = (_random_spectrum(d, rng), depolarizing_spectrum(spec.dim, 0.05), _pure(d, 1, d - 1))
    for spectrum in spectra:
        for basis in protocol_bases(spec):
            table = joint_outcome_distribution(spec.dim, spectrum, basis)
            assert np.array_equal(table, joint_table_per_state(spec.dim, spectrum, basis))


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


def test_config_refuses_dimensions_beyond_the_threshold_table():
    # a basis has up to d - 1 degrees of freedom; the table ends at the CLI's cap
    assert len(CHI2_THRESHOLDS) + 1 == MAX_DIM
    spec = ProtocolSpec(Family.DPLUS1, 37)
    with pytest.raises(DimensionTooLarge):
        SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=10, seed=1)
    spec = ProtocolSpec(Family.TWO_BASIS, MAX_DIM)
    SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=10, seed=1)


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize(
    "probs",
    [(0.0, 0.5, 0.25, 0.25), (0.3, 0.0, 0.7), (0.25, 0.25, 0.5, 0.0), (0.8, 0.2), tuple([1 / 12] * 12),
     tuple([1 / 256] * 256)],
)
def test_label_chunks_equal_one_generator_choice(n, probs):
    # the streamed labels are the draws of one rng.choice call, and the
    # generator is left where that call leaves it
    p = np.asarray(probs)
    streamed = np.random.Generator(np.random.Philox(key=2024))
    reference = np.random.Generator(np.random.Philox(key=2024))
    chunks = list(_label_chunks(streamed, p, n))
    assert [start for start, _ in chunks] == list(range(0, n, _CHUNK))
    labels = np.concatenate([lab for _, lab in chunks])
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, reference.choice(p.size, size=n, p=p))
    assert streamed.random() == reference.random()


def test_run_memory_is_one_byte_per_round():
    # 1e7 rounds keep one uint8 sender label each plus fixed-size chunks
    spec = ProtocolSpec(Family.DPLUS1, 11)
    cfg = SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=10**7, seed=7)
    tracemalloc.start()
    try:
        run_simulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("probs", [(0.5, -0.1, 0.6), (0.5, 0.5 + 2e-8), (0.5, np.nan), tuple([1 / 257] * 257)])
def test_label_chunks_refuse_what_choice_refuses(probs):
    # a negative entry or a sum off by more than sqrt(eps) is refused as
    # Generator.choice refuses it; more than 256 labels do not fit a uint8
    rng = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(InvalidDistribution):
        next(_label_chunks(rng, np.asarray(probs), 10))
    assert rng.random() == np.random.Generator(np.random.Philox(key=1)).random()


def _config(family, d, rounds, seed, q=0.05, **kw):
    spec = ProtocolSpec(family, d)
    return SimConfig(spec, depolarizing_spectrum(spec.dim, q), rounds=rounds, seed=seed, **kw)


@pytest.mark.parametrize(
    "cfg",
    [
        # Born tables with zero cells: a noiseless source and a pure off-diagonal state
        _config(Family.DPLUS1, 3, 70001, 3, q=0.0),
        SimConfig(ProtocolSpec(Family.DPLUS1, 5), _pure(5, 2, 3), rounds=50000, seed=4),
        # basis weights with zeros leave bases with m = 0, on both paths
        _config(Family.DPLUS1, 5, 300001, 6, basis_probs=(0.5, 0.0, 0.2, 0.0, 0.3, 0.0)),
        _config(Family.DPLUS1, 5, 300001, 6, basis_probs=(0.5, 0.0, 0.2, 0.0, 0.3, 0.0), fast=True),
        _config(Family.TWO_BASIS, 2, 7, 8, basis_probs=(1.0, 0.0)),
        _config(Family.DPLUS1, 7, 3, 9),
        # the fast path over several chunks that are not multiples of _CHUNK
        _config(Family.TWO_BASIS, 13, 3 * _CHUNK + 12345, 10),
        _config(Family.DPLUS1, 3, 5 * _CHUNK + 1, 11, q=0.0, fast=True),
        _config(Family.TWO_BASIS, 32, 4 * _CHUNK + 7, 12),
        _config(Family.DPLUS1, 11, 3 * _CHUNK + 5, 13),
    ],
    ids=lambda cfg: f"{cfg.spec.family.value}-d{cfg.spec.dim.d}-{cfg.rounds}-fast{cfg.fast}",
)
def test_run_counts_equal_the_per_round_sampler(cfg):
    # the chunked outcome draws count the cells of the per-round
    # Generator.choice draws, and leave the stream where they leave it
    res = run_simulation(cfg)
    reference = simulation_counts_reference(cfg)
    assert [s.matched for s in res.per_basis] == [m for m, _ in reference]
    for s, (_, counts) in zip(res.per_basis, reference):
        assert s.counts.dtype == counts.dtype
        assert np.array_equal(s.counts, counts)


@pytest.mark.parametrize(
    "cfg",
    [
        _config(Family.TWO_BASIS, 2, 10**7, 7, q=0.04, basis_probs=(0.8, 0.2)),
        _config(Family.TWO_BASIS, 13, 10**7, 7),
    ],
    ids=["two-basis-d2-exact", "two-basis-d13-fast"],
)
def test_sifted_outcomes_add_no_memory_per_round(cfg):
    # two-basis runs sift about half the rounds; their outcomes are counted
    # chunk by chunk, so the peak stays the sender's byte per round
    tracemalloc.start()
    try:
        run_simulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


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


@pytest.mark.parametrize("dof", range(1, 32))
def test_chi_square_threshold_matches_scipy_stats(dof):
    from scipy.stats import chi2

    q = np.full(dof + 1, 1.0 / (dof + 1))
    _, got_dof, threshold, _ = _chi_square_check(np.full(dof + 1, 10), 10 * (dof + 1), q)
    assert got_dof == dof
    assert threshold == float(chi2.ppf(CHI2_CONFIDENCE, dof))
