import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import joint_table_per_state, simulation_counts_reference

from quditkd.channels import BellSpectrum, depolarizing_spectrum, q_from_lambda
from quditkd.cli import MAX_DIM
from quditkd.errors import DimensionTooLarge, InvalidDistribution, OutOfRange, QkdError
from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import Dim, basis_for
from quditkd.simulator import (
    _CHUNK,
    _COMPARE_MAX_K,
    CHI2_CONFIDENCE,
    CHI2_THRESHOLDS,
    EXACT_DIM_CAP,
    SimConfig,
    _chi_square_check,
    _label_chunks,
    _matched_counts,
    _skipped,
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


def test_joint_table_refuses_a_basis_of_another_dimension():
    with pytest.raises(InvalidDistribution, match="dimension mismatch"):
        joint_outcome_distribution(Dim(2), depolarizing_spectrum(Dim(2), 0.1), basis_for(Dim(3), (0, 1)))


def test_config_validation():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    # rounds is an integer of at least 1; a float would reach the Philox advance
    for rounds in (0, 1000.5, 1e3, "100"):
        with pytest.raises(InvalidDistribution, match="rounds must be"):
            SimConfig(spec, _pure(2), rounds=rounds, seed=1)
    with pytest.raises(InvalidDistribution):
        SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(0.2, 0.3, 0.5))
    with pytest.raises(InvalidDistribution):
        SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(3.0, 1.0))
    cfg = SimConfig(spec, _pure(2), rounds=10, seed=1, basis_probs=(0.75, 0.25))
    assert cfg.basis_probs == (0.75, 0.25)
    # the seed keys a Philox stream: an integer in [0, 2**128)
    for seed in (-1, 2**128, 1.5, "1"):
        with pytest.raises(OutOfRange, match=r"need seed in \[0, 2\*\*128\)"):
            SimConfig(spec, _pure(2), rounds=10, seed=seed)
    assert run_simulation(SimConfig(spec, _pure(2), rounds=10, seed=2**128 - 1)).all_passed


def test_config_refuses_a_spectrum_of_another_dimension():
    # refused when built, before a run draws any basis label, with q_from_lambda's message
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    spectrum = depolarizing_spectrum(Dim(2), 0.1)
    with pytest.raises(InvalidDistribution) as from_map:
        q_from_lambda(spec, spectrum)
    with pytest.raises(InvalidDistribution) as from_config:
        SimConfig(spec, spectrum, rounds=10**6, seed=1)
    assert str(from_config.value) == str(from_map.value) == "spectrum is 2-dimensional, protocol wants 3"


def test_config_refuses_dimensions_beyond_the_threshold_table():
    # a basis has up to d - 1 degrees of freedom; the table ends at the CLI's cap
    assert len(CHI2_THRESHOLDS) + 1 == MAX_DIM
    spec = ProtocolSpec(Family.DPLUS1, 37)
    with pytest.raises(DimensionTooLarge):
        SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=10, seed=1)
    spec = ProtocolSpec(Family.TWO_BASIS, MAX_DIM)
    SimConfig(spec, depolarizing_spectrum(spec.dim, 0.05), rounds=10, seed=1)


# n at and beside chunk boundaries a few chunks in
@pytest.mark.parametrize("n", [1, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1, 12 * _CHUNK + 7])
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
    chunks = list(_label_chunks(streamed, p, n, np.empty(_CHUNK, dtype=np.uint64)))
    assert [lab.size for lab in chunks] == [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
    labels = np.concatenate(chunks)
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, reference.choice(p.size, size=n, p=p))
    assert streamed.random() == reference.random()


def test_philox_uniforms_are_the_top_53_bits_of_the_raw_words():
    # _label_chunks labels raw words through the conversion random() applies;
    # a numpy release that changed it would fail here, not only in the goldens
    for key, n in ((0, 1), (2024, 1000), (2**100 + 3, 3 * _CHUNK + 5)):
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(n)
        words = np.random.Philox(key=key).random_raw(n)
        assert np.array_equal(uniforms, (words >> 11) * 2.0**-53)


def _with_words(words: np.ndarray) -> np.random.Generator:
    """A Philox generator whose next draws (at most 4) are `words`: they are
    put at the end of its 4-word output buffer."""
    bit_generator = np.random.Philox(key=99)
    state = bit_generator.state
    state["buffer"][4 - words.size :] = words
    state["buffer_pos"] = 4 - words.size
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _words_at(uniforms) -> np.ndarray:
    """Raw words whose uniform (w >> 11) * 2**-53 is each of `uniforms`,
    with their 11 discarded low bits alternately all ones and zeros."""
    top = (np.asarray(uniforms, dtype=np.float64) * 2.0**53).astype(np.uint64) << np.uint64(11)
    return top | (np.arange(top.size, dtype=np.uint64) % 2 * np.uint64(0x7FF))


_ULP = 2.0**-53  # spacing of the uniforms


def _below(probs: np.ndarray) -> np.ndarray:
    """The largest uniform below each cut of `probs`, as choice computes the cuts."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return np.ceil(cdf[:-1] / _ULP) * _ULP - _ULP


_EDGE = 3000 * 2.0**-12  # a bucket edge of the guide table, in [0.5, 1) so 1 - cut is exact
_P256 = np.random.default_rng(256).dirichlet(np.ones(256))
_CROWDED = np.r_[np.full(199, 1e-5), 1.0 - 199e-5]  # 199 cuts inside the first 9 buckets
_EDGE_CASES = {
    # (probabilities, uniforms of hand-placed words)
    "cut-on-a-bucket-edge": ([_EDGE, 1.0 - _EDGE], [_EDGE - _ULP, _EDGE, _EDGE + _ULP, _EDGE - 2.0**-12]),
    "cut-one-ulp-below-an-edge": ([_EDGE - _ULP, 1.0 - _EDGE + _ULP], [_EDGE - 2 * _ULP, _EDGE - _ULP, _EDGE]),
    "cut-one-ulp-above-an-edge": ([_EDGE + _ULP, 1.0 - _EDGE - _ULP], [_EDGE, _EDGE + _ULP, _EDGE + 2 * _ULP]),
    "cut-at-the-last-uniform": ([1.0 - _ULP, _ULP], [0.0, 1.0 - 2.0**-12, 1.0 - 2 * _ULP, 1.0 - _ULP]),
    "subnormal-first": ([1e-320, 1.0], [0.0, _ULP, 2.0**-12]),
    "subnormal-in-the-middle": ([0.5, 1e-320, 0.5], [0.5 - _ULP, 0.5, 0.5 + _ULP]),
    "zero-first": ([0.0, 0.5, 0.5], [0.0, 0.5 - _ULP, 0.5, 1.0 - _ULP]),
    "zero-in-the-middle": ([0.5, 0.0, 0.5], [0.0, 0.5 - _ULP, 0.5, 1.0 - _ULP]),
    "zero-last": ([0.5, 0.5, 0.0], [0.0, 0.5 - _ULP, 0.5, 1.0 - _ULP]),
    # the uniforms just below and at or above every cut, and the largest
    # uniform, which is labelled 255
    "256-categories": (_P256, np.r_[np.clip(_below(_P256)[:, None] + [0.0, _ULP], 0.0, None).ravel(), 1.0 - _ULP]),
    # words spread over the crowded buckets: nearly all are labelled exactly
    "crowded-cuts": (_CROWDED, np.random.default_rng(9).integers(0, 0.0021 * 2**53, 400) * _ULP),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_label_chunks_equal_choice_at_the_guide_table_edges(case):
    # hand-placed words at and beside the cuts and the guide table's bucket
    # edges, four at a time, then a long stream, each against rng.choice and
    # the generator state it leaves
    probs, uniforms = _EDGE_CASES[case]
    p = np.asarray(probs, dtype=np.float64)
    words = _words_at(np.ravel(uniforms))
    assert np.array_equal((words >> 11) * _ULP, np.ravel(uniforms))
    for start in range(0, words.size, 4):
        group = words[start : start + 4]
        streamed, reference = _with_words(group), _with_words(group)
        labels, = _label_chunks(streamed, p, group.size, np.empty(group.size, dtype=np.uint64))
        assert np.array_equal(labels, reference.choice(p.size, size=group.size, p=p))
        assert streamed.bit_generator.random_raw(5).tolist() == reference.bit_generator.random_raw(5).tolist()
    streamed = np.random.Generator(np.random.Philox(key=2025))
    reference = np.random.Generator(np.random.Philox(key=2025))
    n = 2 * _CHUNK + 3
    labels = np.concatenate(list(_label_chunks(streamed, p, n, np.empty(_CHUNK, dtype=np.uint64))))
    assert np.array_equal(labels, reference.choice(p.size, size=n, p=p))
    assert streamed.random() == reference.random()


def _full_buffer(half: int) -> np.random.Generator:
    """A Philox generator holding four unread words (buffer_pos 0), which no
    sequence of draws reaches (a fresh block is read as soon as it is made),
    with a buffered half-word if `half` is 1."""
    rng = _with_words(np.random.Philox(key=5).random_raw(4))
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = half, 0x9E3779B9
    rng.bit_generator.state = state
    return rng


def _start_states() -> list[np.random.Generator]:
    """Generators at every buffer_pos 0..4, with and without a buffered
    half-word: `integers(0, 13)` reads 32 bits of a word, `random_raw` 64."""
    starts = [_full_buffer(0), _full_buffer(1)]
    for ints in (0, 1, 2):
        for raw in range(5):
            rng = np.random.Generator(np.random.Philox(key=2**70 + 5 * ints + raw))
            rng.integers(0, 13, size=ints)
            rng.bit_generator.random_raw(raw)
            starts.append(rng)
    return starts


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 4097, 65539])
def test_skipped_equals_reading_the_words(n):
    # from every start state, the copy draws what the original draws after
    # reading n raw words, both raw words and the integers that read the
    # buffered half-word first; the original is left as it was
    starts = _start_states()
    reached = {(r.bit_generator.state["buffer_pos"], r.bit_generator.state["has_uint32"]) for r in starts}
    assert reached == {(pos, half) for pos in range(5) for half in (0, 1)}
    for rng in starts:
        before = repr(rng.bit_generator.state)
        ahead = _skipped(rng, n)
        assert repr(rng.bit_generator.state) == before
        rng.bit_generator.random_raw(n)
        for draw in (
            lambda g: g.integers(0, 13, size=3),
            lambda g: g.bit_generator.random_raw(6),
            lambda g: g.integers(0, 31, size=5),
            lambda g: g.integers(0, 13, size=1),
            lambda g: g.bit_generator.random_raw(1),
        ):
            assert draw(ahead).tolist() == draw(rng).tolist()


def _traced_peak(cfg: SimConfig) -> int:
    tracemalloc.start()
    try:
        run_simulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_memory_is_one_byte_per_round():
    # the exact path keeps no per-round array: the sender's and the
    # receiver's label chunks are drawn side by side, so 1e7 rounds hold
    # only fixed-size chunks (a uint8 sender array would be 9.5 MiB), with
    # equal basis weights and with unequal ones, where most rounds sift
    for cfg in (
        _config(Family.DPLUS1, 11, 10**7, 7),
        _config(Family.TWO_BASIS, 2, 10**7, 7, q=0.04, basis_probs=(0.8, 0.2)),
    ):
        assert _traced_peak(cfg) < 4 * 2**20


@st.composite
def _near_simplex(draw, n):
    """n probabilities as the boundary checks let them through: a drawn
    share of the entries set to one value down to -1e-12, the rest a random
    split of the remainder, and the sum off by up to 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.full(n, draw(st.sampled_from((0.05, 1.0)))))
    nudged = rng.random(n) < draw(st.floats(0.0, 1.0))
    nudged[rng.integers(n)] = False
    low = draw(st.floats(-1e-12, 0.0))
    off = draw(st.floats(-1e-9, 1e-9))
    p[~nudged] *= (1.0 + off - low * nudged.sum()) / p[~nudged].sum()
    p[nudged] = low
    return p


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_every_vector_the_sampler_gets_is_one_choice_accepts(data):
    # _label_chunks checks nothing: the basis weights (SimConfig), the
    # analytic rows (a BellSpectrum) and the normalised Born tables must be
    # vectors Generator.choice takes, with at most 256 labels for a uint8
    family = data.draw(st.sampled_from(Family))
    d = data.draw(st.sampled_from(_PRIMES if family is Family.DPLUS1 else range(2, 33)))
    spec = ProtocolSpec(family, d)
    weights = data.draw(_near_simplex(spec.n_bases))
    lam = data.draw(_near_simplex(d * d)).reshape(d, d)
    try:
        cfg = SimConfig(spec, BellSpectrum(lam), rounds=1, seed=0, basis_probs=tuple(weights))
    except QkdError:  # rounding put an entry or the sum just past its slack
        reject()
    vectors = [np.asarray(cfg.basis_probs), *q_from_lambda(spec, cfg.spectrum)]
    if d <= EXACT_DIM_CAP:
        for basis in protocol_bases(spec):
            flat = joint_outcome_distribution(spec.dim, cfg.spectrum, basis).reshape(-1)
            vectors.append(flat / flat.sum())
    rng = np.random.default_rng(0)
    for p in vectors:
        assert p.size <= 256
        rng.choice(p.size, p=p)  # ValueError on a vector choice refuses


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
        _config(Family.DPLUS1, 13, 300001, 6, basis_probs=(0.5, 0.0, 0.2, 0.0, 0.3) + (0.0,) * 9),
        _config(Family.TWO_BASIS, 2, 7, 8, basis_probs=(1.0, 0.0)),
        _config(Family.DPLUS1, 7, 3, 9),
        # the fast path over several chunks that are not multiples of _CHUNK
        _config(Family.TWO_BASIS, 13, 12 * _CHUNK + 12345, 10),
        _config(Family.DPLUS1, 13, 20 * _CHUNK + 1, 11, q=0.0),
        _config(Family.TWO_BASIS, 32, 16 * _CHUNK + 7, 12),
        _config(Family.DPLUS1, 11, 12 * _CHUNK + 5, 13),
        # every rounds % 4: the receiver's labels start that many words
        # into a Philox counter block
        *(_config(Family.DPLUS1, 3, rounds, 20 + rounds) for rounds in (1, 2, 3, 4, 5)),
        _config(Family.TWO_BASIS, 2, 16 * _CHUNK + 3, 14, basis_probs=(0.8, 0.2)),
        # K = d + 1 = _COMPARE_MAX_K bases, the most counted by compares, and
        # the fewest above it that a protocol has
        _config(Family.DPLUS1, 5, 12 * _CHUNK + 7, 17),
        _config(Family.DPLUS1, 7, 12 * _CHUNK + 7, 18),
        # more than _COMPARE_MAX_K bases: matched labels picked out and counted
        _config(Family.DPLUS1, 17, 12 * _CHUNK + 9, 15),
        _config(Family.DPLUS1, 31, 8 * _CHUNK + 3, 16),
    ],
    # the "-fastNone" suffix keeps each case's id as the suite has long reported it
    ids=lambda cfg: f"{cfg.spec.family.value}-d{cfg.spec.dim.d}-{cfg.rounds}-fastNone",
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


@pytest.mark.parametrize("k", [_COMPARE_MAX_K, _COMPARE_MAX_K + 1])
def test_matched_counts_on_both_sides_of_the_compare_limit(k):
    # no protocol has K = _COMPARE_MAX_K + 1 bases, so the counting is
    # checked on its own: two Generator.choice calls on one stream, and the
    # receiver's generator continues after both
    probs = np.arange(1.0, k + 1.0) / (k * (k + 1) / 2)
    rounds = 3 * _CHUNK + 5
    scratch = np.empty(_CHUNK, dtype=np.uint64)
    matched, receiver = _matched_counts(np.random.Generator(np.random.Philox(key=k)), probs, rounds, scratch)
    reference = np.random.Generator(np.random.Philox(key=k))
    sender = reference.choice(k, size=rounds, p=probs)
    received = reference.choice(k, size=rounds, p=probs)
    assert matched.tolist() == np.bincount(sender[sender == received], minlength=k).tolist()
    assert receiver.random(3).tolist() == reference.random(3).tolist()


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
    # chunk by chunk on both paths
    assert _traced_peak(cfg) <= 16 * 2**20


def test_fast_path_memory_does_not_grow_with_rounds():
    # a skewed two-basis run sifts nearly every round into one basis; its
    # differences and sender outcomes are drawn a chunk at a time, side by
    # side, so 2e6 rounds hold what 1e6 rounds hold (a uint8 array of the
    # differences would add 0.95 MiB per 1e6 rounds)
    def peak(rounds):
        return _traced_peak(_config(Family.TWO_BASIS, 13, rounds, 7, basis_probs=(0.999, 0.001)))

    peak(5)  # one-time allocations of a first run are not working memory
    one = peak(10**6)
    assert one <= 2**20
    assert peak(2 * 10**6) <= 1.05 * one


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


@pytest.mark.parametrize("dof", range(1, 32))
def test_chi_square_threshold_matches_scipy_stats(dof):
    from scipy.stats import chi2

    q = np.full(dof + 1, 1.0 / (dof + 1))
    _, got_dof, threshold, _ = _chi_square_check(np.full(dof + 1, 10), 10 * (dof + 1), q)
    assert got_dof == dof
    assert threshold == float(chi2.ppf(CHI2_CONFIDENCE, dof))


def test_chi_square_pools_classes_with_few_expected_counts():
    # dplus1 d = 31 at q = 5% expects 977 * 0.05 / 30 = 1.6 counts in each
    # error class. A basis with no error outcome scores 51.4, which passes
    # against 30 dof (59.7); the error classes pooled into one leave 1 dof
    # (10.8), and it fails
    spec = ProtocolSpec(Family.DPLUS1, 31)
    q = q_from_lambda(spec, depolarizing_spectrum(spec.dim, 0.05))[0]
    counts_t = np.zeros(31, dtype=np.int64)
    counts_t[0] = 977
    stat, dof, threshold, passed = _chi_square_check(counts_t, 977, q)
    assert stat == pytest.approx(51.4, abs=0.05)
    assert (dof, threshold, passed) == (1, CHI2_THRESHOLDS[0], False)


def test_chi_square_fails_a_count_in_an_impossible_class():
    # a noiseless source never errs: one error count is an infinite misfit
    q = np.array([1.0, 0.0, 0.0])
    assert _chi_square_check(np.array([9, 1, 0]), 10, q) == (float("inf"), 0, 0.0, False)
