"""Monte Carlo measurement oracle for Bell-diagonal sources.

Both parties measure a shared Bell-diagonal state; the sender draws a
protocol basis, the receiver independently draws the conjugated partner
basis, and only matching rounds are kept (sifting). Outcome tables come
from exact Born-rule projections, so the empirical difference statistics
can be tested against the analytic error vectors of `channels`.

The dimension alone picks the path: exact up to d = 11, and beyond it a fast
path that samples the outcome difference directly from the analytic error
vector (which the exact path is there to validate in the first place).

A run reads one Philox stream keyed by the seed. Every categorical draw,
basis labels and outcomes alike, goes through one sampler that reads
`_CHUNK` raw 64-bit words at a time and gives exactly the labels one
`Generator.choice` call would give: `choice` labels a word w by its
uniform (w >> 11) * 2**-53, and a guide table indexed by w's top bits
gives that label for every word outside the few table buckets that hold a
cut, whose words are labelled from their uniform. It checks no vector:
basis weights from `SimConfig`, analytic rows of a `BellSpectrum` and
normalised Born tables are each one `choice` accepts. The sender's basis
labels are the stream's first `rounds` words and the receiver's the next
`rounds`; two generators read the two stretches side by side, the
receiver's a copy of the sender's put `rounds` words ahead (`_skipped`),
so each sender chunk meets its receiver chunk at once and no label is
kept. The outcomes continue on the receiver's generator and are counted
chunk by chunk: exact cells straight into the (d, d) table; on the fast
path a basis's m differences t come first in the stream and its sender
outcomes a after them, so a copy put m words ahead draws each a chunk
beside its t chunk, and that copy continues the stream. On both paths the
working memory is a few fixed chunks, whatever the rounds.

The chi-square verdicts pool the classes expected fewer than 5 times into
one and compare against `CHI2_THRESHOLDS`, a constant table of the 0.999
quantiles for 1 to 31 degrees of freedom copied from scipy (`2 *
gammaincinv(k / 2, 0.999)`, the expression `scipy.stats.chi2.ppf`
evaluates); a test pins every entry against scipy, and a run imports
nothing beyond numpy.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import BellSpectrum, check_spectrum_dim, q_from_lambda
from .errors import DimensionTooLarge, InvalidDistribution, OutOfRange
from .info_theory import as_prob_vector
from .protocol import Dim, ProtocolSpec, WeylIndex, plain_int, protocol_bases
from .qudit_algebra import bell_matrix

EXACT_DIM_CAP = 11
CHI2_CONFIDENCE = 0.999

# CHI2_THRESHOLDS[k - 1] is the CHI2_CONFIDENCE quantile of the chi-square
# law with k degrees of freedom, 2 * scipy.special.gammaincinv(k / 2, 0.999)
# (the expression scipy.stats.chi2.ppf evaluates) at scipy 1.17.1. A basis
# has at most d - 1 degrees of freedom, so the 31 entries cover d <= 32.
CHI2_THRESHOLDS = (
    10.827566170662733, 13.815510557964274, 16.26623619623813, 18.46682695290317,
    20.515005652432873, 22.457744484825323, 24.321886347856854, 26.12448155837614,
    27.877164871256568, 29.58829844507442, 31.264133620239985, 32.90949040736021,
    34.52817897487089, 36.12327368039813, 37.69729821835383, 39.252354790768464,
    40.79021670690253, 42.31239633167996, 43.82019596451753, 45.31474661812586,
    46.797038041561315, 48.26794229083518, 49.7282324664315, 51.17859777737739,
    52.619655776172834, 54.05196238857664, 55.47602020574521, 56.892285393353625,
    58.301173489794905, 59.70306430442994, 61.098306081058126,
)

_MIN_EXPECTED = 5.0  # Pearson's approximation needs about 5 expected counts per class
_CHUNK = 1 << 14  # labels or outcomes drawn per generator call
_GUIDE_BITS = 12  # a label's guide table has one entry per value of a word's top 12 bits
_AMBIGUOUS = 255  # guide entry of a bucket holding a cut: its words are labelled exactly
# most bases whose matched rounds are counted by one compare per basis: ms per
# 1e7 equal-weight rounds, compare vs bincount, best of 7 (2-core x86 VM): K = 2
# 5.3 vs 25.6, 4 8.5-8.9 vs 16.3-17.7, 6 11.2-15.2 vs 13.4-16.0, 7 12.6-18.1
# vs 13.0-15.6, 9 15.8-16.1 vs 12.3-13.6, 14 45.7 vs 26.6
_COMPARE_MAX_K = 6


def joint_outcome_distribution(dim: Dim, spectrum: BellSpectrum, basis: np.ndarray) -> np.ndarray:
    """Exact joint table P(a, b) for one sifted basis.

    The sender measures `basis`, the `basis_for` array E, the receiver its
    conjugated partner; the amplitude of (a, b) on a Bell state with matrix
    F is (E^dagger F E)[a, b].
    """
    d = dim.d
    if d > EXACT_DIM_CAP:
        raise DimensionTooLarge(f"exact joint tables are capped at d={EXACT_DIM_CAP}, got {d}")
    if spectrum.d != d or basis.shape[0] != d:
        raise InvalidDistribution("dimension mismatch between spectrum and basis")
    j, k = np.divmod(np.arange(d * d), d)
    # The error-vector formulas tie spectrum entry (j, k) to the Bell state
    # whose shift index is -j mod d; using the identity pairing instead flips
    # the sign of the difference statistic in every U_1k basis.
    amp = basis.conj().T @ bell_matrix(dim, WeylIndex(-j % d, k)) @ basis
    return (spectrum.lam.reshape(-1, 1, 1) * (amp.real**2 + amp.imag**2)).sum(axis=0)


def difference_marginal(table: np.ndarray) -> np.ndarray:
    """Collapse a joint table onto t = (a - b) mod d, in the table's dtype."""
    d = table.shape[0]
    a = np.arange(d)
    t_of = (a[:, None] - a[None, :]) % d
    out = np.zeros(d, dtype=table.dtype)
    np.add.at(out, t_of, table)
    return out


@dataclass(frozen=True)
class SimConfig:
    spec: ProtocolSpec
    spectrum: BellSpectrum
    rounds: int
    seed: int
    basis_probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (rounds := plain_int(self.rounds)) is None:
            raise InvalidDistribution(f"rounds must be an integer, got {self.rounds!r}")
        if rounds < 1:
            raise InvalidDistribution(f"rounds must be >= 1, got {self.rounds}")
        if (seed := plain_int(self.seed)) is None or not 0 <= seed < 2**128:
            raise OutOfRange(f"need seed in [0, 2**128), got seed={self.seed}")
        check_spectrum_dim(self.spec, self.spectrum)
        d = self.spec.dim.d
        if d - 1 > len(CHI2_THRESHOLDS):
            raise DimensionTooLarge(
                f"the chi-square table covers d <= {len(CHI2_THRESHOLDS) + 1}, got {d}"
            )
        nb = self.spec.n_bases
        probs = self.basis_probs
        if probs is None:
            probs = tuple([1.0 / nb] * nb)
        probs = tuple(float(p) for p in as_prob_vector(np.asarray(probs)))
        if len(probs) != nb:
            raise InvalidDistribution(f"need {nb} basis probabilities, got {len(probs)}")
        self.__dict__.update(rounds=rounds, seed=seed, basis_probs=probs)  # frozen: past __setattr__


@dataclass(frozen=True)
class BasisStats:
    """Per-basis tallies and the chi-square check on difference classes."""

    basis: WeylIndex
    matched: int
    counts: np.ndarray  # (d, d) ints, [a, b]
    empirical_q: np.ndarray
    analytic_q: np.ndarray
    chi_square: float | None
    chi_square_dof: int
    chi_square_threshold: float | None
    passed: bool


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    sifted_count: int
    per_basis: tuple[BasisStats, ...]
    all_passed: bool
    fast: bool


def _chi_square_check(counts_t: np.ndarray, matched: int, q: np.ndarray) -> tuple[float | None, int, float | None, bool]:
    """Pearson statistic of observed difference counts against analytic q,
    over classes with nonzero expected probability, those expected fewer
    than `_MIN_EXPECTED` times pooled into one (one class: no verdict)."""
    if matched == 0:
        return None, 0, None, True
    live = q > 1e-15
    if np.any(counts_t[~live] > 0):
        return float("inf"), int(live.sum()) - 1, 0.0, False
    expected, observed = matched * q[live], counts_t[live]
    small = expected < _MIN_EXPECTED
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = expected.size - 1
    if dof == 0:
        return stat, 0, None, True
    threshold = CHI2_THRESHOLDS[dof - 1]
    return stat, dof, threshold, stat <= threshold


def _label_chunks(rng: np.random.Generator, probs: np.ndarray, n: int, scratch: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the `uint8` labels of `n` categorical draws, `_CHUNK` at a
    time: basis labels, exact outcome cells or fast-path differences.
    `scratch`, `uint64` and at least min(n, `_CHUNK`) long, takes each
    chunk's buckets; samplers advanced in turn can share one.

    The labels, concatenated, equal `rng.choice(len(probs), size=n, p=probs)`
    and leave `rng` in the same state. `choice` draws `random(n)`, which on
    Philox is u = (w >> 11) * 2**-53 of the next n words w, and labels u
    by `searchsorted(cdf, u, side="right")`: the number of cuts
    cdf[:-1] <= u (u < 1.0 = cdf[-1]). Here the same n words come from
    `random_raw`. The label is monotone in u, so the words sharing their
    top `_GUIDE_BITS` bits, the bucket u in [j, j + 1) * 2**-12, share it
    when it agrees at the bucket's first and last uniforms, j * 2**-12 and
    (j + 1) * 2**-12 - 2**-53. The guide table (Chen & Asau 1974) holds
    that label per bucket, or `_AMBIGUOUS` for the at most K - 1 buckets
    where it does not; a word whose entry is `_AMBIGUOUS` is labelled by
    `searchsorted` of its u (with 256 categories that includes the words
    labelled 255, still exactly). Callers pass vectors that
    `Generator.choice` would accept, with at most 256 entries, since labels
    are `uint8`.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cuts = cdf[:-1]
    first = np.arange(1 << _GUIDE_BITS) * 2.0**-_GUIDE_BITS
    low = cuts.searchsorted(first, side="right")
    high = cuts.searchsorted(first + (2.0**-_GUIDE_BITS - 2.0**-53), side="right")
    guide = np.where(low == high, low, _AMBIGUOUS).astype(np.uint8)
    draw = rng.bit_generator.random_raw
    for start in range(0, n, _CHUNK):
        words = draw(min(_CHUNK, n - start))
        bucket = np.right_shift(words, np.uint64(64 - _GUIDE_BITS), out=scratch[: words.size])
        labels = guide.take(bucket.view(np.int64))
        exact = np.flatnonzero(labels == _AMBIGUOUS)
        labels[exact] = cuts.searchsorted((words[exact] >> 11) * 2.0**-53, side="right")
        yield labels


def _skipped(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A copy of the Philox generator `rng` put `n` raw words ahead: its
    draws are those `rng` would make after `random_raw(n)`, and `rng` is
    left as it is.

    The copy first reads the `head` words still in Philox's 4-word buffer,
    then `advance`s whole counter blocks of four words and reads the rest;
    `advance` is called only past the buffer, since it throws away the
    buffered words. It also clears the buffered half-word that `integers`
    reads next, which raw words never touch, so that is restored from `rng`.
    """
    out = copy.deepcopy(rng)
    state = rng.bit_generator.state
    draw = out.bit_generator.random_raw
    head = 4 - state["buffer_pos"]
    if n <= head:
        draw(n)
        return out
    draw(head)
    out.bit_generator.advance((n - head) // 4)
    draw((n - head) % 4)
    after = out.bit_generator.state
    after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
    out.bit_generator.state = after
    return out


def _matched_counts(rng, probs: np.ndarray, rounds: int, scratch: np.ndarray) -> tuple[np.ndarray, np.random.Generator]:
    """Rounds in which sender and receiver both drew basis b, for every b,
    and the generator that continues the stream after both parties' labels.

    The sender's labels are `rng`'s next `rounds` draws, the receiver's the
    `rounds` after them, read by `_skipped(rng, rounds)`. The two are drawn
    a chunk at a time, side by side, so the stream is that of one
    sequential pass. With K <= `_COMPARE_MAX_K` bases each chunk pair's
    joint code s*K + r (a `uint8`) is compared once with each diagonal code
    b*K + b; with more, the matched sender labels, a share sum(p**2) of the
    rounds, are picked out and counted by one `bincount`. The first costs
    one pass per basis, the second grows with the matched share, 1/K at
    equal weights.
    """
    receiver = _skipped(rng, rounds)
    k = probs.size
    matched = np.zeros(k, dtype=np.int64)
    diagonal = range(0, k * k, k + 1)
    sender_labels = _label_chunks(rng, probs, rounds, scratch)
    for s, r in zip(sender_labels, _label_chunks(receiver, probs, rounds, scratch)):
        if k <= _COMPARE_MAX_K:
            code = s * np.uint8(k)
            code += r
            matched += [np.count_nonzero(code == c) for c in diagonal]
        else:
            matched += np.bincount(s.take(np.flatnonzero(s == r)), minlength=k)
    return matched, receiver


def run_simulation(cfg: SimConfig) -> SimResult:
    """Sample `rounds` state preparations and measurements, then sift.

    Deterministic for a fixed config: one Philox stream, draws in a fixed
    order (all sender bases, all receiver bases, then outcomes basis by
    basis). The two parties' basis labels are drawn side by side by two
    generators on that stream and reduce to one matched count per basis
    (`_matched_counts`); the outcomes continue on the receiver's generator.
    A basis's outcomes come from the same sampler (`_label_chunks`), each
    chunk added to its (d, d) table by one `bincount`: Born-table cells on
    the exact path; on the fast path each chunk of differences t with the
    chunk of sender outcomes a that a generator `_skipped` past all m
    differences draws beside it (chunked `integers` calls give the stream
    of one call). Single-threaded on purpose.
    """
    spec = cfg.spec
    d = spec.dim.d
    fast = d > EXACT_DIM_CAP
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    # every sampler's buckets go to one buffer: a fresh array per chunk made
    # the heap shrink and grow again, and its pages fault anew
    scratch = np.empty(_CHUNK, dtype=np.uint64)
    matched, rng = _matched_counts(rng, np.asarray(cfg.basis_probs), cfg.rounds, scratch)

    analytic = q_from_lambda(spec, cfg.spectrum)
    bases = None if fast else protocol_bases(spec)
    stats: list[BasisStats] = []
    sifted = 0
    for i, idx in enumerate(spec.basis_indices):
        m = int(matched[i])
        sifted += m
        counts = np.zeros(d * d, dtype=np.int64)
        if fast:
            a_rng = _skipped(rng, m)
            for t in _label_chunks(rng, analytic[i], m, scratch):
                a = a_rng.integers(0, d, size=t.size)
                counts += np.bincount(a * d + (a - t) % d, minlength=d * d)
            rng = a_rng
        else:
            table = joint_outcome_distribution(spec.dim, cfg.spectrum, bases[i])
            flat = table.reshape(-1)
            flat = flat / flat.sum()
            for labels in _label_chunks(rng, flat, m, scratch):
                counts += np.bincount(labels, minlength=d * d)
        counts = counts.reshape(d, d)
        counts_t = difference_marginal(counts)
        emp = counts_t / m if m > 0 else np.zeros(d)
        stat, dof, threshold, passed = _chi_square_check(counts_t, m, analytic[i])
        stats.append(
            BasisStats(idx, m, counts, emp, analytic[i], stat, dof, threshold, passed)
        )
    return SimResult(
        config=cfg,
        sifted_count=sifted,
        per_basis=tuple(stats),
        all_passed=all(s.passed for s in stats),
        fast=fast,
    )


def sifting_fraction(cfg: SimConfig) -> float:
    """Expected fraction of rounds where both parties picked the same basis."""
    p = np.asarray(cfg.basis_probs)
    return float((p * p).sum())
