"""Monte Carlo measurement oracle for Bell-diagonal sources.

Both parties measure a shared Bell-diagonal state; the sender draws a
protocol basis, the receiver independently draws the conjugated partner
basis, and only matching rounds are kept (sifting). Outcome tables come
from exact Born-rule projections, so the empirical difference statistics
can be tested against the analytic error vectors of `channels`.

The exact path is capped at d = 11; beyond that a fast path samples the
outcome difference directly from the analytic error vector (which the exact
path is there to validate in the first place).

A run reads one Philox stream keyed by the seed. Every categorical draw,
basis labels and outcomes alike, goes through one sampler that draws
`_CHUNK` rounds at a time, with exactly the values one `Generator.choice`
call would give. The sender's basis labels are kept, at one byte per round,
and the receiver's chunks are matched against them as they arrive. The
outcomes of a basis are counted chunk by chunk: exact cells straight into
the (d, d) table, and on the fast path the differences t, kept at one byte
per sifted round of that basis, then the sender outcomes in `_CHUNK`-sized
`integers` calls. Memory is that byte per round plus fixed chunks; the
outcome draws start after the sender's labels are freed and add nothing.

The chi-square verdicts compare against `CHI2_THRESHOLDS`, a constant table
of the 0.999 quantiles for 1 to 31 degrees of freedom copied from scipy
(`2 * gammaincinv(k / 2, 0.999)`, the expression `scipy.stats.chi2.ppf`
evaluates); a test pins every entry against scipy, and a run imports
nothing beyond numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import BellSpectrum, q_from_lambda
from .errors import DimensionTooLarge, InvalidDistribution
from .info_theory import as_prob_vector
from .protocol import ProtocolSpec, protocol_bases
from .qudit_algebra import Dim, WeylIndex, bell_matrix

EXACT_DIM_CAP = 11
CHI2_CONFIDENCE = 0.999
MARGINAL_TOL = 1e-10

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

_CHUNK = 1 << 16  # labels or outcomes drawn per generator call
_CHOICE_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance


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
    fast: bool | None = None  # None = auto (exact up to d=11)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise InvalidDistribution(f"rounds must be >= 1, got {self.rounds}")
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
        object.__setattr__(self, "basis_probs", probs)


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
    over classes with nonzero expected probability."""
    if matched == 0:
        return None, 0, None, True
    live = q > 1e-15
    if np.any(counts_t[~live] > 0):
        return float("inf"), int(live.sum()) - 1, 0.0, False
    expected = matched * q[live]
    stat = float(((counts_t[live] - expected) ** 2 / expected).sum())
    dof = int(live.sum()) - 1
    if dof == 0:
        return stat, 0, None, True
    threshold = CHI2_THRESHOLDS[dof - 1]
    return stat, dof, threshold, stat <= threshold


def _label_chunks(rng: np.random.Generator, probs: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, labels) for `n` categorical labels, `_CHUNK` at a time:
    basis labels, exact outcome cells or fast-path differences.

    The labels, concatenated, equal `rng.choice(len(probs), size=n, p=probs)`
    and leave `rng` in the same state: chunked `rng.random` calls return the
    stream of one long call, and counting the cdf entries <= u is what
    `choice`'s `searchsorted(side="right")` does (u < 1.0 = cdf[-1]). Like
    `choice`, it refuses a negative entry or a sum more than sqrt(eps) from
    1; labels are `uint8`, so at most 256 categories.
    """
    if probs.size > 256:
        raise InvalidDistribution(f"at most 256 categories, got {probs.size}")
    if np.any(probs < 0.0) or not abs(math.fsum(probs) - 1.0) <= _CHOICE_SUM_TOL:  # NaN fails too
        raise InvalidDistribution(f"not a probability vector: {probs!r}")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        labels = np.zeros(u.size, dtype=np.uint8)
        for c in cdf[:-1]:
            labels += u >= c
        yield start, labels


def _matched_counts(rng: np.random.Generator, probs: np.ndarray, rounds: int) -> np.ndarray:
    """Rounds in which sender and receiver both drew basis b, for every b.

    All sender labels come first, then all receiver labels, one byte per
    round for the sender's and one chunk at a time for the receiver's.
    """
    sender = np.empty(rounds, dtype=np.uint8)
    for start, labels in _label_chunks(rng, probs, rounds):
        sender[start : start + labels.size] = labels
    matched = np.zeros(probs.size, dtype=np.int64)
    for start, labels in _label_chunks(rng, probs, rounds):
        s = sender[start : start + labels.size]
        matched += np.bincount(s[s == labels], minlength=probs.size)
    return matched


def run_simulation(cfg: SimConfig) -> SimResult:
    """Sample `rounds` state preparations and measurements, then sift.

    Deterministic for a fixed config: one Philox stream, draws in a fixed
    order (all sender bases, all receiver bases, then outcomes basis by
    basis). The basis labels come in chunks (`_label_chunks`) and reduce to
    one matched count per basis (`_matched_counts`). A basis's outcomes
    come from the same sampler, each chunk added to its (d, d) table by one
    `bincount`: Born-table cells on the exact path; on the fast path all
    differences t first, then the sender outcomes a in chunks (chunked
    `integers` calls give the stream of one call). Single-threaded on
    purpose.
    """
    spec = cfg.spec
    d = spec.dim.d
    fast = cfg.fast if cfg.fast is not None else d > EXACT_DIM_CAP
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    matched = _matched_counts(rng, np.asarray(cfg.basis_probs), cfg.rounds)

    analytic = q_from_lambda(spec, cfg.spectrum)
    bases = None if fast else protocol_bases(spec)
    stats: list[BasisStats] = []
    sifted = 0
    for i, idx in enumerate(spec.basis_indices):
        m = int(matched[i])
        sifted += m
        counts = np.zeros(d * d, dtype=np.int64)
        if fast:
            t = np.empty(m, dtype=np.uint8)
            for start, labels in _label_chunks(rng, analytic[i], m):
                t[start : start + labels.size] = labels
            for start in range(0, m, _CHUNK):
                a = rng.integers(0, d, size=min(_CHUNK, m - start))
                counts += np.bincount(a * d + (a - t[start : start + a.size]) % d, minlength=d * d)
            del t
        else:
            table = joint_outcome_distribution(spec.dim, cfg.spectrum, bases[i])
            flat = table.reshape(-1)
            flat = flat / flat.sum()
            for _, labels in _label_chunks(rng, flat, m):
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
