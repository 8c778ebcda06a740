"""Monte Carlo measurement oracle for Bell-diagonal sources.

Both parties measure a shared Bell-diagonal state; the sender draws a
protocol basis, the receiver independently draws the conjugated partner
basis, and only matching rounds are kept (sifting). Outcome tables come
from exact Born-rule projections, so the empirical difference statistics
can be tested against the analytic error vectors of `channels`.

The exact path is capped at d = 11; beyond that a fast path samples the
outcome difference directly from the analytic error vector (which the exact
path is there to validate in the first place).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .channels import BellSpectrum, q_from_lambda
from .errors import DimensionTooLarge, InvalidDistribution
from .info_theory import as_prob_vector
from .protocol import ProtocolSpec, protocol_bases
from .qudit_algebra import Basis, Dim, WeylIndex, bell_matrix

EXACT_DIM_CAP = 11
CHI2_CONFIDENCE = 0.999
MARGINAL_TOL = 1e-10

# The error-vector formulas tie spectrum entry (j, k) to the Bell state
# whose shift index is -j mod d; using the identity pairing instead flips
# the sign of the difference statistic in every U_1k basis.
def _state_index(d: int, j: int, k: int) -> WeylIndex:
    return WeylIndex((-j) % d, k)


def joint_outcome_distribution(dim: Dim, spectrum: BellSpectrum, basis: Basis) -> np.ndarray:
    """Exact joint table P(a, b) for one sifted basis.

    The sender measures `basis`, the receiver its conjugated partner; with
    both columns stacked as E the amplitude of (a, b) on a Bell state with
    matrix F is (E^dagger F E)[a, b].
    """
    d = dim.d
    if d > EXACT_DIM_CAP:
        raise DimensionTooLarge(f"exact joint tables are capped at d={EXACT_DIM_CAP}, got {d}")
    if spectrum.d != d or basis.d != d:
        raise InvalidDistribution("dimension mismatch between spectrum and basis")
    e = basis.vectors
    table = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            w = spectrum.lam[j, k]
            if w == 0.0:
                continue
            f = bell_matrix(dim, _state_index(d, j, k))
            amp = e.conj().T @ f @ e
            table += w * (amp.real**2 + amp.imag**2)
    return table


def difference_marginal(table: np.ndarray) -> np.ndarray:
    """Collapse a joint table onto t = (a - b) mod d."""
    d = table.shape[0]
    a = np.arange(d)
    t_of = (a[:, None] - a[None, :]) % d
    out = np.zeros(d)
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
    threshold = float(chi2.ppf(CHI2_CONFIDENCE, dof))
    return stat, dof, threshold, stat <= threshold


def run_simulation(cfg: SimConfig) -> SimResult:
    """Sample `rounds` state preparations and measurements, then sift.

    Deterministic for a fixed config: one Philox stream, draws in a fixed
    order (sender bases, receiver bases, then outcomes basis by basis).
    Single-threaded on purpose.
    """
    spec = cfg.spec
    d = spec.dim.d
    fast = cfg.fast if cfg.fast is not None else d > EXACT_DIM_CAP
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    nb = spec.n_bases
    probs = np.asarray(cfg.basis_probs)

    sender = rng.choice(nb, size=cfg.rounds, p=probs)
    receiver = rng.choice(nb, size=cfg.rounds, p=probs)
    matched_mask = sender == receiver

    analytic = q_from_lambda(spec, cfg.spectrum)
    bases = None if fast else protocol_bases(spec)
    stats: list[BasisStats] = []
    sifted = 0
    for i, idx in enumerate(spec.basis_indices):
        m = int((matched_mask & (sender == i)).sum())
        sifted += m
        counts = np.zeros((d, d), dtype=np.int64)
        if m > 0:
            if fast:
                t = rng.choice(d, size=m, p=analytic[i])
                a = rng.integers(0, d, size=m)
                b = (a - t) % d
            else:
                table = joint_outcome_distribution(spec.dim, cfg.spectrum, bases[i])
                flat = table.reshape(-1)
                flat = flat / flat.sum()
                cells = rng.choice(d * d, size=m, p=flat)
                a, b = np.divmod(cells, d)
            np.add.at(counts, (a, b), 1)
        counts_t = difference_marginal(counts.astype(np.float64)).astype(np.int64)
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
