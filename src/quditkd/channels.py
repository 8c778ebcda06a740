"""Maps between Bell-diagonal spectra and per-basis error statistics.

A Bell-diagonal state is described by weights lam[j, k] on the generalized
Bell basis. Measuring both halves in a protocol basis gives a distribution
over the outcome difference t = (a - b) mod d; the vector q^(t) of those
probabilities is the error vector of that basis. A protocol's error
statistics are one (n_bases, d) array whose rows follow
`ProtocolSpec.basis_indices` (key basis first). For the protocol bases the
map is linear:

    q_01^(t)  = sum_k lam[t, k]
    q_1kb^(t) = sum_j lam[j, (kb*j - t) mod d]      (kb = 0..d-1)

and for prime d the stacked system inverts entrywise:

    lam[j, k] = (sum_s q_1s^((s*j - k) mod d) + q_01^(j) - 1) / d.

The U_1k map with k != 0 sums every row over a distinct line only when d is
prime, hence the primality gates below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    IncompleteStatistics,
    InvalidDistribution,
    NegativeSpectrum,
    NonPrimeDimension,
)
from .info_theory import SUM_SLACK, as_prob_vector
from .protocol import ENTRY_SLACK, Dim, ProtocolSpec, checked_q


@dataclass(frozen=True)
class BellSpectrum:
    """Weights lam[j, k] of a Bell-diagonal state."""

    lam: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise InvalidDistribution(f"spectrum must be a square matrix, got {lam.shape}")
        if np.any(lam < -ENTRY_SLACK):
            raise NegativeSpectrum(f"spectrum entries below -{ENTRY_SLACK}: min={lam.min()!r}")
        lam = np.clip(lam, 0.0, None)
        total = float(lam.sum())
        if not abs(total - 1.0) <= SUM_SLACK:  # NaN fails too
            raise InvalidDistribution(f"spectrum sums to {total!r}, not 1")
        object.__setattr__(self, "lam", lam)

    @property
    def d(self) -> int:
        return self.lam.shape[0]


@lru_cache(maxsize=None)
def _reconstruction_index(d: int) -> np.ndarray:
    """idx[s, j, k] = (s*j - k) mod d, cached per dimension."""
    s = np.arange(d)
    return (s[:, None, None] * s[None, :, None] - s[None, None, :]) % d


def check_spectrum_dim(spec: ProtocolSpec, spectrum: BellSpectrum) -> None:
    """InvalidDistribution unless the spectrum has the protocol's dimension."""
    if spectrum.d != spec.dim.d:
        raise InvalidDistribution(f"spectrum is {spectrum.d}-dimensional, protocol wants {spec.dim.d}")


def q_from_lambda(spec: ProtocolSpec, spectrum: BellSpectrum) -> np.ndarray:
    """Error statistics of `spec`: one row per basis, in protocol order.

    `q_entries_from_lambda` on a stack of one spectrum.
    """
    check_spectrum_dim(spec, spectrum)
    return q_entries_from_lambda(spectrum.lam[None], spec.n_bases)[0]


def q_entries_from_lambda(lam: np.ndarray, n_bases: int) -> np.ndarray:
    """Raw forward map on a stack: lam is (K, d, d), the result (K, n_bases, d).

    Row 0 is q_01 (row sums of lam); row 1 + s is q_1s, gathered one basis
    at a time (K d^2 floats) with the table idx[s, t, j] = (s*j - t) mod d.
    `np.take` writes each gather C-contiguous, so each row is summed in the
    same (pairwise) order as a sum over one 1-d slice; a strided gather
    (fancy indexing can give one) would move the last bit.
    """
    k, d = lam.shape[:2]
    flat, q = lam.reshape(k, d * d), np.empty((k, n_bases, d))
    q[:, 0] = lam.reshape(-1, d).sum(axis=1).reshape(k, d)
    for s, idx in enumerate(_reconstruction_index(d)[: n_bases - 1]):
        q[:, 1 + s] = np.take(flat, np.arange(0, d * d, d) + idx.T, axis=1).sum(axis=2)
    return q


def lambda_entries_from_q(q01: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Raw inverse map on a stack: q01 is (K, d), q1 is (K, d, d) with the
    U_1s vectors as rows, s = 0..d-1.

    Returns the unvalidated (K, d, d) lam stack; callers decide how to treat
    negative entries. The gather adds one s at a time, in the order a sum
    over s would, so the temporaries stay K d^2 floats.
    """
    d = q01.shape[-1]
    idx = _reconstruction_index(d)
    gathered = q1[:, 0][:, idx[0]]
    for s in range(1, d):
        gathered += q1[:, s][:, idx[s]]
    return (gathered + q01[:, :, None] - 1.0) / d


NEGATIVE_TOL = 1e-9


def lambda_from_q(dim: Dim, stats) -> BellSpectrum:
    """Reconstruct the Bell spectrum from the (d+1, d) error statistics.

    Requires prime d and one row per basis of the (d+1)-basis protocol, in
    its order. Entries more negative than -1e-9 mean the rows are mutually
    inconsistent and raise NegativeSpectrum; tiny negatives are clamped.
    """
    d = dim.d
    if not dim.prime:
        raise NonPrimeDimension(f"spectrum reconstruction needs prime d, got {d}")
    stats = np.asarray(stats, dtype=np.float64)
    if stats.shape != (d + 1, d):
        raise IncompleteStatistics(f"need {d + 1} error vectors of length {d}, got shape {stats.shape}")
    stats = np.stack([as_prob_vector(row) for row in stats])
    lam = lambda_entries_from_q(stats[None, 0], stats[None, 1:])[0]
    if np.any(lam < -NEGATIVE_TOL):
        raise NegativeSpectrum(
            f"inconsistent statistics: reconstructed weight {lam.min()!r} below -{NEGATIVE_TOL}"
        )
    return BellSpectrum(np.clip(lam, 0.0, None))


def depolarizing_spectrum(dim: Dim, q: float) -> BellSpectrum:
    """Bell spectrum of the depolarizing channel at error rate Q.

    lam[0,0] = 1 - (d+1)Q/d and every other weight is Q/(d(d-1)); lam[0,0]
    stays nonnegative for Q up to d/(d+1). Q is read as a Python float.
    """
    d = dim.d
    q = checked_q(q, d, d / (d + 1))
    lam = np.full((d, d), q / (d * (d - 1)))
    lam[0, 0] = 1.0 - (d + 1) * q / d
    return BellSpectrum(lam)
