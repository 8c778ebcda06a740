"""Slow independent re-computations used to validate the closed forms."""

import numpy as np

from quditkd.info_theory import shannon_entropy
from quditkd.protocol import ProtocolSpec


def _grid_simplex(d: int, step: float) -> np.ndarray:
    """All probability vectors of length d whose entries are multiples of step."""
    units = int(round(1.0 / step))
    if d == 2:
        left = np.arange(units + 1)
        combos = np.stack([left, units - left], axis=1)
    elif d == 3:
        combos = np.array(
            [(i, j, units - i - j) for i in range(units + 1) for j in range(units + 1 - i)]
        )
    else:
        raise ValueError("grid oracle only built for d in {2, 3}")
    return combos / units


def two_basis_adversary_grid_max(q: np.ndarray, step: float = 0.05) -> tuple[float, float]:
    """Max of H(spectrum) - H(key errors) over spectra compatible with
    observing `q` in both protocol bases, by brute force.

    Compatible spectra have row sums q (key basis) and column sums q
    re-indexed by negated column (check basis). Rows 0..d-2 carry
    grid-valued conditional distributions; the last row is solved from the
    column constraint. Returns (grid maximum, worst constraint violation).
    """
    d = len(q)
    r = np.asarray(q, dtype=float)
    c = r[(-np.arange(d)) % d]
    h_r = shannon_entropy(r)

    conds = _grid_simplex(d, step)

    def entropy_rows(lams: np.ndarray) -> np.ndarray:
        flat = lams.reshape(lams.shape[0], -1)
        safe = np.where(flat > 0.0, flat, 1.0)
        return -(flat * np.log2(safe)).sum(axis=1)

    if d == 2:
        lam0 = r[0] * conds  # (n, 2)
        lam1 = c[None, :] - lam0
        ok = (lam1 >= -1e-9).all(axis=1)
        lam = np.stack([lam0, np.clip(lam1, 0.0, None)], axis=1)[ok]
    else:
        n = conds.shape[0]
        lam0 = r[0] * conds  # (n, 3)
        lam1 = r[1] * conds
        rest = c[None, None, :] - lam0[:, None, :] - lam1[None, :, :]  # (n, n, 3)
        ok = (rest >= -1e-9).all(axis=2)
        i0, i1 = np.nonzero(ok)
        lam = np.stack(
            [lam0[i0], lam1[i1], np.clip(rest[i0, i1], 0.0, None)], axis=1
        )
    best = float(entropy_rows(lam).max() - h_r)
    violation = float(np.abs(lam.sum(axis=(1, 2)) - 1.0).max())
    return best, violation


def q_from_lambda_per_basis(spec: ProtocolSpec, lam: np.ndarray) -> np.ndarray:
    """Error statistics of `spec` computed basis by basis from the formulas

        q_01^(t) = sum_k lam[t, k],   q_1k^(t) = sum_j lam[j, (k*j - t) mod d].
    """
    d = lam.shape[0]
    rows = np.arange(d)
    out = []
    for j, k in spec.basis_indices:
        if (j, k) == (0, 1):
            out.append(lam.sum(axis=1))
        else:
            out.append(np.array([lam[rows, (k * rows - t) % d].sum() for t in range(d)]))
    return np.stack(out)
