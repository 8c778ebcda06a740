"""The adversary's information I_E at the worst case of the fluctuation set.

`rates_finite` charges I_E at worst-case statistics, and `rates_asymptotic`
copies the formulas at the nominal ones. Worst-case statistics place the
fluctuation budget xi on the error coordinates; three splits are supported.
"equal" (the default, and the more conservative of the two extremes)
spreads xi/2 evenly, "single" puts xi/2 on error coordinate 1, and "brute"
puts xi/2 on every coordinate at once, which overshoots the total-variation
budget and is known to be overly pessimistic.

One kernel, `_holevo_pairs`, gives I_E on plain arrays checked once at the
boundary, for the shifted pair of r_N; `r_infinity` copies it on Python
floats for the nominal pair, and the tests compare the two. The
two-basis bound is the entropy of the check row. In the (d+1)-basis
family every check basis has the sample size m_1k and the depolarizing
nominal vector, the only inputs of the shift, so all d read one shifted row
c. For prime d, s j runs over every residue when j != 0, so the
reconstruction lam[j, k] = (sum_s c[(s j - k) mod d] + q_01[j] - 1)/d of
`channels` has row 0 lam[0, k] = (d c[-k mod d] + q_01[0] - 1)/d and
constant rows lam[j, .] = (sum(c) + q_01[j] - 1)/d. The pair saturates if
sum_k min(lam[0, k], 0) + d sum_{j>=1} min(lam[j], 0) < -CLAMP_MASS_TOL;
else the spectrum is clipped at 0 and renormalized, and with r_0 its row 0
and P_0 = sum(r_0), since rows j >= 1 are uniform over k,

    I_E = H(lam) - H(row sums) = H(r_0) + P_0 log2 P_0 + (1 - P_0) log2 d,

whatever the order of r_0's entries, in O(d) per pair; the full
reconstruction is the tests' oracle, `adversary_information_rows` in
`tests/oracles.py`.

The shift makes K rows from one vector and K radii, the kernel takes K
rows, and both report saturation as a mask. `_worst_case_holevo_rows`
shifts the nominal vector and calls the kernel, in chunks of _CHUNK_ROWS
rows.
"""

from __future__ import annotations

import math

import numpy as np

from .info_theory import entropy_rows
from .protocol import Family, FluxMode, ProtocolSpec

SATURATION_TOL = 1e-12
CLAMP_MASS_TOL = 1e-6  # reconstructed spectra may leave the simplex at large xi
_CHUNK_ROWS = 256  # worst-case rows per array pass; bounds memory at any grid size


def _shift_rows(q: np.ndarray, xi_vals: np.ndarray, mode: FluxMode) -> tuple[np.ndarray, np.ndarray]:
    """Corner shifts of one vector q (d,) on the simplex by each of K radii
    xi_vals[i] >= 0: the (K, d) shifted rows and a mask of the saturated
    ones, whose rows are not meaningful.

    Error coordinates are raised (equal split: xi/(2(d-1)) each; single:
    xi/2 on coordinate 1; brute: xi/2 on all) and the no-error coordinate
    rebalances the total. If it would go negative the statistics are
    saturated and no key can be certified. The shift stops where the
    no-error probability meets the largest error probability: that is where
    the entropy along the shift direction peaks, and pushing past it would
    make the adversarial statistics look *less* random than they are.
    """
    k, d = xi_vals.size, q.size
    # every mode shifts by at least xi/2 > 2 > q[0]; deciding here keeps the
    # sums below from overflowing near the float maximum
    saturated = xi_vals > 4.0
    xi_vals = np.where(saturated, 0.0, xi_vals)
    raised = slice(1, 2) if mode is FluxMode.SINGLE else slice(1, d)
    delta = xi_vals / (2.0 * (d - 1)) if mode is FluxMode.EQUAL else xi_vals / 2.0
    deltas = np.zeros((k, d))
    deltas[:, raised] = delta[:, None]
    added = deltas.sum(axis=1)
    # saturation is judged on the raw corner: once the requested shift
    # exceeds all of q[0], the noise estimate certifies nothing
    saturated |= q[0] - added < -SATURATION_TOL
    # scale the shift back so q[0] never drops below the largest error
    # coordinate; every raised coordinate gains the same delta, so the
    # first crossing is the largest raised one's, at
    # (q[0] - largest) / (added + delta). Dividing only when that ratio is
    # in [0, 1) keeps a subnormal shift from overflowing it.
    gap = q[0] - q[raised].max()
    reach = added + delta
    scale = np.ones(k)
    np.divide(np.maximum(gap, 0.0), reach, out=scale, where=(added > 0.0) & (gap < reach))
    bumped = q + scale[:, None] * deltas
    bumped[:, 0] = np.maximum(1.0 - bumped[:, 1:].sum(axis=1), 0.0)
    return bumped, saturated


def _holevo_pairs(spec: ProtocolSpec, key: np.ndarray, check: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_E of K (key row, check row) pairs, (K, d) arrays already on the
    simplex, every check basis reading its check row, and a mask of the
    saturated pairs: the check row's entropy for two-basis, else the module
    docstring's closed form."""
    if spec.family is Family.TWO_BASIS:
        return entropy_rows(check), np.zeros(len(check), dtype=bool)
    d = spec.dim.d
    # spectrum row 0 in the order of the check row, not of k: only its
    # entropy and its mass are read, and neither depends on the order
    row0 = (d * check + key[:, :1] - 1.0) / d
    rest = (check.sum(axis=1)[:, None] + key[:, 1:] - 1.0) / d  # rows j >= 1, each constant in k
    saturated = -(np.minimum(row0, 0.0).sum(axis=1) + d * np.minimum(rest, 0.0).sum(axis=1)) > CLAMP_MASS_TOL
    row0 = np.maximum(row0, 0.0)
    row0 /= (row0.sum(axis=1) + d * np.maximum(rest, 0.0).sum(axis=1))[:, None]
    mass = row0.sum(axis=1)  # P_0; -H of a one-entry row is P_0 log2 P_0
    info = entropy_rows(row0) - entropy_rows(mass[:, None]) + (1.0 - mass) * math.log2(d)
    return np.where(saturated, 0.0, np.maximum(info, 0.0)), saturated


def _worst_case_holevo_rows(
    spec: ProtocolSpec, nominal: np.ndarray, xi_key: np.ndarray, xi_check: np.ndarray, mode: FluxMode
) -> tuple[np.ndarray, np.ndarray]:
    """Adversary information at the fluctuation corner of K radius pairs:
    I_E and a mask of the saturated pairs, whose I_E reads 0.

    A pair saturates when a shifted vector (or the reconstructed spectrum,
    for the (d+1)-basis family) leaves the physical region. Every check
    basis takes the same shifted row: all of them share the sample size
    m_1k and the depolarizing nominal vector, the only inputs of the shift.
    Only the (d+1)-basis bound reads the key row, so only that family
    shifts it by xi_key. Runs in chunks of _CHUNK_ROWS so no temporary grows
    with K; the kernel takes every row of a chunk, and a pair that the
    shift saturates reads 0 whatever the kernel makes of its rows.
    """
    shift_key = spec.family is Family.DPLUS1
    info = np.zeros(xi_check.size)
    saturated = np.zeros(xi_check.size, dtype=bool)
    for start in range(0, xi_check.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        check, sat = _shift_rows(nominal, xi_check[part], mode)
        key = nominal[None]  # read by the (d+1)-basis bound only, which shifts it
        if shift_key:
            key, sat_key = _shift_rows(nominal, xi_key[part], mode)
            sat |= sat_key
        pair_info, pair_sat = _holevo_pairs(spec, key, check)
        saturated[part] = sat | pair_sat
        info[part] = np.where(saturated[part], 0.0, pair_info)
    return info, saturated


