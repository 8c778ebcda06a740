"""Weyl operators, generalized Bell states, and protocol measurement bases.

Conventions used throughout the package:

* omega = exp(2*pi*i/d) is the principal d-th root of unity.
* U_{jk} = sum_s omega^{s k} |s+j><s|  (indices mod d), so U_{01} is the
  clock operator and U_{10} the cyclic shift.
* |Phi_{jk}> = (1 x U_{jk}) |Phi_00> with |Phi_00> the normalized maximally
  entangled state; amplitudes are stored row-major, index a*d + b for |a>|b>.
* A WeylIndex may hold integer arrays of one shape S in place of ints;
  weyl_operator and bell_matrix then return the (*S, d, d) stack and
  commutator_phase the (*S,) exponents, each slice equal to its lone call.
* Measurement outcome `a` in the eigenbasis of U_{jk} labels the eigenvector
  with eigenvalue g * omega^a, where g is a fixed global phase (g != 1 only
  when k*(d-1) is odd, e.g. d=2, k=1) chosen so the residual spectrum is
  exactly {omega^a}. Eigenvectors are normalized with their first nonzero
  amplitude real positive.
"""

from __future__ import annotations

import numpy as np

from .protocol import Dim, WeylIndex


def _check_index(dim: Dim, idx: WeylIndex) -> WeylIndex:
    j, k = idx
    jk = np.asarray((j, k))
    if not ((0 <= jk) & (jk < dim.d)).all():
        raise ValueError(f"Weyl index {idx} out of range for d={dim.d}")
    return WeylIndex(j, k)


def _omega_pow(d: int, exponents: np.ndarray) -> np.ndarray:
    """omega^e elementwise, with the exponent reduced mod d first so large
    integer exponents do not lose precision in the complex exponential."""
    e = np.asarray(exponents, dtype=np.int64) % d
    return np.exp(2j * np.pi * e / d)


def weyl_operator(dim: Dim, idx: WeylIndex) -> np.ndarray:
    """Matrix of U_{jk} = sum_s omega^{sk} |s+j><s| as a (*S, d, d) complex array."""
    j, k = _check_index(dim, idx)
    d = dim.d
    s = np.arange(d)
    rows = np.add.outer(j, s) % d
    u = np.zeros(rows.shape + (d,), dtype=np.complex128)
    values = _omega_pow(d, np.multiply.outer(k, s))
    np.put_along_axis(u, rows[..., None, :], values[..., None, :], axis=-2)
    return u


def commutator_phase(dim: Dim, a: WeylIndex, b: WeylIndex) -> int | np.ndarray:
    """Exponent c with U_a U_b = omega^c U_b U_a, namely (a.k*b.j - a.j*b.k) mod d."""
    a = _check_index(dim, a)
    b = _check_index(dim, b)
    return (a.k * b.j - a.j * b.k) % dim.d


def bell_matrix(dim: Dim, idx: WeylIndex) -> np.ndarray:
    """|Phi_{jk}> reshaped to (*S, d, d): entry [a, b] is the amplitude of
    |a>|b>, which is U_{jk}^T / sqrt(d), written C-contiguous for BLAS."""
    return np.divide(weyl_operator(dim, idx).swapaxes(-1, -2), np.sqrt(dim.d), order="C")


def _shift_family_phase(d: int, k: int) -> complex:
    """Global phase g with spectrum(U_{1k}) = g * {omega^a}.

    (U_{1k})^d = omega^{k d(d-1)/2} * 1, which is 1 unless k*(d-1) is odd
    (only possible for even d). In that case the spectrum sits on the
    half-step grid and g = exp(i*pi*k*(d-1)/d) absorbs the offset.
    """
    if (k * (d - 1)) % 2 == 0:
        return 1.0 + 0.0j
    return complex(np.exp(1j * np.pi * k * (d - 1) / d))


def basis_for(dim: Dim, idx: WeylIndex) -> np.ndarray:
    """Closed-form eigenbasis of a protocol operator U_{01} or U_{1k}, as a
    (d, d) array with one eigenvector per column; column a carries outcome
    label a.

    The clock eigenbasis is the computational basis. For U_{1k} the
    eigenvector with label a has amplitudes

        v_a[s] = omega^{k s(s-1)/2 - a s} * conj(g)^s / sqrt(d),

    which satisfies U_{1k} v_a = g omega^a v_a; the quadratic phase comes
    from unrolling the one-step recursion v[s] = omega^{(s-1)k} v[s-1] / mu.
    No generic eigensolver is involved.
    """
    j, k = _check_index(dim, idx)
    d = dim.d
    if (j, k) == (0, 1):
        return np.eye(d, dtype=np.complex128)
    if j != 1:
        raise ValueError(
            f"no closed-form labeled eigenbasis for U_{{{j}{k}}}; "
            "protocol bases are U_01 and the U_1k family"
        )
    s = np.arange(d)
    a = np.arange(d)
    expo = k * (s * (s - 1) // 2)[:, None] - s[:, None] * a[None, :]
    vectors = _omega_pow(d, expo) / np.sqrt(d)
    g = _shift_family_phase(d, k)
    if g != 1.0:
        vectors = vectors * (np.conj(g) ** s)[:, None]
    return vectors
