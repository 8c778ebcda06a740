"""Self-check suite for the operator algebra and the statistics maps.

Each check sweeps one identity over a dimension and reports the worst
deviation found. Enumeration is exhaustive up to FULL_ENUM_CAP and switches
to seeded sampling above it, so the suite stays fast for d up to ~20.

The operator checks walk their index arrays in batches: each batch's
operators are one (b, d, d) stack of at most _BATCH_BYTES, so b follows
from d, and one batched `@` multiplies each slice as a lone (d, d) product
would; max_err is bit for bit that of a per-index loop, whatever the batch
size. The orthonormality check takes its Gram product one Bell shift at a
time, against a window of about d columns, and checks that each vector is
zero off its shift's support, so no array of order d^4 is built. The
roundtrip check runs its 20 random spectra as one stack, and the forward
map gathers them one basis at a time. |c| in the eigenstate check uses
np.hypot: it rounds like the scalar abs(), where numpy's vectorized
complex abs can differ in the last bits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import lambda_entries_from_q, q_entries_from_lambda
from .protocol import Family, ProtocolSpec, protocol_bases
from .qudit_algebra import (
    Dim,
    WeylIndex,
    bell_matrix,
    commutator_phase,
    weyl_operator,
)

FULL_ENUM_CAP = 7
SAMPLE_COUNT = 200
SAMPLE_SEED = 20260815

UNITARITY_TOL = 1e-12
COMMUTATION_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
EIGENSTATE_TOL = 1e-10
MUB_TOL = 1e-10
ROUNDTRIP_TOL = 1e-12

_BATCH_BYTES = 64 * 1024  # bound on one (batch, d, d) complex operand stack


@dataclass(frozen=True)
class CheckResult:
    name: str
    d: int
    passed: bool
    max_err: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name:20s} d={self.d:<3d} {verdict}  max_err={self.max_err:.3e}"


def _all_indices(d: int) -> WeylIndex:
    return WeylIndex(*np.divmod(np.arange(d * d), d))


def _index_pairs(d: int) -> tuple[WeylIndex, WeylIndex]:
    if d <= FULL_ENUM_CAP:
        a, b = np.divmod(np.arange(d**4), d * d)
        return WeylIndex(*np.divmod(a, d)), WeylIndex(*np.divmod(b, d))
    rng = np.random.default_rng(SAMPLE_SEED + d)
    picks = rng.integers(0, d, size=(SAMPLE_COUNT, 4))
    return WeylIndex(picks[:, 0], picks[:, 1]), WeylIndex(picks[:, 2], picks[:, 3])


def _batched_max(err, d: int, *indices: WeylIndex) -> float:
    """Largest `err(*batch)` over the index arrays, walked in batches small
    enough that each (batch, d, d) complex operand stays within _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // (16 * d * d))
    return float(np.max([
        err(*(WeylIndex(idx.j[lo : lo + step], idx.k[lo : lo + step]) for idx in indices))
        for lo in range(0, len(indices[0].j), step)
    ]))


def check_unitarity(dim: Dim) -> CheckResult:
    def err(idx: WeylIndex) -> float:
        u = weyl_operator(dim, idx)
        return np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(dim.d)).max()

    worst = _batched_max(err, dim.d, _all_indices(dim.d))
    return CheckResult("unitarity", dim.d, worst <= UNITARITY_TOL, worst)


def check_commutation(dim: Dim) -> CheckResult:
    """U_a U_b must equal omega^phase U_b U_a with the closed-form phase."""

    def err(a: WeylIndex, b: WeylIndex) -> float:
        ua, ub = weyl_operator(dim, a), weyl_operator(dim, b)
        phase = np.exp(2j * np.pi / dim.d) ** commutator_phase(dim, a, b)
        return np.abs(ua @ ub - phase[:, None, None] * (ub @ ua)).max()

    worst = _batched_max(err, dim.d, *_index_pairs(dim.d))
    return CheckResult("commutation", dim.d, worst <= COMMUTATION_TOL, worst)


def _window(d: int, j: int) -> tuple[int, int]:
    """Columns [jd, (j+1)d) widened out to multiples of 8, or to n = d^2."""
    return j * d // 8 * 8, min(d * d, -(-(j + 1) * d // 8) * 8)


def _off_support(rows: np.ndarray, j: int) -> float:
    """Largest |amplitude| of the shift-j Bell vectors off their support {(s, s + j)}."""
    d = len(rows)
    off = np.abs(rows).reshape(d, d, d)
    off[:, np.arange(d), (np.arange(d) + j) % d] = 0.0
    return off.max()


def check_bell_orthonormality(dim: Dim) -> CheckResult:
    """The d^2 Bell vectors have Gram matrix 1, one shift j at a time.

    The shift-j vectors (d >= 2 rows, so never BLAS's one-row GEMV path) are
    multiplied against the `_window` columns (inner length still n = d^2),
    and each tile's diagonal 1 is taken off in place, which rounds as
    `gram - np.eye(n)` does. Entries outside the tiles pair disjoint
    supports, so are sums of exact zeros; adding each row's largest
    amplitude off its support keeps that a checked fact. Windows cut at
    multiples of 8 give the whole product's entries bit for bit in
    OpenBLAS's zgemm for every d <= 32; cuts at 1 or 2 move max_err at d = 6.
    """
    d, n = dim.d, dim.d**2

    def tile_err(j: int) -> float:
        lo, hi = _window(d, j)
        cols = bell_matrix(dim, WeylIndex(*np.divmod(np.arange(lo, hi), d))).reshape(-1, n)
        rows = cols[j * d - lo : j * d - lo + d]
        gram = rows.conj() @ cols.T
        gram.reshape(-1)[j * d - lo :: hi - lo + 1] -= 1.0
        return np.abs(gram).max() + _off_support(rows, j)

    worst = float(np.max([tile_err(j) for j in range(d)]))
    return CheckResult("bell_orthonormality", d, worst <= ORTHONORMALITY_TOL, worst)


def check_bell_eigenstates(dim: Dim) -> CheckResult:
    """Every Bell state is a phase eigenstate of U (x) U*.

    In amplitude-matrix form (A (x) B)|v_F> has matrix A F B^T, so the claim
    is U F U^dagger = c F with |c| = 1.
    """

    def err(op_idx: WeylIndex, state_idx: WeylIndex) -> float:
        u, f = weyl_operator(dim, op_idx), bell_matrix(dim, state_idx)
        rotated = u @ f @ u.conj().swapaxes(1, 2)
        n = len(f)
        anchor = (np.arange(n), np.abs(f).reshape(n, -1).argmax(axis=1))
        c = rotated.reshape(n, -1)[anchor] / f.reshape(n, -1)[anchor]
        return np.maximum(np.abs(np.hypot(c.real, c.imag) - 1.0).max(),
                          np.abs(rotated - c[:, None, None] * f).max())

    worst = _batched_max(err, dim.d, *_index_pairs(dim.d))
    return CheckResult("bell_eigenstate", dim.d, worst <= EIGENSTATE_TOL, worst)


def check_mub_overlaps(dim: Dim) -> CheckResult:
    """All protocol-basis pairs are mutually unbiased.

    Prime d exercises the full (d+1)-basis set; composite d only has the
    two-basis pair.
    """
    d = dim.d
    family = Family.DPLUS1 if dim.prime else Family.TWO_BASIS
    mats = protocol_bases(ProtocolSpec(family, dim))
    worst = 0.0
    for i, e in enumerate(mats):
        for f in mats[i + 1 :]:
            overlaps = np.abs(e.conj().T @ f) ** 2
            worst = max(worst, float(np.abs(overlaps - 1.0 / d).max()))
    return CheckResult("mub_overlaps", d, worst <= MUB_TOL, worst)


def check_roundtrip(dim: Dim) -> CheckResult:
    """lambda -> q -> lambda is the identity on random spectra (prime d).

    The 20 spectra are one stack: one `dirichlet` draw (the stream of 20
    single draws), one forward and one inverse pass, clipped at 0 as
    `lambda_from_q` clips."""
    d = dim.d
    rng = np.random.default_rng(SAMPLE_SEED + 7 * d)
    lam = rng.dirichlet(np.ones(d * d), size=20).reshape(20, d, d)
    q = q_entries_from_lambda(lam, d + 1)
    back = np.clip(lambda_entries_from_q(q[:, 0], q[:, 1:]), 0.0, None)
    worst = float(np.abs(back - lam).max())
    return CheckResult("lambda_q_roundtrip", d, worst <= ROUNDTRIP_TOL, worst)


def run_suite(dims: Iterable[int]) -> list[CheckResult]:
    """Run every applicable check for each dimension, in a stable order."""
    results: list[CheckResult] = []
    for d in dims:
        dim = Dim(d)
        results.append(check_unitarity(dim))
        results.append(check_commutation(dim))
        results.append(check_bell_orthonormality(dim))
        results.append(check_bell_eigenstates(dim))
        results.append(check_mub_overlaps(dim))
        if dim.prime:
            results.append(check_roundtrip(dim))
    return results
