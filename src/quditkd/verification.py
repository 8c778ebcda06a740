"""Self-check suite for the operator algebra and the statistics maps.

Each check sweeps one identity over a dimension and reports the worst
deviation found. Enumeration is exhaustive up to FULL_ENUM_CAP and switches
to seeded sampling above it, so the suite stays fast for d up to ~20.

Each check builds its operators from index arrays as one (n, d, d) stack
and runs one batched `@`, which multiplies each slice as a lone (d, d)
product would, so max_err is bit for bit that of a per-index loop. |c| in
the eigenstate check uses np.hypot: it rounds like the scalar abs(), where
numpy's vectorized complex abs can differ in the last bits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import BellSpectrum, lambda_from_q, q_from_lambda
from .protocol import Family, ProtocolSpec
from .qudit_algebra import (
    Dim,
    WeylIndex,
    basis_for,
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


def check_unitarity(dim: Dim) -> CheckResult:
    u = weyl_operator(dim, _all_indices(dim.d))
    worst = float(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(dim.d)).max())
    return CheckResult("unitarity", dim.d, worst <= UNITARITY_TOL, worst)


def check_commutation(dim: Dim) -> CheckResult:
    """U_a U_b must equal omega^phase U_b U_a with the closed-form phase."""
    a, b = _index_pairs(dim.d)
    ua, ub = weyl_operator(dim, a), weyl_operator(dim, b)
    phase = np.exp(2j * np.pi / dim.d) ** commutator_phase(dim, a, b)
    worst = float(np.abs(ua @ ub - phase[:, None, None] * (ub @ ua)).max())
    return CheckResult("commutation", dim.d, worst <= COMMUTATION_TOL, worst)


def check_bell_orthonormality(dim: Dim) -> CheckResult:
    d = dim.d
    vecs = bell_matrix(dim, _all_indices(d)).reshape(d * d, d * d)
    gram = vecs.conj() @ vecs.T
    worst = float(np.abs(gram - np.eye(d * d)).max())
    return CheckResult("bell_orthonormality", d, worst <= ORTHONORMALITY_TOL, worst)


def check_bell_eigenstates(dim: Dim) -> CheckResult:
    """Every Bell state is a phase eigenstate of U (x) U*.

    In amplitude-matrix form (A (x) B)|v_F> has matrix A F B^T, so the claim
    is U F U^dagger = c F with |c| = 1.
    """
    d = dim.d
    op_idx, state_idx = _index_pairs(d)
    u, f = weyl_operator(dim, op_idx), bell_matrix(dim, state_idx)
    rotated = u @ f @ u.conj().swapaxes(1, 2)
    n = len(f)
    anchor = (np.arange(n), np.abs(f).reshape(n, -1).argmax(axis=1))
    c = rotated.reshape(n, -1)[anchor] / f.reshape(n, -1)[anchor]
    worst = max(float(np.abs(np.hypot(c.real, c.imag) - 1.0).max()),
                float(np.abs(rotated - c[:, None, None] * f).max()))
    return CheckResult("bell_eigenstate", d, worst <= EIGENSTATE_TOL, worst)


def check_mub_overlaps(dim: Dim) -> CheckResult:
    """All protocol-basis pairs are mutually unbiased.

    Prime d exercises the full (d+1)-basis set; composite d only has the
    two-basis pair.
    """
    d = dim.d
    family = Family.DPLUS1 if dim.prime else Family.TWO_BASIS
    spec = ProtocolSpec(family, dim)
    mats = [basis_for(dim, idx) for idx in spec.basis_indices]
    worst = 0.0
    for i, e in enumerate(mats):
        for f in mats[i + 1 :]:
            overlaps = np.abs(e.conj().T @ f) ** 2
            worst = max(worst, float(np.abs(overlaps - 1.0 / d).max()))
    return CheckResult("mub_overlaps", d, worst <= MUB_TOL, worst)


def check_roundtrip(dim: Dim) -> CheckResult:
    """lambda -> q -> lambda is the identity on random spectra (prime d)."""
    d = dim.d
    spec = ProtocolSpec(Family.DPLUS1, dim)
    rng = np.random.default_rng(SAMPLE_SEED + 7 * d)
    worst = 0.0
    for _ in range(20):
        lam = BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))
        back = lambda_from_q(dim, q_from_lambda(spec, lam))
        worst = max(worst, float(np.abs(back.lam - lam.lam).max()))
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
