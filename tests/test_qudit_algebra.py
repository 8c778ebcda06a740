import numpy as np
import pytest

from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import (
    Dim,
    WeylIndex,
    basis_for,
    bell_matrix,
    commutator_phase,
    is_prime,
    weyl_operator,
)


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_dim_rejects_bad_values():
    with pytest.raises(ValueError):
        Dim(1)
    with pytest.raises(ValueError):
        Dim(0)
    assert Dim(4).prime is False
    assert Dim(13).prime is True


def test_weyl_identity_and_pauli():
    assert np.allclose(weyl_operator(Dim(2), WeylIndex(0, 0)), np.eye(2))
    assert np.allclose(weyl_operator(Dim(2), WeylIndex(1, 0)), [[0, 1], [1, 0]])
    # d=2 (0,1) is Pauli-Z, (1,1) is -iY = [[0,-1],[1,0]]
    assert np.allclose(weyl_operator(Dim(2), WeylIndex(0, 1)), [[1, 0], [0, -1]])


def test_weyl_clock_d3():
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(weyl_operator(Dim(3), WeylIndex(0, 1)), np.diag([1, w, w**2]))


def test_weyl_index_range_checked():
    with pytest.raises(ValueError):
        weyl_operator(Dim(3), WeylIndex(3, 0))
    with pytest.raises(ValueError):
        weyl_operator(Dim(3), WeylIndex(0, -1))


@pytest.mark.parametrize("d", [2, 3, 6, 13])
def test_stacked_index_equals_single_index_calls(d):
    dim = Dim(d)
    rng = np.random.default_rng(d)
    j, k, j2, k2 = rng.integers(0, d, size=(4, 3, 5))
    for build in (weyl_operator, bell_matrix):
        stack = build(dim, WeylIndex(j, k))
        assert stack.shape == (3, 5, d, d)
        for n in np.ndindex(3, 5):
            assert np.array_equal(stack[n], build(dim, WeylIndex(int(j[n]), int(k[n]))))
    phases = commutator_phase(dim, WeylIndex(j, k), WeylIndex(j2, k2))
    assert phases.shape == (3, 5)
    for n in np.ndindex(3, 5):
        a, b = WeylIndex(int(j[n]), int(k[n])), WeylIndex(int(j2[n]), int(k2[n]))
        assert phases[n] == commutator_phase(dim, a, b)


def test_stacked_index_range_checked():
    dim = Dim(3)
    good = np.array([0, 1, 2, 2, 1, 0])
    assert weyl_operator(dim, WeylIndex(good, good)).shape == (6, 3, 3)
    for bad in ([0, 1, 2, 3, 0, 1], [0, 1, -1, 2, 0, 1]):
        bad = np.array(bad)
        for idx in (WeylIndex(bad, good), WeylIndex(good, bad)):
            with pytest.raises(ValueError):
                weyl_operator(dim, idx)
            with pytest.raises(ValueError):
                bell_matrix(dim, idx)
            with pytest.raises(ValueError):
                commutator_phase(dim, WeylIndex(good, good), idx)


def test_unitarity_all_dims_up_to_20():
    for d in range(2, 21):
        dim = Dim(d)
        eye = np.eye(d)
        for j in range(d):
            for k in range(d):
                u = weyl_operator(dim, WeylIndex(j, k))
                assert np.abs(u.conj().T @ u - eye).max() <= 1e-12


def test_commutator_phase_examples():
    assert commutator_phase(Dim(2), WeylIndex(1, 0), WeylIndex(0, 1)) == 1
    assert commutator_phase(Dim(3), WeylIndex(1, 0), WeylIndex(1, 0)) == 0
    assert commutator_phase(Dim(5), WeylIndex(1, 2), WeylIndex(3, 4)) == 2


def test_commutation_matrix_identity_random_pairs():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7, 11):
        dim = Dim(d)
        omega = np.exp(2j * np.pi / d)
        for _ in range(40):
            j1, k1, j2, k2 = rng.integers(0, d, size=4)
            a, b = WeylIndex(int(j1), int(k1)), WeylIndex(int(j2), int(k2))
            ua, ub = weyl_operator(dim, a), weyl_operator(dim, b)
            phase = omega ** commutator_phase(dim, a, b)
            assert np.abs(ua @ ub - phase * (ub @ ua)).max() <= 1e-12


def test_bell_state_examples():
    phi00 = bell_matrix(Dim(2), WeylIndex(0, 0)).reshape(-1)
    assert np.allclose(phi00, np.array([1, 0, 0, 1]) / np.sqrt(2))
    # singlet up to a global phase
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    overlap = abs(np.vdot(singlet, bell_matrix(Dim(2), WeylIndex(1, 1)).reshape(-1)))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    phi10 = bell_matrix(Dim(3), WeylIndex(1, 0)).reshape(-1)
    expect = np.zeros(9)
    expect[[1, 5, 6]] = 1 / np.sqrt(3)  # |01>, |12>, |20>
    assert np.allclose(phi10, expect)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_bell_orthonormality(d):
    dim = Dim(d)
    vecs = np.stack(
        [bell_matrix(dim, WeylIndex(j, k)).reshape(-1) for j in range(d) for k in range(d)]
    )
    gram = vecs.conj() @ vecs.T
    assert np.abs(gram - np.eye(d * d)).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_bell_states_are_u_otimes_ustar_eigenstates(d):
    dim = Dim(d)
    for j in range(d):
        for k in range(d):
            u = weyl_operator(dim, WeylIndex(j, k))
            for j2 in range(d):
                for k2 in range(d):
                    f = bell_matrix(dim, WeylIndex(j2, k2))
                    rotated = u @ f @ u.conj().T
                    anchor = np.unravel_index(np.abs(f).argmax(), f.shape)
                    c = rotated[anchor] / f[anchor]
                    assert abs(abs(c) - 1.0) <= 1e-12
                    assert np.abs(rotated - c * f).max() <= 1e-12


def test_phi00_invariant_without_phase():
    # (U x U*) |Phi_00> = |Phi_00> exactly, not just up to phase
    for d in (2, 3, 5, 6):
        dim = Dim(d)
        f00 = bell_matrix(dim, WeylIndex(0, 0))
        for j in range(d):
            for k in range(d):
                u = weyl_operator(dim, WeylIndex(j, k))
                assert np.abs(u @ f00 @ u.conj().T - f00).max() <= 1e-12


def _labeled_eigenvalues(d: int, idx: WeylIndex) -> np.ndarray:
    """g * omega^a by label a; g = exp(i pi k (d-1) / d) for U_1k when k (d-1) is odd, else 1."""
    j, k = idx
    g = np.exp(1j * np.pi * k * (d - 1) / d) if j == 1 and (k * (d - 1)) % 2 else 1.0
    return g * np.exp(2j * np.pi * np.arange(d) / d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_basis_vectors_are_labeled_eigenvectors(d):
    dim = Dim(d)
    spec = ProtocolSpec(Family.DPLUS1, dim)
    for idx in spec.basis_indices:
        basis = basis_for(dim, idx)
        u = weyl_operator(dim, idx)
        eigs = _labeled_eigenvalues(d, idx)
        assert np.abs(u @ basis - basis * eigs[None, :]).max() <= 1e-12
        # orthonormal and first nonzero amplitude real positive
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(d)).max() <= 1e-10
        for a in range(d):
            col = basis[:, a]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) <= 1e-12 and first.real > 0


def test_basis_for_rejects_non_protocol_operators():
    with pytest.raises(ValueError):
        basis_for(Dim(5), WeylIndex(2, 1))
    with pytest.raises(ValueError):
        basis_for(Dim(5), WeylIndex(0, 2))


def test_two_basis_is_bb84_at_d2():
    bases = protocol_bases(ProtocolSpec(Family.TWO_BASIS, 2))
    assert np.allclose(bases[0], np.eye(2))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(bases[1], hadamard)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19])
def test_protocol_bases_pairwise_unbiased_prime(d):
    bases = protocol_bases(ProtocolSpec(Family.DPLUS1, d))
    assert len(bases) == d + 1
    for i, e in enumerate(bases):
        for f in bases[i + 1 :]:
            overlaps = np.abs(e.conj().T @ f) ** 2
            assert np.abs(overlaps - 1.0 / d).max() <= 1e-10


@pytest.mark.parametrize("d", [4, 6, 9, 12])
def test_two_basis_pair_unbiased_composite(d):
    bases = protocol_bases(ProtocolSpec(Family.TWO_BASIS, d))
    overlaps = np.abs(bases[0].conj().T @ bases[1]) ** 2
    assert np.abs(overlaps - 1.0 / d).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_conjugate_basis_aligns_outcomes_on_phi00(d):
    # P(a, b) on |Phi_00> must be diag(1/d) for every protocol basis pair
    dim = Dim(d)
    f00 = bell_matrix(dim, WeylIndex(0, 0))
    for idx in ProtocolSpec(Family.DPLUS1, dim).basis_indices:
        basis = basis_for(dim, idx)
        # the receiver measures the entrywise conjugate, as in the simulator
        amp = basis.conj().T @ f00 @ basis
        prob = np.abs(amp) ** 2
        assert np.abs(prob - np.eye(d) / d).max() <= 1e-12
