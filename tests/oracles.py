"""Slow independent re-computations used to validate the closed forms and the
batched kernels."""

import math

import numpy as np

from quditkd.channels import BellSpectrum, lambda_entries_from_q, lambda_from_q, q_from_lambda
from quditkd.info_theory import depolarizing_vector, entropy_rows, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec, protocol_bases
from quditkd.qudit_algebra import Dim, WeylIndex, basis_for, bell_matrix
import quditkd.adversary as adversary
import quditkd.rates_finite as rates_finite
import quditkd.simulator as simulator
from quditkd.adversary import CLAMP_MASS_TOL
from quditkd.rates_finite import FiniteKeyBudget, FiniteRateReport, FluxMode, FreeParams, r_finite
from quditkd.verification import SAMPLE_SEED


def bell_holevo(lam: np.ndarray) -> np.ndarray:
    """chi = H(lam) - H(q_01) of each spectrum in a (K, d, d) stack on the simplex.

    q_01 = lam.sum(axis=-1) is the key-basis error vector, so chi is a
    conditional entropy; tiny float undershoot is clamped to 0.
    """
    k, d, _ = lam.shape
    return np.maximum(entropy_rows(lam.reshape(k, d * d)) - entropy_rows(lam.sum(axis=-1)), 0.0)


def adversary_information_rows(spec: ProtocolSpec, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eavesdropper information of each (n_bases, d) statistics array in a
    (K, n_bases, d) stack, with a mask of the saturated ones.

    Unchecked kernel: rows must already lie on the simplex. Two-basis:
    H(stats[1]). (d+1)-basis: the Holevo quantity of the reconstructed
    spectrum; negative weights are clipped and the rest renormalized, unless
    they carry more than CLAMP_MASS_TOL of mass, which marks the entry
    saturated (its information reads 0).
    """
    k, _, d = stats.shape
    if spec.family is Family.TWO_BASIS:
        return entropy_rows(stats[:, 1]), np.zeros(k, dtype=bool)
    lam = lambda_entries_from_q(stats[:, 0], stats[:, 1:])
    flat = lam.reshape(k, d * d)
    saturated = -np.minimum(flat, 0.0).sum(axis=1) > CLAMP_MASS_TOL
    lam = np.clip(lam[~saturated], 0.0, None)
    lam /= lam.reshape(-1, d * d).sum(axis=1)[:, None, None]
    info = np.zeros(k)
    info[~saturated] = bell_holevo(lam)
    return info, saturated


def shift_one(q, xi_val: float, mode: FluxMode = FluxMode.EQUAL) -> np.ndarray | None:
    """`adversary._shift_rows` on the one row q at radius xi_val: the
    shifted row, or None when it saturates."""
    bumped, saturated = adversary._shift_rows(np.asarray(q, dtype=float), np.array([xi_val]), mode)
    return None if saturated[0] else bumped[0]


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


def stats_of_state(spec: ProtocolSpec, rho: np.ndarray) -> np.ndarray:
    """Error statistics of each two-qudit density matrix in a stack rho of
    shape (K, d^2, d^2), row-major in |a>|b> (sender first): the (K, n_bases,
    d) array whose row i is the distribution of t = (a - b) mod d when the
    sender measures the columns of protocol basis E_i and the receiver those
    of conj(E_i), as `simulator.joint_outcome_distribution` measures."""
    d = spec.dim.d
    t_of = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
    to_t = (t_of.reshape(-1, 1) == np.arange(d)).astype(float)  # cell a*d + b -> its t
    rows = []
    for basis in protocol_bases(spec):
        outcomes = np.kron(basis, basis.conj())  # column a*d + b is e_a (x) conj(e_b)
        joint = np.einsum("ia,kij,ja->ka", outcomes.conj(), rho, outcomes).real
        rows.append(joint @ to_t)
    return np.stack(rows, axis=1)


def _von_neumann_bits(mats: np.ndarray) -> np.ndarray:
    """Entropy in bits of each Hermitian PSD matrix in a stack; eigenvalues
    that rounding leaves below zero count as zero."""
    ev = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
    return -(ev * np.log2(np.where(ev > 0.0, ev, 1.0))).sum(axis=-1)


def key_entropy_given_eve(key_basis: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """H(Z_A|E) in bits for each state of a stack rho (K, d^2, d^2), where
    the sender measures the columns of key_basis and E holds a purification:
    H(p_z) + sum_z p_z S(rho_B^z) - S(rho_AB). E's share of the pure state
    after outcome z has the entropy of B's, and S(E) = S(rho_AB)."""
    k, d = rho.shape[0], key_basis.shape[0]
    # p_z rho_B^z = Tr_A[(|e_z><e_z| (x) 1) rho]
    weighted = np.einsum("xz,kxyXY,Xz->kzyY", key_basis.conj(), rho.reshape(k, d, d, d, d), key_basis)
    p = np.einsum("kzyy->kz", weighted).real
    conditional = weighted / np.where(p > 0.0, p, 1.0)[:, :, None, None]
    h_z = -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1)
    return h_z + (p * _von_neumann_bits(conditional)).sum(axis=1) - _von_neumann_bits(rho)


def joint_table_per_state(dim: Dim, spectrum: BellSpectrum, basis: np.ndarray) -> np.ndarray:
    """Exact joint table P(a, b) of one `basis_for` array, summed one Bell
    state at a time in spectrum order; spectrum entry (j, k) weighs the state
    U_{-j mod d, k}."""
    d = dim.d
    table = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            amp = basis.conj().T @ bell_matrix(dim, WeylIndex(-j % d, k)) @ basis
            table += spectrum.lam[j, k] * (amp.real**2 + amp.imag**2)
    return table


def simulation_counts_reference(cfg: simulator.SimConfig) -> list[tuple[int, np.ndarray]]:
    """(matched, (d, d) counts) of every basis of `run_simulation(cfg)`, from
    one sequential stream: the sender's and then the receiver's basis labels
    as two `Generator.choice` calls, the matches counted here, then the
    outcome draws of one `choice` call per basis: a categorical cell per
    round on the exact path, and on the fast path a difference t per round,
    then one `integers` call for the sender outcomes a."""
    spec = cfg.spec
    d = spec.dim.d
    fast = d > simulator.EXACT_DIM_CAP
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    nb = spec.n_bases
    sender = rng.choice(nb, size=cfg.rounds, p=cfg.basis_probs)
    receiver = rng.choice(nb, size=cfg.rounds, p=cfg.basis_probs)
    matched = np.bincount(sender[sender == receiver], minlength=nb)
    analytic = q_from_lambda(spec, cfg.spectrum)
    out = []
    for i, basis in enumerate(spec.basis_indices):
        m = int(matched[i])
        if m == 0:
            cells = np.empty(0, dtype=np.int64)
        elif fast:
            t = rng.choice(d, size=m, p=analytic[i])
            a = rng.integers(0, d, size=m)
            cells = a * d + (a - t) % d
        else:
            table = simulator.joint_outcome_distribution(spec.dim, cfg.spectrum, basis_for(spec.dim, basis))
            flat = table.reshape(-1)
            cells = rng.choice(d * d, size=m, p=flat / flat.sum())
        out.append((m, np.bincount(cells, minlength=d * d).reshape(d, d)))
    return out


def roundtrip_reference(dim: Dim) -> float:
    """`verification.check_roundtrip`'s max_err, one spectrum at a time
    through the validating `q_from_lambda` and `lambda_from_q`."""
    d = dim.d
    spec = ProtocolSpec(Family.DPLUS1, dim)
    rng = np.random.default_rng(SAMPLE_SEED + 7 * d)
    worst = 0.0
    for _ in range(20):
        lam = BellSpectrum(rng.dirichlet(np.ones(d * d)).reshape(d, d))
        back = lambda_from_q(dim, q_from_lambda(spec, lam))
        worst = max(worst, float(np.abs(back.lam - lam.lam).max()))
    return worst


def bell_orthonormality_reference(dim: Dim) -> float:
    """`verification.check_bell_orthonormality`'s max_err from one whole
    Gram product, with the diagonal 1 taken off in place."""
    n = dim.d**2
    vecs = bell_matrix(dim, WeylIndex(*np.divmod(np.arange(n), dim.d))).reshape(n, n)
    gram = vecs.conj() @ vecs.T
    gram.reshape(-1)[:: n + 1] -= 1.0
    return float(np.abs(gram).max())


def xi_reference(m: int, d: int, eps_pe: float) -> float:
    """The fluctuation radius of `rates_finite.xi`, one scalar at a time with `math`."""
    return math.sqrt((2.0 * math.log(1.0 / eps_pe) + 2.0 * d * math.log(m + 1.0)) / m)


def r_finite_reference(spec: ProtocolSpec, q: float, budget, params, mode) -> tuple[float, float | None]:
    """r_N and the worst-case I_E (None when degenerate or saturated) of one
    finite-key configuration, built from the kernels on one row at a time.

    Every basis is shifted on its own with `shift_one`, from its own
    sample size: m_key = floor(N p01^2), and m = floor(N (1 - p01)^2) for the
    two-basis check basis or floor(N ((1 - p01)/d)^2) for each of the d
    (d+1)-basis check bases. The two-basis bound reads only the check basis,
    so its key row stays nominal. The rate terms are evaluated in the float
    order of `rates_finite._rates`, so equal inputs give equal bits; nothing
    here calls `_rates`.
    """
    d = spec.dim.d
    n_signals, p01 = budget.n_signals, params.p01
    n = math.floor(n_signals * p01 * p01)
    if spec.family is Family.TWO_BASIS:
        checks = [math.floor(n_signals * (1.0 - p01) ** 2)]
    else:
        p1k = (1.0 - p01) / d
        checks = [math.floor(n_signals * p1k * p1k)] * d
    if n == 0 or min(checks) == 0:
        return 0.0, None
    nominal = depolarizing_vector(spec.dim, q)
    rows = [shift_one(nominal, xi_reference(m, d, params.eps_pe), mode) for m in checks]
    key = nominal
    if spec.family is Family.DPLUS1:
        key = shift_one(nominal, xi_reference(n, d, params.eps_pe), mode)
    if key is None or any(row is None for row in rows):
        return 0.0, None
    info, saturated = adversary_information_rows(spec, np.stack([key] + rows)[None])
    if saturated[0]:
        return 0.0, None
    i_e = float(info[0])
    ec_term = math.log2(2.0 / budget.eps_ec) / n
    pa_term = 2.0 * math.log2(1.0 / params.eps_pa) / n
    smooth_term = (2.0 * math.log2(d) + 3.0) * math.sqrt(math.log2(2.0 / params.eps_bar) / n)
    raw = n / n_signals * (math.log2(d) - i_e - shannon_entropy(nominal) - ec_term - pa_term - smooth_term)
    return max(raw, 0.0), i_e


def params_from_shares_reference(spec: ProtocolSpec, budget, p01: float, shares) -> FreeParams:
    """The `FreeParams` of one share triple, one scalar at a time: eps_PA and
    eps_bar take their shares of the budget left after eps_EC, and eps_PE
    its share divided among the n_PE bases. The scalar form of
    `rates_finite._share_split`."""
    remaining = (budget.eps - budget.eps_ec) * rates_finite._BUDGET_FILL
    return FreeParams(
        p01=p01,
        eps_pa=shares[0] * remaining,
        eps_pe=shares[1] * remaining / spec.n_bases,
        eps_bar=shares[2] * remaining,
    )


def n_grid_reference(n_min: int, n_max: int, n_points: int) -> list[int]:
    """`cli._n_grid` on valid input, its inner points placed by `np.logspace`
    itself: the body `_n_grid` had before it repeated logspace's arithmetic,
    with the loop reading Python floats as `_n_grid` does (`round` gives the
    same integer from either, and the Python float is faster)."""
    if n_points == 1:
        return [n_min]
    with np.errstate(over="ignore"):  # near the float maximum a point can round up to inf
        inner = np.logspace(np.log10(float(n_min)), np.log10(float(n_max)), n_points)[1:-1]
    out = [n_min]  # the ends are the requested counts; an overflowed point lies at n_max
    for value in inner[np.isfinite(inner)].tolist():
        n = int(round(value))
        if out[-1] < n < n_max:
            out.append(n)
    return out + [n_max] if n_max > n_min else out


def golden_max_reference(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization probing one point at a time with a scalar
    f; returns (best_x, best_f) over all probes. The sequential form of
    `rates_finite._golden_max`."""
    invphi = rates_finite._INVPHI
    best_x, best_f = max((lo, f(lo)), (hi, f(hi)), key=lambda probe: probe[1])
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_pt = a + invphi * (b - a)
    fc, fd = f(c), f(d_pt)
    while b - a > tol:
        if fc > fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + invphi * (b - a)
            fd = f(d_pt)
        for x, y in ((c, fc), (d_pt, fd)):
            if y > best_f:
                best_x, best_f = x, y
    return best_x, best_f


def optimize_reference(
    spec: ProtocolSpec, q: float, n_signals: int, eps: float, eps_ec: float, mode
) -> FiniteRateReport:
    """`optimize_r_finite` with refine phases that make one `r_finite` call
    per probe: golden section by `golden_max_reference`, and a descent that
    evaluates each candidate share when the sweep reaches it. The coarse pass
    is the module's own, whose cells are pinned against `r_finite_reference`."""
    budget = FiniteKeyBudget(n_signals, eps, eps_ec)

    def evaluate(p01, shares):
        return r_finite(spec, q, budget, params_from_shares_reference(spec, budget, p01, shares), mode)

    def sort_key(report):
        p = report.params
        return (-report.r_n, p.p01, p.eps_pa, p.eps_pe, p.eps_bar)

    best_shares, p01, _ = rates_finite._coarse_winner(spec, depolarizing_vector(spec.dim, q), budget, mode)
    best = evaluate(p01, best_shares)

    def refine_p01(shares, center):
        lo = max(center - 0.01, 1e-4)
        hi = min(center + 0.01, 1.0 - 1e-4)
        x, _ = golden_max_reference(lambda p: evaluate(p, shares).r_n, lo, hi, rates_finite._P01_TOL)
        return evaluate(x, shares)

    refined = refine_p01(best_shares, best.params.p01)
    if sort_key(refined) < sort_key(best):
        best = refined

    for _ in range(60):
        improved = False
        for axis in range(3):
            for factor in rates_finite._DESCENT_FACTORS:
                shares = list(best_shares)
                shares[axis] *= factor
                total = sum(shares)
                candidate_shares = (shares[0] / total, shares[1] / total, shares[2] / total)
                candidate = evaluate(best.params.p01, candidate_shares)
                if candidate.r_n > best.r_n + rates_finite._DESCENT_TOL:
                    candidate = refine_p01(candidate_shares, best.params.p01)
                    if candidate.r_n > best.r_n + rates_finite._DESCENT_TOL:
                        best, best_shares = candidate, candidate_shares
                        improved = True
        if not improved:
            break
    return best
