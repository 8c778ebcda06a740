"""Slow independent re-computations used to validate the closed forms and the
batched kernels."""

import math

import numpy as np

from quditkd.channels import BellSpectrum, lambda_from_q, q_from_lambda
from quditkd.info_theory import depolarizing_vector, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec
from quditkd.qudit_algebra import Dim, WeylIndex, basis_for, bell_matrix
from quditkd.rates_asymptotic import adversary_information_rows
import quditkd.rates_finite as rates_finite
import quditkd.simulator as simulator
from quditkd.rates_finite import FiniteKeyBudget, FiniteRateReport, FluxMode, r_finite, xi
from quditkd.verification import SAMPLE_SEED


def shift_one(q, xi_val: float, mode: FluxMode = FluxMode.EQUAL) -> np.ndarray | None:
    """`rates_finite._shift_rows` on the one row q at radius xi_val: the
    shifted row, or None when it saturates."""
    bumped, saturated = rates_finite._shift_rows(np.asarray(q, dtype=float)[None], np.array([xi_val]), mode)
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
    """(matched, (d, d) counts) of every basis of `run_simulation(cfg)`, with
    the outcome draws of one `Generator.choice` call per basis: a categorical
    cell per round on the exact path, and on the fast path a difference t
    per round, then one `integers` call for the sender outcomes a."""
    spec = cfg.spec
    d = spec.dim.d
    fast = cfg.fast if cfg.fast is not None else d > simulator.EXACT_DIM_CAP
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    matched = simulator._matched_counts(rng, np.asarray(cfg.basis_probs), cfg.rounds)
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
    rows = [shift_one(nominal, xi(m, d, params.eps_pe), mode) for m in checks]
    key = nominal
    if spec.family is Family.DPLUS1:
        key = shift_one(nominal, xi(n, d, params.eps_pe), mode)
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
        return r_finite(spec, q, budget, rates_finite._params_from_shares(spec, budget, p01, shares), mode)

    def sort_key(report):
        p = report.params
        return (-report.r_n, p.p01, p.eps_pa, p.eps_pe, p.eps_bar)

    best_shares, p01, _ = rates_finite._coarse_winner(spec, q, budget, mode)
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
