"""Finite-key rates with composable failure budgets and a deterministic optimizer.

Of N exchanged signals, a fraction p01^2 of rounds ends up in the key
basis (n = floor(N p01^2)) and each check basis b keeps m_b = floor(N p_b^2)
rounds, with the non-key probability split evenly across check bases in the
(d+1)-basis family. Every estimated error probability can deviate from its
observed value by at most

    xi(m, d) = sqrt((2 ln(1/eps_PE) + 2 d ln(m + 1)) / m)

except with probability eps_PE, and the rate reads

    r_N = (n/N) [ log2 d - I_E(worst-case stats) - H(q_key)
                  - log2(2/eps_EC)/n - 2 log2(1/eps_PA)/n
                  - (2 log2 d + 3) sqrt(log2(2/eps_bar)/n) ],

floored at zero. The total failure probability is
eps_EC + eps_PA + n_PE * eps_PE + eps_bar <= eps.

Worst-case statistics place the fluctuation budget xi on the error
coordinates; three splits are supported. "equal" (the default, and the
more conservative of the two extremes) spreads xi/2 evenly, "single" puts
xi/2 on one coordinate, and "brute" puts xi/2 on every coordinate at once,
which overshoots the total-variation budget and is known to be overly
pessimistic.

The adversary bound runs on plain arrays checked once at the boundary. In
the (d+1)-basis family all d check bases share the sample size m_1k and the
depolarizing nominal vector, the only inputs of the shift, so one shifted
check vector stands in for all of them. The shifted rows form the same
(n_bases, d) statistics array that `channels.q_from_lambda` returns and go
to the one adversary kernel, `rates_asymptotic.adversary_information`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSample, InfeasibleParams, OutOfRange, SaturatedStatistics
from .info_theory import as_prob_vector, depolarizing_vector, entropy_unchecked
from .protocol import Family, ProtocolSpec
from .rates_asymptotic import adversary_information

SATURATION_TOL = 1e-12


class FluxMode(str, Enum):
    EQUAL = "equal"
    SINGLE = "single"
    BRUTE = "brute"


def xi(m: int, spec_dim_d: int, eps_pe: float) -> float:
    """Fluctuation radius of an error vector estimated from m samples."""
    if m < 1:
        raise DegenerateSample(f"fluctuation bound needs m >= 1, got {m}")
    if not (0.0 < eps_pe < 1.0):
        raise OutOfRange(f"eps_PE={eps_pe!r} outside (0, 1)")
    return math.sqrt((2.0 * math.log(1.0 / eps_pe) + 2.0 * spec_dim_d * math.log(m + 1.0)) / m)


def worst_case_vector(
    q: np.ndarray,
    xi_val: float,
    mode: FluxMode = FluxMode.EQUAL,
    coordinate: int = 1,
) -> np.ndarray:
    """Shift an error vector to the adversarial corner of its xi-ball.

    Error coordinates are raised (equal split: xi/(2(d-1)) each; single:
    xi/2 on `coordinate`; brute: xi/2 on all) and the no-error coordinate
    rebalances the total. If it would go negative the statistics are
    saturated and no key can be certified. `q` is validated here; the
    result is a fresh array.

    The shift stops at the point where the no-error probability meets the
    largest error probability: that is where the entropy along the shift
    direction peaks, and pushing past it would make the adversarial
    statistics look *less* random than they are.
    """
    if xi_val < 0.0:
        raise OutOfRange(f"xi must be nonnegative, got {xi_val!r}")
    q = as_prob_vector(q)
    d = q.size
    if not 1 <= coordinate < d:
        raise OutOfRange(f"coordinate {coordinate} is not an error class for d={d}")
    if xi_val > 4.0:
        # every mode shifts by at least xi/2 > 2 > q[0]; deciding here keeps
        # the sum below from overflowing near the float maximum
        raise SaturatedStatistics(f"xi={xi_val!r} exceeds the whole probability mass")
    deltas = np.zeros(d)
    if mode is FluxMode.SINGLE:
        delta = xi_val / 2.0
        deltas[coordinate] = delta
        largest = q[coordinate]
    else:
        delta = xi_val / (2.0 * (d - 1)) if mode is FluxMode.EQUAL else xi_val / 2.0
        deltas[1:] = delta
        largest = q[1:].max()
    added = deltas.sum()
    # saturation is judged on the raw corner: once the requested shift
    # exceeds all of q[0], the noise estimate certifies nothing
    if q[0] - added < -SATURATION_TOL:
        raise SaturatedStatistics(
            f"worst case drives q[0] to {q[0] - added!r}; noise estimate unusable"
        )
    # scale the shift back so q[0] never drops below the largest error
    # coordinate; every raised coordinate gains the same delta, so the
    # first crossing is the largest raised one's, at
    # (q[0] - largest) / (added + delta). Dividing only when that ratio is
    # in [0, 1) keeps a subnormal shift from overflowing it.
    scale = 1.0
    if added > 0.0:
        gap = q[0] - largest
        reach = added + delta
        if gap < reach:
            scale = max(gap, 0.0) / reach
    bumped = q + scale * deltas
    bumped[0] = max(1.0 - bumped[1:].sum(), 0.0)
    return bumped


@dataclass(frozen=True)
class FiniteKeyBudget:
    """Total signals and failure-probability budget for one protocol run."""

    n_signals: int
    eps: float
    eps_ec: float
    n_pe: int

    def __post_init__(self) -> None:
        if self.n_signals < 1:
            raise OutOfRange(f"need at least one signal, got {self.n_signals}")
        if not (0.0 < self.eps < 1.0):
            raise OutOfRange(f"eps={self.eps!r} outside (0, 1)")
        if not (0.0 < self.eps_ec < self.eps):
            raise OutOfRange(f"eps_EC={self.eps_ec!r} must lie in (0, eps)")
        if self.n_pe < 1:
            raise OutOfRange(f"n_PE must be positive, got {self.n_pe}")

    @classmethod
    def for_protocol(
        cls, spec: ProtocolSpec, n_signals: int, eps: float, eps_ec: float
    ) -> "FiniteKeyBudget":
        return cls(n_signals=n_signals, eps=eps, eps_ec=eps_ec, n_pe=spec.n_bases)


@dataclass(frozen=True)
class FreeParams:
    """Optimizable knobs: basis bias and the split of the failure budget."""

    p01: float
    eps_pa: float
    eps_pe: float
    eps_bar: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p01 < 1.0):
            raise OutOfRange(f"p01={self.p01!r} outside (0, 1)")
        for name in ("eps_pa", "eps_pe", "eps_bar"):
            if getattr(self, name) <= 0.0:
                raise OutOfRange(f"{name} must be positive")


@dataclass(frozen=True)
class FiniteRateReport:
    r_n: float
    n: int
    m_per_basis: tuple[int, ...]
    params: FreeParams
    terms: dict[str, float] = field(default_factory=dict)
    saturated: bool = False
    degenerate: bool = False


def _budget_used(budget: FiniteKeyBudget, params: FreeParams) -> float:
    return budget.eps_ec + params.eps_pa + budget.n_pe * params.eps_pe + params.eps_bar


def _sample_sizes(spec: ProtocolSpec, n_signals: int, p01: float) -> tuple[int, tuple[int, ...]]:
    n = math.floor(n_signals * p01 * p01)
    if spec.family is Family.TWO_BASIS:
        return n, (n, math.floor(n_signals * (1.0 - p01) ** 2))
    p1k = (1.0 - p01) / spec.dim.d
    m1k = math.floor(n_signals * p1k * p1k)
    return n, (n,) + (m1k,) * spec.dim.d


def _zero_report(params: FreeParams, n: int, ms: tuple[int, ...], *, saturated: bool = False,
                 degenerate: bool = False) -> FiniteRateReport:
    return FiniteRateReport(
        r_n=0.0, n=n, m_per_basis=ms, params=params, terms={},
        saturated=saturated, degenerate=degenerate,
    )


def _worst_case_holevo(
    spec: ProtocolSpec,
    nominal: np.ndarray,
    ms: tuple[int, ...],
    eps_pe: float,
    mode: FluxMode,
) -> float:
    """Adversary information maximized over the fluctuation corner.

    Raises SaturatedStatistics when any shifted vector (or the reconstructed
    spectrum, for the (d+1)-basis family) leaves the physical region.
    """
    d = spec.dim.d
    check = worst_case_vector(nominal, xi(ms[1], d, eps_pe), mode)
    if spec.family is Family.TWO_BASIS:
        # the two-basis bound reads only the check row
        return adversary_information(spec, np.array((nominal, check)))
    stats = np.empty((d + 1, d))
    stats[0] = worst_case_vector(nominal, xi(ms[0], d, eps_pe), mode)
    stats[1:] = check
    return adversary_information(spec, stats)


def r_finite(
    spec: ProtocolSpec,
    q: float,
    budget: FiniteKeyBudget,
    params: FreeParams,
    mode: FluxMode = FluxMode.EQUAL,
) -> FiniteRateReport:
    """Finite-key rate for a depolarizing channel at error rate Q.

    Error correction is charged at the nominal (observed) error vector; only
    the adversary bound takes the statistical worst case. Zero-sample
    configurations and saturated statistics yield r_N = 0 with the matching
    flag and an empty term breakdown.
    """
    used = _budget_used(budget, params)
    if used > budget.eps * (1.0 + 1e-9):
        raise InfeasibleParams(
            f"failure budget {used!r} exceeds eps={budget.eps!r} "
            f"(n_PE={budget.n_pe})"
        )
    d = spec.dim.d
    n, ms = _sample_sizes(spec, budget.n_signals, params.p01)
    if n == 0 or min(ms) == 0:
        return _zero_report(params, n, ms, degenerate=True)
    nominal = depolarizing_vector(spec.dim, q)
    try:
        i_e_worst = _worst_case_holevo(spec, nominal, ms, params.eps_pe, mode)
    except SaturatedStatistics:
        return _zero_report(params, n, ms, saturated=True)
    h_ab = entropy_unchecked(nominal)
    ec_term = math.log2(2.0 / budget.eps_ec) / n
    pa_term = 2.0 * math.log2(1.0 / params.eps_pa) / n
    smooth_coefficient = 2.0 * math.log2(d) + 3.0
    smooth_term = smooth_coefficient * math.sqrt(math.log2(2.0 / params.eps_bar) / n)
    raw = (n / budget.n_signals) * (
        math.log2(d) - i_e_worst - h_ab - ec_term - pa_term - smooth_term
    )
    terms = {
        "holevo_worst": i_e_worst,
        "h_ab": h_ab,
        "ec_term": ec_term,
        "pa_term": pa_term,
        "smooth_term": smooth_term,
        "smooth_coefficient": smooth_coefficient,
    }
    return FiniteRateReport(
        r_n=max(raw, 0.0), n=n, m_per_basis=ms, params=params, terms=terms
    )


# ---------------------------------------------------------------------------
# deterministic optimization of the free parameters

_P01_GRID = tuple(round(0.01 * i, 2) for i in range(1, 100))
_SHARE_WEIGHTS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
_BUDGET_FILL = 0.9999  # leave a sliver so the <= constraint holds strictly
_DESCENT_FACTORS = (4.0, 2.0, 1.25, 1.0 / 1.25, 0.5, 0.25)
_DESCENT_TOL = 1e-9
_P01_TOL = 1e-4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _share_grid() -> tuple[tuple[float, float, float], ...]:
    seen: dict[tuple[float, float, float], tuple[float, float, float]] = {}
    for w in itertools.product(_SHARE_WEIGHTS, repeat=3):
        total = sum(w)
        share = (w[0] / total, w[1] / total, w[2] / total)
        seen.setdefault(tuple(round(x, 14) for x in share), share)
    return tuple(seen.values())


def _params_from_shares(
    budget: FiniteKeyBudget, p01: float, shares: tuple[float, float, float]
) -> FreeParams:
    remaining = (budget.eps - budget.eps_ec) * _BUDGET_FILL
    return FreeParams(
        p01=p01,
        eps_pa=shares[0] * remaining,
        eps_pe=shares[1] * remaining / budget.n_pe,
        eps_bar=shares[2] * remaining,
    )


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization; returns (best_x, best_f) over all probes."""
    best_x, best_f = max((lo, f(lo)), (hi, f(hi)), key=lambda probe: probe[1])
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d_pt = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d_pt)
    while b - a > tol:
        if fc > fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + _INVPHI * (b - a)
            fd = f(d_pt)
        for x, y in ((c, fc), (d_pt, fd)):
            if y > best_f:
                best_x, best_f = x, y
    return best_x, best_f


def optimize_r_finite(
    spec: ProtocolSpec,
    q: float,
    n_signals: int,
    eps: float,
    eps_ec: float,
    mode: FluxMode = FluxMode.EQUAL,
) -> FiniteRateReport:
    """Deterministic search for the best basis bias and budget split.

    Coarse pass: p01 on a 0.01 grid against a logarithmic simplex grid of
    budget shares. The winner's p01 is refined by golden section to 1e-4,
    then coordinate descent rescales one share at a time (renormalizing)
    until the rate improves by less than 1e-9. Ties prefer the smallest
    p01, then the lexicographically smallest (eps_PA, eps_PE, eps_bar).
    """
    budget = FiniteKeyBudget.for_protocol(spec, n_signals, eps, eps_ec)

    def evaluate(p01: float, shares: tuple[float, float, float]) -> FiniteRateReport:
        return r_finite(spec, q, budget, _params_from_shares(budget, p01, shares), mode)

    def sort_key(report: FiniteRateReport) -> tuple:
        p = report.params
        return (-report.r_n, p.p01, p.eps_pa, p.eps_pe, p.eps_bar)

    best: FiniteRateReport | None = None
    best_shares: tuple[float, float, float] = (1.0, 1.0, 1.0)
    for shares in _share_grid():
        for p01 in _P01_GRID:
            report = evaluate(p01, shares)
            if best is None or sort_key(report) < sort_key(best):
                best, best_shares = report, shares

    assert best is not None

    def refine_p01(shares: tuple[float, float, float], center: float) -> FiniteRateReport:
        lo = max(center - 0.01, 1e-4)
        hi = min(center + 0.01, 1.0 - 1e-4)
        x, _ = _golden_max(lambda p: evaluate(p, shares).r_n, lo, hi, _P01_TOL)
        return evaluate(x, shares)

    refined = refine_p01(best_shares, best.params.p01)
    if sort_key(refined) < sort_key(best):
        best = refined

    for _ in range(60):
        improved = False
        for axis in range(3):
            for factor in _DESCENT_FACTORS:
                shares = list(best_shares)
                shares[axis] *= factor
                total = sum(shares)
                candidate_shares = (shares[0] / total, shares[1] / total, shares[2] / total)
                candidate = evaluate(best.params.p01, candidate_shares)
                if candidate.r_n > best.r_n + _DESCENT_TOL:
                    candidate = refine_p01(candidate_shares, best.params.p01)
                    if candidate.r_n > best.r_n + _DESCENT_TOL:
                        best, best_shares = candidate, candidate_shares
                        improved = True
        if not improved:
            break
    return best
