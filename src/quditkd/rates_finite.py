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
eps_EC + eps_PA + n_PE * eps_PE + eps_bar <= eps, where n_PE is the number
of estimated bases, `ProtocolSpec.n_bases`.

Worst-case statistics place the fluctuation budget xi on the error
coordinates; three splits are supported. "equal" (the default, and the
more conservative of the two extremes) spreads xi/2 evenly, "single" puts
xi/2 on error coordinate 1, and "brute" puts xi/2 on every coordinate at once,
which overshoots the total-variation budget and is known to be overly
pessimistic.

The adversary bound runs on plain arrays checked once at the boundary. In
the (d+1)-basis family all d check bases share the sample size m_1k and the
depolarizing nominal vector, the only inputs of the shift, so one shifted
check vector stands in for all of them. The shifted rows form the same
(n_bases, d) statistics array that `channels.q_from_lambda` returns and go
to the one adversary kernel, `rates_asymptotic.adversary_information_rows`.

The shift and the kernel work on stacks of K rows and report saturation as
a mask. One function, `_worst_case_holevo_rows`, shifts the nominal rows
and calls the kernel, in chunks of _CHUNK_ROWS rows. One function,
`_rates`, evaluates r_N on a block of (budget share x p01) cells in one
array pass: it takes xi's logarithms with `math` once per distinct eps_PE
and m, the worst case once per distinct (eps_PE, m_key, m_check), and the
rate terms by broadcasting. `r_finite` is that block at one cell, and the
optimizer's coarse pass is the block of 61 budget shares x 99 values of
p01, so every grid cell equals its scalar r_N exactly; its refine phases
walk blocks in the sequential order, and only the winner becomes a report.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSample, InfeasibleParams, OutOfRange
from .info_theory import as_prob_vector, depolarizing_vector, entropy_unchecked
from .protocol import Family, ProtocolSpec
from .rates_asymptotic import adversary_information_rows

SATURATION_TOL = 1e-12
_CHUNK_ROWS = 256  # worst-case rows per array pass; bounds memory at any grid size
TERMS = ("holevo_worst", "h_ab", "ec_term", "pa_term", "smooth_term", "smooth_coefficient")


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


def _xi_table(d: int, eps_pe: list[float], ms: list[int]) -> np.ndarray:
    """Unchecked xi(m, d, e) for each e in eps_pe (rows) and m in ms (columns):
    each logarithm once with `math`, combined in xi's operand order."""
    by_eps = np.array([2.0 * math.log(1.0 / e) for e in eps_pe])
    by_m = np.array([2.0 * d * math.log(m + 1.0) for m in ms])
    return np.sqrt((by_eps[:, None] + by_m) / np.array(ms, dtype=float))


def _shift_rows(q: np.ndarray, xi_vals: np.ndarray, mode: FluxMode) -> tuple[np.ndarray, np.ndarray]:
    """Corner shift of each row of q (K, d), rows on the simplex, by its own
    radius xi_vals[i] >= 0: the shifted rows and a mask of the saturated
    ones, whose rows are not meaningful.

    Error coordinates are raised (equal split: xi/(2(d-1)) each; single:
    xi/2 on coordinate 1; brute: xi/2 on all) and the no-error coordinate
    rebalances the total. If it would go negative the statistics are
    saturated and no key can be certified. The shift stops where the
    no-error probability meets the largest error probability: that is where
    the entropy along the shift direction peaks, and pushing past it would
    make the adversarial statistics look *less* random than they are.
    """
    k, d = q.shape
    # every mode shifts by at least xi/2 > 2 > q[0]; deciding here keeps the
    # sums below from overflowing near the float maximum
    saturated = xi_vals > 4.0
    xi_vals = np.where(saturated, 0.0, xi_vals)
    deltas = np.zeros((k, d))
    if mode is FluxMode.SINGLE:
        delta = xi_vals / 2.0
        deltas[:, 1] = delta
        largest = q[:, 1]
    else:
        delta = xi_vals / (2.0 * (d - 1)) if mode is FluxMode.EQUAL else xi_vals / 2.0
        deltas[:, 1:] = delta[:, None]
        largest = q[:, 1:].max(axis=1)
    added = deltas.sum(axis=1)
    # saturation is judged on the raw corner: once the requested shift
    # exceeds all of q[0], the noise estimate certifies nothing
    saturated |= q[:, 0] - added < -SATURATION_TOL
    # scale the shift back so q[0] never drops below the largest error
    # coordinate; every raised coordinate gains the same delta, so the
    # first crossing is the largest raised one's, at
    # (q[0] - largest) / (added + delta). Dividing only when that ratio is
    # in [0, 1) keeps a subnormal shift from overflowing it.
    gap = q[:, 0] - largest
    reach = added + delta
    scale = np.ones(k)
    np.divide(np.maximum(gap, 0.0), reach, out=scale, where=(added > 0.0) & (gap < reach))
    bumped = q + scale[:, None] * deltas
    bumped[:, 0] = np.maximum(1.0 - bumped[:, 1:].sum(axis=1), 0.0)
    return bumped, saturated


def worst_case_vector(q: np.ndarray, xi_val: float, mode: FluxMode = FluxMode.EQUAL) -> np.ndarray:
    """`_shift_rows` for one validated vector; OutOfRange if xi < 0 or the
    shift saturates. Nothing in the package calls it: it stays while
    `bench/tracing.py` lists it among its traced targets."""
    if not xi_val >= 0.0:
        raise OutOfRange(f"xi must be nonnegative, got {xi_val!r}")
    bumped, saturated = _shift_rows(as_prob_vector(q)[None], np.array([xi_val]), mode)
    if saturated[0]:
        raise OutOfRange(f"xi={xi_val!r} drives q[0] below zero; noise estimate unusable")
    return bumped[0]


@dataclass(frozen=True)
class FiniteKeyBudget:
    """Total signals and failure-probability budget for one protocol run.

    The number n_PE of parameter-estimation failures charged to the budget
    is the protocol's number of bases, read from the `ProtocolSpec`.
    """

    n_signals: int
    eps: float
    eps_ec: float

    def __post_init__(self) -> None:
        if not 1 <= self.n_signals <= sys.float_info.max:  # the sample sizes are computed in floats
            raise OutOfRange(f"need between 1 and {sys.float_info.max:.6g} signals, got {self.n_signals}")
        if not (0.0 < self.eps < 1.0):
            raise OutOfRange(f"eps={self.eps!r} outside (0, 1)")
        if not (0.0 < self.eps_ec < self.eps):
            raise OutOfRange(f"eps_EC={self.eps_ec!r} must lie in (0, eps)")


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
            if not getattr(self, name) > 0.0:
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


def _check_budget(spec: ProtocolSpec, budget: FiniteKeyBudget, params: FreeParams) -> None:
    used = budget.eps_ec + params.eps_pa + spec.n_bases * params.eps_pe + params.eps_bar
    if used > budget.eps * (1.0 + 1e-9):
        raise InfeasibleParams(
            f"failure budget {used!r} exceeds eps={budget.eps!r} "
            f"(n_PE={spec.n_bases})"
        )


def _sample_sizes(spec: ProtocolSpec, n_signals: int, p01: float) -> tuple[int, tuple[int, ...]]:
    n = math.floor(n_signals * p01 * p01)
    if spec.family is Family.TWO_BASIS:
        return n, (n, math.floor(n_signals * (1.0 - p01) ** 2))
    p1k = (1.0 - p01) / spec.dim.d
    m1k = math.floor(n_signals * p1k * p1k)
    return n, (n,) + (m1k,) * spec.dim.d


def _worst_case_holevo_rows(
    spec: ProtocolSpec, nominal: np.ndarray, xi_key: np.ndarray | None, xi_check: np.ndarray,
    mode: FluxMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Adversary information at the fluctuation corner of K radius pairs:
    I_E and a mask of the saturated pairs, whose I_E reads 0.

    A pair saturates when a shifted vector (or the reconstructed spectrum,
    for the (d+1)-basis family) leaves the physical region. Every check
    basis takes the same shifted row: all of them share the sample size
    m_1k and the depolarizing nominal vector, the only inputs of the shift.
    The two-basis bound reads only the check row, so it ignores xi_key and
    its key row stays nominal. Runs in chunks of _CHUNK_ROWS so no
    temporary grows with K.
    """
    d = spec.dim.d
    info = np.zeros(xi_check.size)
    saturated = np.zeros(xi_check.size, dtype=bool)
    for start in range(0, xi_check.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        rows = np.broadcast_to(nominal, (xi_check[part].size, d))
        check, sat = _shift_rows(rows, xi_check[part], mode)
        key = rows
        if spec.family is Family.DPLUS1:
            key, sat_key = _shift_rows(rows, xi_key[part], mode)
            sat |= sat_key
        ok = ~sat
        if ok.any():
            stats = np.empty((int(ok.sum()), spec.n_bases, d))
            stats[:, 0] = key[ok]
            stats[:, 1:] = check[ok][:, None]
            info_ok, sat_ok = adversary_information_rows(spec, stats)
            sat[ok] = sat_ok
            info[part][ok] = info_ok
        saturated[part] = sat
    return info, saturated


def _distinct(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's position."""
    ids: dict = {}
    positions = [ids.setdefault(v, len(ids)) for v in values]
    return list(ids), np.array(positions)


def _rates(
    spec: ProtocolSpec, q: float, budget: FiniteKeyBudget, per_share: list[FreeParams],
    p01s, mode: FluxMode,
) -> tuple[np.ndarray, dict, list, np.ndarray, np.ndarray]:
    """r_N of every (budget share i, p01 j) cell in one array pass.

    Row i takes its failure budgets from per_share[i] (its p01 is not read)
    and column j its sample sizes from p01s[j]. Returns, in order: the
    unfloored r_N, shape (S, P); its terms, each broadcasting to (S, P);
    the (n, m_per_basis) of each p01; a (P,) mask of the degenerate columns,
    where some basis keeps no sample; and an (S, P) mask of the saturated
    cells. A cell with either flag has no rate: its r_N reads 0 and its
    terms carry no meaning.

    xi's logarithms are taken with `math` once per distinct eps_PE and m,
    the worst case once per distinct (eps_PE, m_key, m_check); the terms are
    broadcast from per-share and per-p01 scalars, so a cell's float
    operations do not depend on the size of the block.
    """
    d = spec.dim.d
    dplus1 = spec.family is Family.DPLUS1
    sizes = [_sample_sizes(spec, budget.n_signals, p01) for p01 in p01s]
    # m_per_basis starts with n, so this also catches an empty key basis
    degenerate = np.array([min(ms) == 0 for _, ms in sizes])
    if degenerate.all():  # the optimizer's refine phases hit this at small N
        raw = np.zeros((len(per_share), len(p01s)))
        return raw, dict.fromkeys(TERMS, raw), sizes, degenerate, np.zeros(raw.shape, dtype=bool)
    # a degenerate column is evaluated as if each basis kept one sample,
    # which keeps its arithmetic finite; its cells are masked at the end
    key = [max(n, 1) for n, _ in sizes]
    check = [max(ms[1], 1) for _, ms in sizes]
    nominal = depolarizing_vector(spec.dim, q)

    # a cell's worst case depends on its share through eps_PE and on its
    # p01 through the sample sizes: evaluate each distinct combination once
    eps_pe, eps_of = _distinct([p.eps_pe for p in per_share])
    # only the (d+1)-basis bound reads the key sample size
    pairs, pair_of = _distinct([(k if dplus1 else 0, c) for k, c in zip(key, check)])

    def radii(column: int) -> np.ndarray:
        ms, m_of = _distinct([pair[column] for pair in pairs])
        return _xi_table(d, eps_pe, ms)[:, m_of].ravel()

    info, sat = _worst_case_holevo_rows(spec, nominal, radii(0) if dplus1 else None, radii(1), mode)
    cell = eps_of[:, None] * len(pairs) + pair_of  # positions in the flat worst-case tables
    n = np.array([float(k) for k in key])
    holevo_worst = info.take(cell)
    h_ab = entropy_unchecked(nominal)
    ec_term = math.log2(2.0 / budget.eps_ec) / n
    pa_term = 2.0 * np.array([[math.log2(1.0 / p.eps_pa)] for p in per_share]) / n
    smooth_coefficient = 2.0 * math.log2(d) + 3.0
    smooth_term = smooth_coefficient * np.sqrt(np.array([[math.log2(2.0 / p.eps_bar)] for p in per_share]) / n)
    frac = np.array([k / budget.n_signals for k in key])
    rate = frac * (math.log2(d) - holevo_worst - h_ab - ec_term - pa_term - smooth_term)
    saturated = sat.take(cell) & ~degenerate
    terms = dict(zip(TERMS, (holevo_worst, h_ab, ec_term, pa_term, smooth_term, smooth_coefficient)))
    return np.where(saturated | degenerate, 0.0, rate), terms, sizes, degenerate, saturated


def r_finite(
    spec: ProtocolSpec,
    q: float,
    budget: FiniteKeyBudget,
    params: FreeParams,
    mode: FluxMode = FluxMode.EQUAL,
) -> FiniteRateReport:
    """Finite-key rate for a depolarizing channel at error rate Q.

    Error correction is charged at the nominal (observed) error vector; only
    the adversary bound takes the statistical worst case. This is `_rates`
    on a block of one cell, floored at zero. Zero-sample configurations and
    saturated statistics yield r_N = 0 with the matching flag and an empty
    term breakdown.
    """
    _check_budget(spec, budget, params)
    raw, terms, sizes, degenerate, saturated = _rates(spec, q, budget, [params], [params.p01], mode)
    n, ms = sizes[0]
    has_rate = not (degenerate[0] or saturated[0, 0])
    return FiniteRateReport(
        r_n=max(float(raw[0, 0]), 0.0), n=n, m_per_basis=ms, params=params,
        # each term of a one-cell block holds exactly one value
        terms={name: np.asarray(value).item() for name, value in terms.items()} if has_rate else {},
        saturated=bool(saturated[0, 0]), degenerate=bool(degenerate[0]),
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
_GOLDEN_DEPTH = 4  # golden-section iterations whose probes one `_rates` block holds


@functools.cache
def _share_grid() -> tuple[tuple[float, float, float], ...]:
    seen: dict[tuple[float, float, float], tuple[float, float, float]] = {}
    for w in itertools.product(_SHARE_WEIGHTS, repeat=3):
        total = sum(w)
        share = (w[0] / total, w[1] / total, w[2] / total)
        seen.setdefault(tuple(round(x, 14) for x in share), share)
    return tuple(seen.values())


def _params_from_shares(
    spec: ProtocolSpec, budget: FiniteKeyBudget, p01: float, shares: tuple[float, float, float]
) -> FreeParams:
    remaining = (budget.eps - budget.eps_ec) * _BUDGET_FILL
    return FreeParams(
        p01=p01,
        eps_pa=shares[0] * remaining,
        eps_pe=shares[1] * remaining / spec.n_bases,
        eps_bar=shares[2] * remaining,
    )


def _golden_step(bracket: tuple, left: bool) -> tuple:
    """One golden-section iteration on bracket (a, b, c, d), c < d; `left` keeps [a, d]."""
    a, b, c, d_pt = bracket
    return (a, d_pt, d_pt - _INVPHI * (d_pt - a), c) if left else (c, b, d_pt, c + _INVPHI * (b - c))


def _golden_probes(bracket: tuple, known: dict, tol: float, depth: int) -> list[float]:
    """The inner points of every bracket the next `depth` iterations from
    `bracket` may reach: an iteration whose comparison `known` decides takes
    its branch, any other takes both."""
    a, b, c, d_pt = bracket
    if depth == 0 or not b - a > tol:
        return []
    points = []
    for left in (known[c] > known[d_pt],) if c in known and d_pt in known else (True, False):
        narrowed = _golden_step(bracket, left)
        points += [*narrowed[2:], *_golden_probes(narrowed, known, tol, depth - 1)]
    return points


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization; returns (best_x, best_f) over all probes.

    f maps a list of points to their values. Each call takes every point the
    next _GOLDEN_DEPTH iterations may probe, on both branches of each open
    comparison, and the search walks the path those values choose, so its
    probes and result are those of probing one point at a time.
    """
    known: dict[float, float] = {}

    def evaluate(points: list[float]) -> None:
        new = list(dict.fromkeys(x for x in points if x not in known))
        known.update(zip(new, f(new)))

    bracket = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
    evaluate([*bracket, *_golden_probes(bracket, known, tol, _GOLDEN_DEPTH)])
    best_x, best_f = max((lo, known[lo]), (hi, known[hi]), key=lambda probe: probe[1])
    while bracket[1] - bracket[0] > tol:
        narrowed = _golden_step(bracket, known[bracket[2]] > known[bracket[3]])
        if not known.keys() >= set(narrowed[2:]):
            evaluate(_golden_probes(bracket, known, tol, _GOLDEN_DEPTH))
        bracket = narrowed
        for x in bracket[2:]:
            if known[x] > best_f:
                best_x, best_f = x, known[x]
    return best_x, best_f


def _share_params(spec: ProtocolSpec, budget: FiniteKeyBudget, shares_list) -> list[FreeParams]:
    """The budget split of each share triple, checked against eps once (`_rates` reads no p01 from it)."""
    per_share = [_params_from_shares(spec, budget, _P01_GRID[0], shares) for shares in shares_list]
    for params in per_share:
        _check_budget(spec, budget, params)
    return per_share


def _coarse_winner(
    spec: ProtocolSpec, q: float, budget: FiniteKeyBudget, mode: FluxMode
) -> tuple[tuple, float, float]:
    """Shares, p01 and floored r_N of the first coarse cell, in share-major order,
    with the largest floored r_N, then the smallest p01, then (eps_PA, eps_PE, eps_bar)."""
    shares_grid = _share_grid()
    per_share = _share_params(spec, budget, shares_grid)
    grid = np.maximum(_rates(spec, q, budget, per_share, _P01_GRID, mode)[0], 0.0)
    columns = [
        np.repeat([getattr(p, name) for p in per_share], len(_P01_GRID))
        for name in ("eps_bar", "eps_pe", "eps_pa")
    ]
    # lexsort is stable and ranks by its last key first
    order = np.lexsort(columns + [np.tile(_P01_GRID, len(shares_grid)), -grid.ravel()])
    i, j = divmod(int(order[0]), len(_P01_GRID))
    return shares_grid[i], _P01_GRID[j], float(grid[i, j])


def _rescaled(shares: tuple[float, ...], axis: int, factor: float) -> tuple[float, ...]:
    scaled = [share * factor if i == axis else share for i, share in enumerate(shares)]
    total = sum(scaled)
    return tuple(share / total for share in scaled)


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
    budget shares, 6,039 cells evaluated by `_rates` as one block and
    floored here. The winner's p01 is refined by golden section to 1e-4,
    then coordinate descent rescales one share at a time (renormalizing)
    until the rate improves by less than 1e-9. These phases evaluate
    `_rates` blocks too, the golden-section probes of _GOLDEN_DEPTH
    iterations on every branch and the rest of a descent sweep's 18 shares,
    and walk them in the order of one probe at a time, so they return what
    the sequential search returns; only the winner becomes an `r_finite`
    report. Ties prefer the smallest p01, then the lexicographically
    smallest (eps_PA, eps_PE, eps_bar). At Q = 0.05 and N = 1e3..1e12 one
    call makes 6-53 `_rates` calls, 5-50 ms for d <= 11 and 0.5 s at d = 31.
    """
    budget = FiniteKeyBudget(n_signals, eps, eps_ec)

    def block(candidates: list[tuple[float, float, float]], p01s: list[float]) -> np.ndarray:
        """Floored r_N of every (shares, p01) cell. Every p01 probe lies in
        [1e-4, 1 - 1e-4], and the final `r_finite` validates the winner's."""
        return np.maximum(_rates(spec, q, budget, _share_params(spec, budget, candidates), p01s, mode)[0], 0.0)

    def refine_p01(shares: tuple[float, float, float], center: float) -> tuple[float, float]:
        lo = max(center - 0.01, 1e-4)
        hi = min(center + 0.01, 1.0 - 1e-4)
        return _golden_max(lambda p01s: block([shares], p01s)[0], lo, hi, _P01_TOL)

    best_shares, p01, r_n = _coarse_winner(spec, q, budget, mode)
    # the first refine keeps the coarse winner's shares, so of the tie-break
    # (-r_N, p01, eps_PA, eps_PE, eps_bar) only (-r_N, p01) can differ
    x, fx = refine_p01(best_shares, p01)
    if (-fx, x) < (-r_n, p01):
        p01, r_n = x, fx

    sweep = [(axis, factor) for axis in range(3) for factor in _DESCENT_FACTORS]
    for _ in range(60):
        improved = False
        rest = sweep
        while rest:
            candidates = [_rescaled(best_shares, axis, factor) for axis, factor in rest]
            values = block(candidates, [p01])[:, 0]
            for k, (shares, value) in enumerate(zip(candidates, values)):
                if value > r_n + _DESCENT_TOL:
                    x, fx = refine_p01(shares, p01)
                    if fx > r_n + _DESCENT_TOL:
                        p01, r_n, best_shares, improved = x, fx, shares, True
                        break
            rest = rest[k + 1 :]
        if not improved:
            break
    return r_finite(spec, q, budget, _params_from_shares(spec, budget, p01, best_shares), mode)
