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
of estimated bases, `ProtocolSpec.n_bases`. The penalty terms are evaluated
as 1 - log2 x and -log2 x, with no reciprocal, so they are finite at every
positive float. I_E at the worst-case statistics, and the flux modes
that place xi, come from `adversary`.

`_rates` evaluates r_N on a block of (budget share x p01) cells in
one array pass, at a nominal vector that `r_finite` and `optimize_r_finite`
build, and so check Q, once per call at any N. Its budget split is one
(S, 3) array of (eps_PA, eps_PE, eps_bar) rows: `r_finite` checks the one
row it is given against eps, and `_share_split` builds the optimizer's rows
from share triples, which leave a sliver of eps unspent and so need no
check. `_rates` dedups eps_PE and tests degeneracy on Python lists, takes
xi's logarithms with `math` once per distinct eps_PE and per p01, the worst
case once per distinct (eps_PE, p01), and the rate terms by broadcasting; no
row's float operations depend on its position in the block. `r_finite` is
that block at one cell, and the coarse pass is the block of 61 budget shares
x 99 values of p01, so every grid cell equals its scalar r_N exactly, and its
winner is one argmax; the refine phases walk blocks in the sequential order,
and only the winner becomes a report.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .adversary import _shift_rows, _worst_case_holevo_rows
from .errors import DegenerateSample, InfeasibleParams, OutOfRange
from .info_theory import as_prob_vector, depolarizing_vector, entropy_rows
from .protocol import Family, FluxMode, ProtocolSpec, plain_int

TERMS = ("holevo_worst", "h_ab", "ec_term", "pa_term", "smooth_term", "smooth_coefficient")


def xi(m: int, spec_dim_d: int, eps_pe: float) -> float:
    """Fluctuation radius of an error vector from m samples: `_xi_table` at one cell."""
    if m < 1 or (count := plain_int(m)) is None:  # compared first: a string raises TypeError
        raise DegenerateSample(f"fluctuation bound needs m >= 1, got {m}")
    if (d := plain_int(spec_dim_d)) is None or d < 2:
        raise OutOfRange(f"xi needs an integer dimension d >= 2, got {spec_dim_d!r}")
    if not (0.0 < eps_pe < 1.0):
        raise OutOfRange(f"eps_PE={eps_pe!r} outside (0, 1)")
    return float(_xi_table(d, [float(eps_pe)], [count])[0, 0])


def _xi_table(d: int, eps_pe: list[float], ms: list[int]) -> np.ndarray:
    """Unchecked xi(m, d, e) for each e in eps_pe (rows) and m in ms (columns):
    logarithms once per row and column with `math`, in xi's operand order."""
    by_eps = np.array([2.0 * math.log(1.0 / e) for e in eps_pe])
    by_m = np.array([2.0 * d * math.log(m + 1.0) for m in ms])
    return np.sqrt((by_eps[:, None] + by_m) / np.array(ms, dtype=float))


def worst_case_vector(q: np.ndarray, xi_val: float, mode: FluxMode = FluxMode.EQUAL) -> np.ndarray:
    """`_shift_rows` for one validated vector; OutOfRange if xi < 0 or the
    shift saturates. Nothing in the package calls it: it stays while
    `bench/tracing.py` lists it among its traced targets."""
    if not xi_val >= 0.0:
        raise OutOfRange(f"xi must be nonnegative, got {xi_val!r}")
    bumped, saturated = _shift_rows(as_prob_vector(q), np.array([xi_val]), FluxMode(mode))
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
        if (n := plain_int(self.n_signals)) is None:
            raise OutOfRange(f"n_signals must be an integer, got {self.n_signals!r}")
        if not 1 <= n <= sys.float_info.max:  # the sample sizes are computed in floats
            raise OutOfRange(f"need between 1 and {sys.float_info.max:.6g} signals, got {self.n_signals}")
        if not (0.0 < self.eps < 1.0):
            raise OutOfRange(f"eps={self.eps!r} outside (0, 1)")
        if not (0.0 < self.eps_ec < self.eps):
            raise OutOfRange(f"eps_EC={self.eps_ec!r} must lie in (0, eps)")
        self.__dict__.update(n_signals=n, eps=float(self.eps), eps_ec=float(self.eps_ec))  # frozen
        # a subnormal eps - eps_EC leaves the optimizer's smallest shares few
        # bits, and below about 1.6e-318 none: a zero share has no log2
        if not self.eps - self.eps_ec >= sys.float_info.min:
            raise OutOfRange(f"eps - eps_EC={self.eps - self.eps_ec!r} below {sys.float_info.min!r}")


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
        self.__dict__.update({name: float(value) for name, value in vars(self).items()})  # frozen


@dataclass(frozen=True)
class FiniteRateReport:
    r_n: float
    n: int
    m_per_basis: tuple[int, ...]
    params: FreeParams
    terms: dict[str, float] = field(default_factory=dict)
    saturated: bool = False
    degenerate: bool = False


def _sample_sizes(spec: ProtocolSpec, n_signals: int, p01: float) -> tuple[int, tuple[int, ...]]:
    n = math.floor(n_signals * p01 * p01)
    if spec.family is Family.TWO_BASIS:
        return n, (n, math.floor(n_signals * (1.0 - p01) ** 2))
    p1k = (1.0 - p01) / spec.dim.d
    m1k = math.floor(n_signals * p1k * p1k)
    return n, (n,) + (m1k,) * spec.dim.d


def _rates(
    spec: ProtocolSpec, nominal: np.ndarray, budget: FiniteKeyBudget, split: np.ndarray,
    p01s, mode: FluxMode,
) -> tuple[np.ndarray, dict, list, np.ndarray, np.ndarray]:
    """r_N of every (budget share i, p01 j) cell in one array pass, at the
    nominal error vector that the caller checked and built.

    Row i takes its failure budgets from split[i], one (eps_PA, eps_PE,
    eps_bar) row of an (S, 3) array whose rows spend at most eps, and
    column j its sample sizes from p01s[j]. Returns, in order: the unfloored r_N,
    shape (S, P); its terms, each broadcasting to (S, P); the
    (n, m_per_basis) of each p01; a (P,) mask of the degenerate columns,
    where some basis keeps no sample; and an (S, P) mask of the saturated
    cells. A cell with either flag has no rate: its r_N reads 0 and its
    terms carry no meaning.

    A dict dedups eps_PE in first-seen order; xi's logarithms are taken with
    `math` once per distinct eps_PE and per p01, the worst case once per
    distinct (eps_PE, p01); the terms are broadcast from per-share and
    per-p01 scalars, so a cell's float operations depend on neither the size
    of the block nor a row's position in it.
    """
    d = spec.dim.d
    sizes = [_sample_sizes(spec, budget.n_signals, p01) for p01 in p01s]
    # m_per_basis starts with n, so this also catches an empty key basis
    degenerate = np.array([min(ms) == 0 for _, ms in sizes])
    # a degenerate column is evaluated as if each basis kept one sample,
    # which keeps its arithmetic finite, and its cells are masked at the
    # end, also in a block with no other column
    key = [max(n, 1) for n, _ in sizes]
    check = [max(ms[1], 1) for _, ms in sizes]

    # a cell's worst case depends on its share through eps_PE and on its
    # p01 through the sample sizes: evaluate each (eps_PE, p01) once
    eps_pa, _, eps_bar = split.T.tolist()
    eps_pe: dict = {}  # distinct eps_PE -> index, in first-seen order
    eps_of = np.array([eps_pe.setdefault(e, len(eps_pe)) for e in split[:, 1].tolist()])
    xi_key, xi_check = (_xi_table(d, list(eps_pe), ms).ravel() for ms in (key, check))
    info, sat = _worst_case_holevo_rows(spec, nominal, xi_key, xi_check, mode)
    n = np.array([float(k) for k in key])
    holevo_worst = info.reshape(len(eps_pe), -1)[eps_of]
    h_ab = float(entropy_rows(nominal[None])[0])
    ec_term = (1.0 - math.log2(budget.eps_ec)) / n
    pa_term = -2.0 * np.array([[math.log2(e)] for e in eps_pa]) / n
    smooth_coefficient = 2.0 * math.log2(d) + 3.0
    smooth_term = smooth_coefficient * np.sqrt(np.array([[1.0 - math.log2(e)] for e in eps_bar]) / n)
    frac = np.array([k / budget.n_signals for k in key])
    rate = frac * (math.log2(d) - holevo_worst - h_ab - ec_term - pa_term - smooth_term)
    saturated = sat.reshape(len(eps_pe), -1)[eps_of] & ~degenerate
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
    mode = FluxMode(mode)
    used = budget.eps_ec + params.eps_pa + spec.n_bases * params.eps_pe + params.eps_bar
    if used > budget.eps * (1.0 + 1e-9):
        raise InfeasibleParams(
            f"failure budget {used!r} exceeds eps={budget.eps!r} (n_PE={spec.n_bases})"
        )
    nominal = depolarizing_vector(spec.dim, q)
    split = np.array([[params.eps_pa, params.eps_pe, params.eps_bar]])
    raw, terms, sizes, degenerate, saturated = _rates(spec, nominal, budget, split, [params.p01], mode)
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
    """The coarse pass's distinct share triples (eps_PA, eps_PE, eps_bar),
    sorted: their order is the tie-break order of `_coarse_winner`."""
    seen: dict[tuple[float, float, float], tuple[float, float, float]] = {}
    for w in itertools.product(_SHARE_WEIGHTS, repeat=3):
        total = sum(w)
        share = (w[0] / total, w[1] / total, w[2] / total)
        seen.setdefault(tuple(round(x, 14) for x in share), share)
    return tuple(sorted(seen.values()))


def _share_split(spec: ProtocolSpec, budget: FiniteKeyBudget, shares_list) -> np.ndarray:
    """The budget split of each share triple: eps_PA and eps_bar take their
    shares of the budget left after eps_EC, and eps_PE its share divided
    among the n_PE bases. _BUDGET_FILL keeps every row below eps."""
    split = np.array(shares_list, dtype=float) * ((budget.eps - budget.eps_ec) * _BUDGET_FILL)
    split[:, 1] /= spec.n_bases
    return split


def _floored_rates(spec, nominal, budget, mode, shares_list, p01s) -> np.ndarray:
    """`_rates` floored at 0 on every (share triple, p01) cell, split by `_share_split`."""
    return np.maximum(_rates(spec, nominal, budget, _share_split(spec, budget, shares_list), p01s, mode)[0], 0.0)


def _golden_step(bracket: tuple, left: bool) -> tuple:
    """One golden-section iteration on bracket (a, b, c, d), c < d; `left` keeps [a, d]."""
    a, b, c, d_pt = bracket
    return (a, d_pt, d_pt - _INVPHI * (d_pt - a), c) if left else (c, b, d_pt, c + _INVPHI * (b - c))


def _golden_probes(bracket: tuple, depth: int) -> list[float]:
    """The inner points of every bracket the next `depth` iterations from
    `bracket` may reach, on both branches of each comparison."""
    if depth == 0 or not bracket[1] - bracket[0] > _P01_TOL:
        return []
    points = []
    for left in (True, False):
        narrowed = _golden_step(bracket, left)
        points += [*narrowed[2:], *_golden_probes(narrowed, depth - 1)]
    return points


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization to _P01_TOL; returns (best_x, best_f) over all probes.

    f maps a list of points to their values. Each call takes the probes of
    the next _GOLDEN_DEPTH iterations on both branches of each comparison
    not yet made, and the search walks the path those values choose, so its
    probes and result are those of probing one point at a time.
    """
    known: dict[float, float] = {}

    def evaluate(points: list[float]) -> None:
        new = list(dict.fromkeys(x for x in points if x not in known))
        known.update(zip(new, f(new)))

    bracket = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
    evaluate([*bracket, *_golden_probes(bracket, _GOLDEN_DEPTH)])
    best_x, best_f = max((lo, known[lo]), (hi, known[hi]), key=lambda probe: probe[1])
    while bracket[1] - bracket[0] > _P01_TOL:
        bracket = _golden_step(bracket, known[bracket[2]] > known[bracket[3]])
        if not known.keys() >= set(bracket[2:]):
            evaluate([*bracket[2:], *_golden_probes(bracket, _GOLDEN_DEPTH - 1)])
        for x in bracket[2:]:
            if known[x] > best_f:
                best_x, best_f = x, known[x]
    return best_x, best_f


def _coarse_winner(
    spec: ProtocolSpec, nominal: np.ndarray, budget: FiniteKeyBudget, mode: FluxMode
) -> tuple[tuple, float, float]:
    """Shares, p01 and floored r_N of the coarse cell with the largest floored
    r_N, then the smallest p01, then the smallest (eps_PA, eps_PE, eps_bar):
    the first maximum in p01-major order, since both grids are sorted."""
    shares_grid = _share_grid()
    grid = _floored_rates(spec, nominal, budget, mode, shares_grid, _P01_GRID)
    j, i = divmod(int(np.argmax(grid.T)), len(shares_grid))
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
    call makes 6-49 `_rates` calls and takes 0.4-26 ms at any d (2-core x86 VM).
    """
    budget = FiniteKeyBudget(n_signals, eps, eps_ec)
    nominal = depolarizing_vector(spec.dim, q)
    mode = FluxMode(mode)

    block = functools.partial(_floored_rates, spec, nominal, budget, mode)  # probes p01 in [1e-4, 1 - 1e-4]

    def refine_p01(shares: tuple[float, float, float], center: float) -> tuple[float, float]:
        lo = max(center - 0.01, 1e-4)
        hi = min(center + 0.01, 1.0 - 1e-4)
        return _golden_max(lambda p01s: block([shares], p01s)[0], lo, hi)

    best_shares, p01, r_n = _coarse_winner(spec, nominal, budget, mode)
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
    return r_finite(spec, q, budget, FreeParams(p01, *_share_split(spec, budget, [best_shares])[0].tolist()), mode)
