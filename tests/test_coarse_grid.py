"""The finite-key optimizer's array passes: the coarse grid and the refine
phases' blocks.

`_rates` on the 61 x 99 grid must give every cell exactly the r_N and worst-
case I_E of the per-basis reference `oracles.r_finite_reference`, which never
goes through `_rates`, and `optimize_r_finite` must keep returning the
reports it returned when the coarse pass was a loop of scalar calls (the
pins below were recorded then) and the reports of `oracles.optimize_reference`,
whose refine phases probe one point at a time, so every comparison here is
`==`.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from oracles import golden_max_reference, optimize_reference, r_finite_reference, shift_one

import quditkd.rates_finite as rates_finite
from quditkd.channels import lambda_entries_from_q
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_asymptotic import CLAMP_MASS_TOL, adversary_information_rows
from quditkd.rates_finite import (
    FiniteKeyBudget,
    FiniteRateReport,
    FluxMode,
    FreeParams,
    optimize_r_finite,
    r_finite,
    xi,
)

TWO_BASIS, DPLUS1 = Family.TWO_BASIS, Family.DPLUS1
EQUAL, SINGLE, BRUTE = FluxMode.EQUAL, FluxMode.SINGLE, FluxMode.BRUTE

# together these cover both families, every mode, d in {2, 3, 5, 11} and N
# in {1e3, 1e5, 1e7, 1e12}, with degenerate and saturated cells; the
# dplus1 single-mode row holds cells whose spectrum is clipped without
# saturating
GRID_CONFIGS = (
    (TWO_BASIS, EQUAL, 2, 10**3),
    (TWO_BASIS, BRUTE, 11, 10**5),
    (DPLUS1, EQUAL, 3, 10**12),
    (DPLUS1, BRUTE, 5, 10**7),
    (DPLUS1, SINGLE, 11, 10**7),
)


def _clipped(spec, nominal, sizes, eps_pe, mode):
    """Whether a cell's reconstructed spectrum has negative weight below the clamp tolerance."""
    d = spec.dim.d
    check = shift_one(nominal, xi(sizes[1], d, eps_pe), mode)
    key = shift_one(nominal, xi(sizes[0], d, eps_pe), mode)
    lam = lambda_entries_from_q(key[None], np.broadcast_to(check, (d, d))[None])
    return 0.0 < -lam[lam < 0.0].sum() <= CLAMP_MASS_TOL


@pytest.mark.parametrize("family, mode, d, n_signals", GRID_CONFIGS)
def test_coarse_grid_equals_scalar_r_finite(family, mode, d, n_signals):
    spec = ProtocolSpec(family, d)
    budget = FiniteKeyBudget(n_signals, 1e-5, 1e-10)
    per_share = rates_finite._share_params(spec, budget, rates_finite._share_grid())
    raw, terms, sizes, degenerate, saturated = rates_finite._rates(
        spec, 0.05, budget, per_share, rates_finite._P01_GRID, mode
    )
    grid = np.maximum(raw, 0.0)
    nominal = depolarizing_vector(spec.dim, 0.05)
    clipping = (family, mode, d, n_signals) == (DPLUS1, SINGLE, 11, 10**7)
    seen = {"positive": 0, "clipped": 0}
    for i, shares in enumerate(rates_finite._share_grid()):
        for j, p01 in enumerate(rates_finite._P01_GRID):
            params = rates_finite._params_from_shares(spec, budget, p01, shares)
            no_rate = degenerate[j] or saturated[i, j]
            cell = (grid[i, j], None if no_rate else terms["holevo_worst"][i, j])
            assert cell == r_finite_reference(spec, 0.05, budget, params, mode), (shares, p01)
            seen["positive"] += grid[i, j] > 0.0
            if clipping and not no_rate:
                seen["clipped"] += _clipped(spec, nominal, sizes[j][1], params.eps_pe, mode)
    assert grid.shape == (61, 99)
    assert seen["clipped"] > 0 or not clipping
    if n_signals <= 10**5:
        assert saturated.any()
    if n_signals == 10**3:
        assert degenerate.any() and seen["positive"] == 0
    else:
        assert seen["positive"] > 0


def test_saturated_rows_are_masked_not_raised():
    # row 1 saturates in the reconstruction (a large key shift against a
    # small check shift), row 2 in the check shift, row 3 past xi = 4;
    # each row agrees with the kernels run on that row alone
    spec = ProtocolSpec(DPLUS1, 3)
    nominal = depolarizing_vector(spec.dim, 0.05)
    xi_key = np.array([1e-3, 0.2, 1e-3, 1.7e308])
    xi_check = np.array([1e-3, 1e-3, 2.0, 1e-3])
    info, saturated = rates_finite._worst_case_holevo_rows(spec, nominal, xi_key, xi_check, EQUAL)
    assert saturated.tolist() == [False, True, True, True]
    for row in range(4):
        check = shift_one(nominal, xi_check[row])
        key = shift_one(nominal, xi_key[row])
        expected = None
        if check is not None and key is not None:
            one_info, one_sat = adversary_information_rows(spec, np.vstack([key] + [check] * 3)[None])
            expected = None if one_sat[0] else one_info[0]
        assert (None if saturated[row] else info[row]) == expected


# optimize_r_finite reports recorded while the coarse pass was a loop of
# scalar r_finite calls: ((family, mode, d, N, Q), report)
OPTIMIZE_PINS = (
    ((TWO_BASIS, EQUAL, 2, 1000, 0.05), FiniteRateReport(r_n=0.0, n=0, m_per_basis=(0, 999), params=FreeParams(p01=0.0001, eps_pa=4.99920004499775e-10, eps_pe=2.4996000224988753e-06, eps_bar=4.999200044997751e-06), terms={}, saturated=False, degenerate=True)),
    ((TWO_BASIS, EQUAL, 3, 100000, 0.05), FiniteRateReport(r_n=0.31893011264709337, n=65567, m_per_basis=(65567, 3620), params=FreeParams(p01=0.8097368876500716, eps_pa=6.210496900621119e-08, eps_pe=2.4841987602484475e-06, eps_bar=4.968397520496895e-06), terms={'holevo_worst': 0.6569235638619962, 'h_ab': 0.3363969571159562, 'ec_term': 0.0005218979204306073, 'pa_term': 0.0007302672398094168, 'smooth_term': 0.10397117007110045, 'smooth_coefficient': 6.169925001442312}, saturated=False, degenerate=False)),
    ((TWO_BASIS, SINGLE, 5, 10000000, 0.05), FiniteRateReport(r_n=1.226390563572889, n=9044277, m_per_basis=(9044277, 23996), params=FreeParams(p01=0.9510140618252039, eps_pa=1.9041896800609405e-09, eps_pe=3.808379360121881e-06, eps_bar=2.380237100076176e-06), terms={'holevo_worst': 0.5682600688644521, 'h_ab': 0.38639695711595623, 'ec_term': 3.783528627979177e-06, 'pa_term': 6.40585768403724e-06, 'smooth_term': 0.01127569289611764, 'smooth_coefficient': 7.643856189774724}, saturated=False, degenerate=False)),
    ((TWO_BASIS, BRUTE, 11, 1000000000000, 0.05), FiniteRateReport(r_n=2.4301128459683534, n=976117371780, m_per_basis=(976117371780, 144323603), params=FreeParams(p01=0.9879865240886586, eps_pa=2.4749691238388022e-11, eps_pe=4.9499382476776045e-06, eps_bar=9.89987649535521e-08), terms={'holevo_worst': 0.5173184710905093, 'h_ab': 0.4524933618603243, 'ec_term': 3.5056522850805345e-11, 'pa_term': 7.219172516592663e-11, 'smooth_term': 4.945702649479603e-05, 'smooth_coefficient': 9.918863237274595}, saturated=False, degenerate=False)),
    ((TWO_BASIS, BRUTE, 6, 1000000000, 0.05), FiniteRateReport(r_n=1.4815774183695716, n=916271902, m_per_basis=(916271902, 1830049), params=FreeParams(p01=0.9572209268743165, eps_pa=5.951690769697799e-11, eps_pe=4.761352615758239e-06, eps_bar=4.76135261575824e-07), terms={'holevo_worst': 0.5642403909058021, 'h_ab': 0.40249336186032425, 'ec_term': 3.73462079042053e-08, 'pa_term': 7.414373266040231e-08, 'smooth_term': 0.001266013104439958, 'smooth_coefficient': 8.169925001442312}, saturated=False, degenerate=False)),
    ((TWO_BASIS, SINGLE, 4, 1000000, 0.1), FiniteRateReport(r_n=0.41831676979898047, n=785158, m_per_basis=(785158, 12975), params=FreeParams(p01=0.8860917023255825, eps_pa=1.420046157997515e-08, eps_pe=2.773527652338896e-06, eps_bar=4.437644243742233e-06), terms={'holevo_worst': 0.8053814191979736, 'h_ab': 0.6274918436613969, 'ec_term': 4.3582668646149724e-05, 'pa_term': 6.640570925703349e-05, 'smooth_term': 0.03423637869838209, 'smooth_coefficient': 7.0}, saturated=False, degenerate=False)),
    ((DPLUS1, EQUAL, 3, 100000, 0.05), FiniteRateReport(r_n=0.16354296376105323, n=45220, m_per_basis=(45220, 1192, 1192, 1192), params=FreeParams(p01=0.6724611797498107, eps_pa=5.524254149171271e-08, eps_pe=1.3810635372928176e-06, eps_bar=4.419403319337016e-06), terms={'holevo_worst': 0.7593191687596087, 'h_ab': 0.3363969571159562, 'ec_term': 0.0007567289020095892, 'pa_term': 0.0010663266282733572, 'smooth_term': 0.1257626298835231, 'smooth_coefficient': 6.169925001442312}, saturated=False, degenerate=False)),
    ((DPLUS1, SINGLE, 5, 1000000000000, 0.05), FiniteRateReport(r_n=1.660589841179505, n=983899921503, m_per_basis=(983899921503, 2613204, 2613204, 2613204, 2613204, 2613204), params=FreeParams(p01=0.9919172956971263, eps_pa=1.2420839505099317e-10, eps_pe=1.6561119340132419e-06, eps_bar=6.210419752549657e-08), terms={'holevo_worst': 0.2477296953787902, 'h_ab': 0.38639695711595623, 'ec_term': 3.4779229270188824e-11, 'pa_term': 6.688997029749226e-11, 'smooth_term': 3.8485014969323844e-05, 'smooth_coefficient': 7.643856189774724}, saturated=False, degenerate=False)),
    ((DPLUS1, BRUTE, 11, 10000000, 0.05), FiniteRateReport(r_n=0.05708017713135668, n=1308792, m_per_basis=(1308792, 33664, 33664, 33664, 33664, 33664, 33664, 33664, 33664, 33664, 33664, 33664), params=FreeParams(p01=0.361772342674838, eps_pa=1.999380125974805e-09, eps_pe=6.664600419916017e-07, eps_bar=1.999380125974805e-06), terms={'holevo_worst': 2.5320311074040527, 'h_ab': 0.4524933618603243, 'ec_term': 2.6145698437088266e-05, 'pa_term': 4.4159499856180314e-05, 'smooth_term': 0.03870813058716109, 'smooth_coefficient': 9.918863237274595}, saturated=False, degenerate=False)),
    ((DPLUS1, EQUAL, 11, 1000000000000, 0.05), FiniteRateReport(r_n=2.6283038594467873, n=974415112419, m_per_basis=(974415112419, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034, 1370034), params=FreeParams(p01=0.9871246691371035, eps_pa=1.5526218142518413e-11, eps_pe=8.28064967600982e-07, eps_bar=6.210487257007365e-08), terms={'holevo_worst': 0.30957373138207334, 'h_ab': 0.4524933618603243, 'ec_term': 3.511776501898021e-11, 'pa_term': 7.369857491644117e-11, 'smooth_term': 5.0181585087193775e-05, 'smooth_coefficient': 9.918863237274595}, saturated=False, degenerate=False)),
    ((DPLUS1, SINGLE, 11, 10000000, 0.05), FiniteRateReport(r_n=1.7716607446251564, n=9610197, m_per_basis=(9610197, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32), params=FreeParams(p01=0.9803161626731557, eps_pa=7.91365256034824e-09, eps_pe=8.243388083696083e-09, eps_bar=9.892065700435299e-06), terms={'holevo_worst': 1.1499745981681928, 'h_ab': 0.4524933618603243, 'ec_term': 3.560726273235983e-06, 'pa_term': 5.600927666128421e-06, 'smooth_term': 0.013432720423978715, 'smooth_coefficient': 9.918863237274595}, saturated=False, degenerate=False)),
    ((DPLUS1, BRUTE, 2, 100000, 0.05), FiniteRateReport(r_n=0.054797180548873656, n=40382, m_per_basis=(40382, 3322, 3322), params=FreeParams(p01=0.6354723090252713, eps_pa=1.0987802208791208e-07, eps_pe=1.4650402945054944e-06, eps_bar=5.493901104395604e-06), terms={'holevo_worst': 0.468970388842535, 'h_ab': 0.28639695711595625, 'ec_term': 0.0008473894544320148, 'pa_term': 0.0011449454617590063, 'smooth_term': 0.10694327452902821, 'smooth_coefficient': 5.0}, saturated=False, degenerate=False)),
    ((DPLUS1, EQUAL, 7, 1000000000, 0.0), FiniteRateReport(r_n=2.2941489367635737, n=914509754, m_per_basis=(914509754, 38973, 38973, 38973, 38973, 38973, 38973, 38973), params=FreeParams(p01=0.9563000336495667, eps_pa=2.4381614264813463e-09, eps_pe=1.219080713240673e-06, eps_bar=2.438161426481346e-07), terms={'holevo_worst': 0.2973789128196052, 'h_ab': 0.0, 'ec_term': 3.741816946096086e-08, 'pa_term': 6.257245279530308e-08, 'smooth_term': 0.0013652282468390332, 'smooth_coefficient': 8.614709844115207}, saturated=False, degenerate=False)),
)


@pytest.mark.parametrize("config, expected", OPTIMIZE_PINS)
def test_optimize_report_pins(config, expected):
    family, mode, d, n_signals, q = config
    assert optimize_r_finite(ProtocolSpec(family, d), q, n_signals, 1e-5, 1e-10, mode) == expected


@pytest.mark.parametrize(
    "family, d, n_signals", ((DPLUS1, 5, 10**7), (TWO_BASIS, 2, 10**3), (TWO_BASIS, 11, 10**12))
)
def test_optimize_builds_one_report(monkeypatch, family, d, n_signals):
    # the search runs on `_rates` values; only the winner becomes a report
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return r_finite(*args, **kwargs)

    monkeypatch.setattr(rates_finite, "r_finite", counting)
    report = optimize_r_finite(ProtocolSpec(family, d), 0.05, n_signals, 1e-5, 1e-10)
    assert len(calls) == 1 and calls[0][3] == report.params


def test_optimize_evaluates_in_few_rates_blocks(monkeypatch):
    # one block per golden-section stretch of _GOLDEN_DEPTH iterations and
    # per descent sweep (rebuilt after an accepted improvement); probing one
    # point at a time took 72 calls here
    calls = []
    rates = rates_finite._rates

    def counting(*args, **kwargs):
        calls.append(args)
        return rates(*args, **kwargs)

    monkeypatch.setattr(rates_finite, "_rates", counting)
    optimize_r_finite(ProtocolSpec(DPLUS1, 5), 0.05, 10**7, 1e-5, 1e-10)
    assert 0 < len(calls) <= 25


@pytest.mark.parametrize("d", (2, 5, 11, 31))
@pytest.mark.parametrize("n_signals", (10**3, 10**7, 10**12))
def test_xi_table_equals_scalar_xi_on_the_coarse_grid(d, n_signals):
    for family in (TWO_BASIS, DPLUS1):
        spec = ProtocolSpec(family, d)
        budget = FiniteKeyBudget(n_signals, 1e-5, 1e-10)
        eps_pe = [p.eps_pe for p in rates_finite._share_params(spec, budget, rates_finite._share_grid())]
        # every sample size the grid evaluates, a degenerate one as one sample
        sizes = [rates_finite._sample_sizes(spec, n_signals, p01) for p01 in rates_finite._P01_GRID]
        ms = sorted({max(m, 1) for _, per_basis in sizes for m in per_basis})
        table = rates_finite._xi_table(d, eps_pe, ms)
        assert table.shape == (len(eps_pe), len(ms))
        for i, e in enumerate(eps_pe):
            assert table[i].tolist() == [xi(m, d, e) for m in ms], (family, e)


def _plateaus(x):
    return float(math.floor(x * 250.0))


def _bump_of_plateaus(x):
    return -float(math.floor(abs(x - 0.985) * 500.0))


def _wavy(x):
    return math.sin(x * 3000.0) + 0.1 * x


# the refine intervals at both clipped ends of p01, an inner one, and one
# already narrower than the tolerance
@pytest.mark.parametrize("lo, hi", ((1e-4, 0.02), (0.98, 1.0 - 1e-4), (0.49, 0.51), (0.5, 0.50005)))
@pytest.mark.parametrize(
    "f", (lambda x: 0.0, _plateaus, _bump_of_plateaus, _wavy), ids=("zeros", "plateaus", "bump", "wavy")
)
def test_golden_blocks_walk_the_sequential_search(f, lo, hi):
    probes, blocks = [], []

    def scalar(x):
        probes.append(x)
        return f(x)

    def block(points):
        blocks.append(points)
        return [f(x) for x in points]

    tol = rates_finite._P01_TOL
    assert rates_finite._golden_max(block, lo, hi, tol) == golden_max_reference(scalar, lo, hi, tol)
    evaluated = [x for points in blocks for x in points]
    assert set(probes) <= set(evaluated) and len(set(evaluated)) == len(evaluated)
    iterations = len(probes) - 4
    assert len(blocks) == max(1, math.ceil(iterations / rates_finite._GOLDEN_DEPTH))


def _reference_configs():
    # seeded draws over both families, every mode, d, Q and N, plus winners
    # that are degenerate (N = 1e3), saturated (dplus1 single at Q = 0) and
    # clipped at the top of p01
    rng = random.Random(2010)
    configs = [
        (TWO_BASIS, EQUAL, 3, 0.05, 10**3),
        (DPLUS1, SINGLE, 5, 0.0, 10**11),
        (DPLUS1, SINGLE, 7, 0.0, 10**8),
        (TWO_BASIS, BRUTE, 2, 0.0, 10**13),
    ]
    for i in range(20):
        family = (TWO_BASIS, DPLUS1)[i % 2]
        mode = (EQUAL, SINGLE, BRUTE)[i // 2 % 3]
        configs.append((family, mode, rng.choice((2, 3, 5, 7, 11)), rng.choice((0.0, 0.05, 0.1)),
                        int(10 ** rng.uniform(3, 13))))
    return configs


def test_optimize_equals_the_one_probe_at_a_time_search():
    seen = {"positive": 0, "degenerate": 0, "saturated": 0}
    for family, mode, d, q, n_signals in _reference_configs():
        args = (ProtocolSpec(family, d), q, n_signals, 1e-5, 1e-10, mode)
        report = optimize_r_finite(*args)
        assert report == optimize_reference(*args), (family, mode, d, q, n_signals)
        seen["positive"] += report.r_n > 0.0
        seen["degenerate"] += report.degenerate
        seen["saturated"] += report.saturated
    assert all(count > 0 for count in seen.values()), seen


def test_coarse_pass_memory_is_bounded_at_the_largest_dimension():
    # the worst-case rows run in fixed-size chunks; unchunked, the 6,039
    # cells at d = 31 would hold hundreds of MB of temporaries at once
    spec = ProtocolSpec(DPLUS1, 31)
    budget = FiniteKeyBudget(10**12, 1e-5, 1e-10)
    tracemalloc.start()
    try:
        per_share = rates_finite._share_params(spec, budget, rates_finite._share_grid())
        raw = rates_finite._rates(spec, 0.05, budget, per_share, rates_finite._P01_GRID, EQUAL)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(raw > 0.0)
    assert peak <= 32 * 2**20
