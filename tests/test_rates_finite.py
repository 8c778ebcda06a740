import itertools
import math
import sys

import numpy as np
import pytest

from oracles import shift_one

import quditkd.rates_finite as rates_finite
from quditkd.errors import DegenerateSample, InfeasibleParams, OutOfRange
from quditkd.info_theory import depolarizing_vector, shannon_entropy
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_asymptotic import r_infinity
from quditkd.rates_finite import (
    FiniteKeyBudget,
    FluxMode,
    FreeParams,
    optimize_r_finite,
    r_finite,
    worst_case_vector,
    xi,
)


def _q(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def test_xi_frozen_value():
    assert xi(10**4, 2, 1e-7) == pytest.approx(0.08311314743758817, rel=1e-14)


def test_xi_monotone_and_vanishing():
    values = [xi(m, 3, 1e-6) for m in (10, 10**2, 10**4, 10**6, 10**9)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3
    assert xi(10**4, 4, 1e-7) > xi(10**4, 2, 1e-7)


def test_xi_rejects_bad_inputs():
    with pytest.raises(DegenerateSample):
        xi(0, 2, 1e-6)
    with pytest.raises(OutOfRange):
        xi(100, 2, 0.0)
    with pytest.raises(OutOfRange):
        xi(100, 2, 1.5)


def test_xi_scales_like_sqrt_d():
    # the d-dependence enters through 2 d ln(m+1), so xi/sqrt(d) is nearly
    # flat across dimensions at fixed sample size
    m, eps_pe = 10**5, 1e-6
    ratios = [xi(m, d, eps_pe) / math.sqrt(d) for d in range(2, 21)]
    assert (max(ratios) - min(ratios)) / min(ratios) < 0.25


def test_worst_case_vector_examples():
    assert np.allclose(shift_one(_q([0.95, 0.05]), 0.0), [0.95, 0.05])
    assert np.allclose(shift_one(_q([0.95, 0.05]), 0.02), [0.94, 0.06])
    got = shift_one(_q([0.94, 0.03, 0.03]), 0.04)
    assert np.allclose(got, [0.92, 0.04, 0.04])
    brute = shift_one(_q([0.94, 0.03, 0.03]), 0.04, FluxMode.BRUTE)
    assert np.allclose(brute, [0.90, 0.05, 0.05])


def test_worst_case_vector_saturates():
    assert shift_one(_q([0.2, 0.8]), 0.41) is None
    assert shift_one(_q([0.9, 0.05, 0.05]), 1.25, FluxMode.BRUTE) is None


def test_worst_case_vector_stops_at_entropy_peak():
    # a large but not saturating shift must stop where both outcomes equalize,
    # not sail past it into a *less* random-looking vector
    got = shift_one(_q([0.95, 0.05]), 1.2)
    assert np.allclose(got, [0.5, 0.5])
    # entropy of the worst case is nondecreasing in xi all the way up
    previous = 0.0
    for xi_val in np.linspace(0.0, 1.8, 50):
        h = shannon_entropy(shift_one(_q([0.95, 0.05]), float(xi_val)))
        assert h >= previous - 1e-12
        previous = h


def test_worst_case_vector_validates_arguments():
    with pytest.raises(OutOfRange):
        worst_case_vector(_q([0.9, 0.1]), -0.1)
    with pytest.raises(OutOfRange):
        worst_case_vector(_q([0.9, 0.1]), float("nan"))
    with pytest.raises(OutOfRange):
        worst_case_vector(_q([0.2, 0.8]), 0.41)
    assert np.array_equal(worst_case_vector(_q([0.94, 0.03, 0.03]), 0.04), shift_one(_q([0.94, 0.03, 0.03]), 0.04))


@pytest.mark.parametrize("field", range(4))
def test_free_params_and_budget_reject_nan(field):
    params = [0.8, 1e-6, 1e-6, 1e-6]
    params[field] = float("nan")
    with pytest.raises(OutOfRange):
        FreeParams(*params)
    budget = [10**6, 1e-5, 1e-10]
    if field < len(budget):
        budget[field] = float("nan")
        with pytest.raises(OutOfRange):
            FiniteKeyBudget(*budget)


@pytest.mark.parametrize("n_signals", (1000.5, 1e3))
def test_budget_refuses_a_non_integer_signal_count(n_signals):
    # a float count is refused whatever its value, as SimConfig refuses float rounds
    with pytest.raises(OutOfRange, match="n_signals must be an integer"):
        FiniteKeyBudget(n_signals, 1e-5, 1e-10)
    with pytest.raises(OutOfRange, match="n_signals must be an integer"):
        optimize_r_finite(ProtocolSpec(Family.TWO_BASIS, 2), 0.05, n_signals, 1e-5, 1e-10)
    assert FiniteKeyBudget(np.int64(1000), 1e-5, 1e-10).n_signals == 1000


def test_budget_feasibility_enforced():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    budget = FiniteKeyBudget(10**6, 1e-5, 1e-10)
    bad = FreeParams(p01=0.8, eps_pa=5e-6, eps_pe=2e-6, eps_bar=2e-6)  # sums past eps
    with pytest.raises(InfeasibleParams) as raised:
        r_finite(spec, 0.05, budget, bad)
    assert str(raised.value) == "failure budget 1.10001e-05 exceeds eps=1e-05 (n_PE=2)"
    with pytest.raises(OutOfRange):
        FiniteKeyBudget(10**6, 1e-5, 2e-5)  # eps_EC above eps
    with pytest.raises(OutOfRange):
        FiniteKeyBudget(10**309, 1e-5, 1e-10)  # above the float range


def _assert_terms_finite_and_rebuild_r_n(rep, budget, d):
    t = rep.terms
    assert rep.r_n > 0 and all(math.isfinite(value) for value in t.values())
    rebuilt = (rep.n / budget.n_signals) * (
        math.log2(d) - t["holevo_worst"] - t["h_ab"] - t["ec_term"] - t["pa_term"] - t["smooth_term"]
    )
    assert rep.r_n == pytest.approx(rebuilt, abs=1e-12)


@pytest.mark.parametrize("family, d", ((Family.TWO_BASIS, 2), (Family.DPLUS1, 3), (Family.DPLUS1, 31)))
def test_the_budget_terms_are_finite_at_the_smallest_float(family, d):
    # log2(2/x) is taken as 1 - log2 x, so eps_EC at 5e-324 still gives an
    # ec_term that, with the others, rebuilds r_N
    budget = FiniteKeyBudget(10**8, 1e-5, 5e-324)
    rep = r_finite(ProtocolSpec(family, d), 0.05, budget, FreeParams(0.95, 1e-7, 1e-7, 1e-7))
    _assert_terms_finite_and_rebuild_r_n(rep, budget, d)
    assert rep.terms["ec_term"] == 1075.0 / rep.n
    # one refusal is left: eps - eps_EC of at least the least normal float,
    # below which the optimizer's smallest shares round to 0
    tiny = sys.float_info.min
    assert (tiny + 5e-324) - 5e-324 == tiny and tiny - 5e-324 == math.nextafter(tiny, 0.0)
    assert FiniteKeyBudget(10**8, tiny + 5e-324, 5e-324).eps_ec == 5e-324
    with pytest.raises(OutOfRange, match="eps - eps_EC"):
        FiniteKeyBudget(10**8, tiny, 5e-324)


@pytest.mark.parametrize("family, d", ((Family.TWO_BASIS, 2), (Family.DPLUS1, 3)))
def test_the_free_params_terms_are_finite_at_the_smallest_float(family, d):
    # 2 log2(1/x) is taken as -2 log2 x and log2(2/x) as 1 - log2 x, so
    # eps_PA and eps_bar at 5e-324 still give terms that rebuild r_N
    budget = FiniteKeyBudget(10**8, 1e-5, 1e-10)
    rep = r_finite(ProtocolSpec(family, d), 0.05, budget, FreeParams(0.95, 5e-324, 1e-7, 5e-324))
    _assert_terms_finite_and_rebuild_r_n(rep, budget, d)
    assert rep.terms["pa_term"] == 2148.0 / rep.n


@pytest.mark.parametrize(
    "family, dims", ((Family.TWO_BASIS, (2, 3, 32)), (Family.DPLUS1, (2, 3, 31))), ids=("two-basis", "dplus1")
)
def test_the_optimizer_keeps_every_term_finite_at_the_smallest_budgets(monkeypatch, family, dims):
    # every block the optimizer evaluates, the descent's rescaled shares
    # included, has finite terms and rates, at eps - eps_EC = the least normal
    # float and at eps_EC = 5e-324
    tiny = sys.float_info.min
    rates = rates_finite._rates
    blocks = 0

    def checked(*args):
        nonlocal blocks
        blocks += 1
        out = rates(*args)
        assert np.isfinite(out[0]).all() and all(np.isfinite(v).all() for v in out[1].values()), args[2:4]
        return out

    monkeypatch.setattr(rates_finite, "_rates", checked)
    for d, mode, n_signals, (eps, eps_ec) in itertools.product(
        dims, FluxMode, (10**3, 10**8, int(sys.float_info.max)), ((2 * tiny, tiny), (1e-5, 5e-324))
    ):
        rep = optimize_r_finite(ProtocolSpec(family, d), 0.05, n_signals, eps, eps_ec, mode)
        assert math.isfinite(rep.r_n) and all(math.isfinite(value) for value in rep.terms.values())
    assert blocks > 54  # each optimizer call went through the check


def test_budget_charges_eps_pe_once_per_basis_of_the_spec():
    # 1e-10 + 1e-6 + 6 * 4e-6 + 1e-6 = 2.6e-5 > eps: the six dplus1 bases
    # each spend eps_PE, although one basis alone would fit in eps
    spec = ProtocolSpec(Family.DPLUS1, 5)
    with pytest.raises(InfeasibleParams):
        r_finite(spec, 0.05, FiniteKeyBudget(10**7, 1e-5, 1e-10), FreeParams(0.9, 1e-6, 4e-6, 1e-6))


def test_r_finite_fixed_params_pin():
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    budget = FiniteKeyBudget(10**6, 1e-5, 1e-10)
    params = FreeParams(p01=0.8, eps_pa=1e-6, eps_pe=1e-6, eps_bar=1e-6)
    rep = r_finite(spec, 0.05, budget, params)
    assert rep.r_n == pytest.approx(0.4858000064054474, rel=1e-12)
    assert rep.n == 640000 and rep.m_per_basis == (640000, 39999)


def test_r_finite_term_reconstruction():
    for family, d in ((Family.TWO_BASIS, 2), (Family.TWO_BASIS, 5), (Family.DPLUS1, 5)):
        spec = ProtocolSpec(family, d)
        budget = FiniteKeyBudget(10**7, 1e-5, 1e-10)
        params = FreeParams(p01=0.85, eps_pa=1e-6, eps_pe=1e-7, eps_bar=1e-6)
        rep = r_finite(spec, 0.05, budget, params)
        assert rep.r_n > 0
        t = rep.terms
        rebuilt = (rep.n / budget.n_signals) * (
            math.log2(d) - t["holevo_worst"] - t["h_ab"] - t["ec_term"] - t["pa_term"] - t["smooth_term"]
        )
        assert rep.r_n == pytest.approx(rebuilt, abs=1e-12)


def test_smooth_coefficient_is_2log2d_plus_3():
    for d, expect in ((2, 5.0), (5, 2 * math.log2(5) + 3)):
        spec = ProtocolSpec(Family.TWO_BASIS, d)
        budget = FiniteKeyBudget(10**8, 1e-5, 1e-10)
        rep = r_finite(spec, 0.05, budget, FreeParams(0.9, 1e-6, 1e-6, 1e-6))
        assert rep.terms["smooth_coefficient"] == pytest.approx(expect, abs=1e-12)


def test_degenerate_sampling_reports_zero():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    budget = FiniteKeyBudget(1000, 1e-5, 1e-10)
    rep = r_finite(spec, 0.05, budget, FreeParams(0.01, 1e-6, 1e-6, 1e-6))
    assert rep.r_n == 0.0 and rep.degenerate and not rep.terms


def test_saturated_statistics_reports_zero():
    # tiny check-basis sample at high dimension: the fluctuation radius
    # exceeds the whole no-error weight
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    budget = FiniteKeyBudget(100, 1e-2, 1e-4)
    rep = r_finite(spec, 0.4, budget, FreeParams(0.8, 1e-3, 1e-3, 1e-3))
    assert rep.r_n == 0.0 and rep.saturated


def test_large_n_fixed_params_approach_scaled_asymptote():
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    p01 = 0.9
    budget = FiniteKeyBudget(10**12, 1e-5, 1e-10)
    rep = r_finite(spec, 0.05, budget, FreeParams(p01, 1e-6, 1e-6, 1e-6))
    target = p01**2 * r_infinity(spec, 0.05).r_inf
    assert rep.r_n == pytest.approx(target, rel=2e-2)


def test_optimizer_pins_and_determinism():
    spec = ProtocolSpec(Family.TWO_BASIS, 2)
    first = optimize_r_finite(spec, 0.05, 10**7, 1e-5, 1e-10)
    again = optimize_r_finite(spec, 0.05, 10**7, 1e-5, 1e-10)
    assert first == again
    assert first.r_n == pytest.approx(0.29919726292506305, rel=1e-12)
    assert first.params.p01 == pytest.approx(0.921989736075898, abs=1e-9)

    dp5 = optimize_r_finite(ProtocolSpec(Family.DPLUS1, 5), 0.05, 10**7, 1e-5, 1e-10)
    assert dp5.r_n == pytest.approx(0.9721283173036199, rel=1e-12)


def test_optimizer_budget_nearly_exhausted():
    spec = ProtocolSpec(Family.DPLUS1, 3)
    rep = optimize_r_finite(spec, 0.05, 10**6, 1e-5, 1e-10)
    used = 1e-10 + rep.params.eps_pa + spec.n_bases * rep.params.eps_pe + rep.params.eps_bar
    assert used <= 1e-5 * (1 + 1e-12)
    assert 1e-5 - used < 0.01 * 1e-5


def test_optimizer_zero_at_small_n():
    for family in (Family.TWO_BASIS, Family.DPLUS1):
        assert optimize_r_finite(ProtocolSpec(family, 3), 0.05, 10**3, 1e-5, 1e-10).r_n == 0.0


def test_optimized_rate_monotone_in_n():
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    rates = [
        optimize_r_finite(spec, 0.05, n, 1e-5, 1e-10).r_n
        for n in (10**3, 10**4, 10**5, 10**6, 10**8, 10**10)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= r_infinity(spec, 0.05).r_inf + 1e-9


def test_flux_mode_ordering_spot_check():
    spec = ProtocolSpec(Family.TWO_BASIS, 3)
    kw = dict(q=0.05, n_signals=10**5, eps=1e-5, eps_ec=1e-10)
    brute = optimize_r_finite(spec, mode=FluxMode.BRUTE, **kw).r_n
    equal = optimize_r_finite(spec, mode=FluxMode.EQUAL, **kw).r_n
    single = optimize_r_finite(spec, mode=FluxMode.SINGLE, **kw).r_n
    assert brute <= equal <= single
    assert 0 < brute and single < math.log2(3)


def test_dplus1_single_mode_can_saturate_reconstruction():
    # concentrated shifts on every basis are jointly infeasible at small m;
    # the optimizer then reports no certifiable key
    rep = optimize_r_finite(ProtocolSpec(Family.DPLUS1, 5), 0.05, 10**5, 1e-5, 1e-10,
                            mode=FluxMode.SINGLE)
    assert rep.r_n == 0.0


def test_a_family_or_flux_mode_given_as_its_value_is_that_member():
    budget = FiniteKeyBudget(10**7, 1e-5, 1e-10)
    params = FreeParams(0.7, 1e-6, 1e-7, 1e-6)
    for family, mode in itertools.product(Family, FluxMode):
        by_member, by_value = ProtocolSpec(family, 5), ProtocolSpec(family.value, 5)
        assert by_value == by_member and by_value.family is family
        assert repr(r_infinity(by_value, 0.05)) == repr(r_infinity(by_member, 0.05))
        assert repr(r_finite(by_value, 0.05, budget, params, mode.value)) == repr(
            r_finite(by_member, 0.05, budget, params, mode)
        )
        assert repr(optimize_r_finite(by_value, 0.05, 10**7, 1e-5, 1e-10, mode.value)) == repr(
            optimize_r_finite(by_member, 0.05, 10**7, 1e-5, 1e-10, mode)
        )
        nominal = depolarizing_vector(by_member.dim, 0.05)
        assert worst_case_vector(nominal, 0.02, mode.value).tolist() == worst_case_vector(nominal, 0.02, mode).tolist()
    # a two-basis spec keeps two bases at a prime or a composite d
    assert ProtocolSpec("two-basis", 5).n_bases == ProtocolSpec("two-basis", 4).n_bases == 2


def test_an_unknown_family_or_flux_mode_raises():
    with pytest.raises(ValueError, match="not a valid Family"):
        ProtocolSpec("bogus", 4)
    spec = ProtocolSpec(Family.TWO_BASIS, 5)
    with pytest.raises(ValueError, match="not a valid FluxMode"):
        r_finite(spec, 0.05, FiniteKeyBudget(10**7, 1e-5, 1e-10), FreeParams(0.7, 1e-6, 1e-7, 1e-6), "nonsense")
    with pytest.raises(ValueError, match="not a valid FluxMode"):
        optimize_r_finite(spec, 0.05, 10**7, 1e-5, 1e-10, mode="nonsense")
    with pytest.raises(ValueError, match="not a valid FluxMode"):
        worst_case_vector(depolarizing_vector(spec.dim, 0.05), 0.02, "nonsense")
