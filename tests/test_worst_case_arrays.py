"""Array path of the finite-key adversary bound.

The pins below were recorded before the worst-case statistics moved from
per-basis labelled wrappers to plain arrays; the array path must reproduce
them exactly, so the comparisons are `==`, not approximate.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import r_finite_reference, shift_one

import quditkd.rates_finite as rates_finite
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_finite import FiniteKeyBudget, FluxMode, FreeParams, r_finite, xi

TWO_BASIS, DPLUS1 = Family.TWO_BASIS, Family.DPLUS1
EQUAL, SINGLE, BRUTE = FluxMode.EQUAL, FluxMode.SINGLE, FluxMode.BRUTE
PARAMS = FreeParams(0.85, 1e-6, 1e-7, 1e-6)

# family, mode, d, N, r_n, terms["holevo_worst"] (None when saturated), saturated
R_FINITE_PINS = (
    (TWO_BASIS, EQUAL, 3, 10**5, 0.29331005725686315, 0.7365571628509764, False),
    (TWO_BASIS, EQUAL, 3, 10**7, 0.6114774878225899, 0.3917179125600545, False),
    (TWO_BASIS, EQUAL, 3, 10**10, 0.6572680264641376, 0.33851990728824927, False),
    (TWO_BASIS, EQUAL, 5, 10**5, 0.6133466631859384, 0.9554779138786089, False),
    (TWO_BASIS, EQUAL, 5, 10**7, 1.0522668523390124, 0.466085660580549, False),
    (TWO_BASIS, EQUAL, 5, 10**10, 1.1167000927520863, 0.38951403421711295, False),
    (TWO_BASIS, EQUAL, 11, 10**5, 1.0488135950530575, 1.3854400181826128, False),
    (TWO_BASIS, EQUAL, 11, 10**7, 1.736304008735914, 0.5868562875136208, False),
    (TWO_BASIS, EQUAL, 11, 10**10, 1.8413160612281427, 0.45787002546250316, False),
    (TWO_BASIS, SINGLE, 3, 10**5, 0.32776804577861274, 0.6888644451738143, False),
    (TWO_BASIS, SINGLE, 3, 10**7, 0.6124931860773446, 0.3903121018268301, False),
    (TWO_BASIS, SINGLE, 3, 10**10, 0.6572697224933638, 0.3385175598429535, False),
    (TWO_BASIS, SINGLE, 5, 10**5, 0.7111038108009021, 0.820173903338867, False),
    (TWO_BASIS, SINGLE, 5, 10**7, 1.056112625056992, 0.46076279176673607, False),
    (TWO_BASIS, SINGLE, 5, 10**10, 1.1167077675567514, 0.38950341165010227, False),
    (TWO_BASIS, SINGLE, 11, 10**5, 1.3142713200249196, 1.0180244818893778, False),
    (TWO_BASIS, SINGLE, 11, 10**7, 1.7515537006791415, 0.5657494474537907, False),
    (TWO_BASIS, SINGLE, 11, 10**10, 1.8413612107852448, 0.4578075347260294, False),
    (TWO_BASIS, BRUTE, 3, 10**5, 0.08375219069180218, 1.026602652906424, False),
    (TWO_BASIS, BRUTE, 3, 10**7, 0.5736704393774935, 0.4440460072937521, False),
    (TWO_BASIS, BRUTE, 3, 10**10, 0.655737767073433, 0.340637913365349, False),
    (TWO_BASIS, BRUTE, 5, 10**5, 0.0, 1.9818982981866675, False),
    (TWO_BASIS, BRUTE, 5, 10**7, 0.8960889445803784, 0.6822488547101462, False),
    (TWO_BASIS, BRUTE, 5, 10**10, 1.109976171331493, 0.3988204998511519, False),
    (TWO_BASIS, BRUTE, 11, 10**5, 0.0, None, True),
    (TWO_BASIS, BRUTE, 11, 10**7, 1.0330581449922593, 1.5602069639754266, False),
    (TWO_BASIS, BRUTE, 11, 10**10, 1.8068308502281227, 0.5056004213102815, False),
    (DPLUS1, EQUAL, 3, 10**5, 0.0, 1.164391407531682, False),
    (DPLUS1, EQUAL, 3, 10**7, 0.6106657276835245, 0.3928414560051278, False),
    (DPLUS1, EQUAL, 3, 10**10, 0.7395932827201015, 0.22457491593051343, False),
    (DPLUS1, EQUAL, 5, 10**5, 0.0, 2.00670951006628, False),
    (DPLUS1, EQUAL, 5, 10**7, 0.9539029466919033, 0.6022294746249905, False),
    (DPLUS1, EQUAL, 5, 10**10, 1.2282280084261217, 0.2351501370904202, False),
    (DPLUS1, EQUAL, 11, 10**5, 0.0, None, True),
    (DPLUS1, EQUAL, 11, 10**7, 1.1763447318730025, 1.3618864285003496, False),
    (DPLUS1, EQUAL, 11, 10**10, 1.9559294388269404, 0.29923559279980755, False),
    (DPLUS1, SINGLE, 3, 10**5, 0.15907164028882928, 0.9223542797617499, False),
    (DPLUS1, SINGLE, 3, 10**7, 0.6222256385142907, 0.37684157942275237, False),
    (DPLUS1, SINGLE, 3, 10**10, 0.7396327294812411, 0.22452031833724062, False),
    (DPLUS1, SINGLE, 5, 10**5, 0.0, None, True),
    (DPLUS1, SINGLE, 5, 10**7, 1.0222141681004657, 0.5076810712913403, False),
    (DPLUS1, SINGLE, 5, 10**10, 1.22884656712376, 0.23429400048469246, False),
    (DPLUS1, SINGLE, 11, 10**5, 0.0, None, True),
    (DPLUS1, SINGLE, 11, 10**7, 1.5612578842741545, 0.8291346604710735, False),
    (DPLUS1, SINGLE, 11, 10**10, 1.966254749929496, 0.2849445047685884, False),
    (DPLUS1, BRUTE, 3, 10**5, 0.0, 1.5473422071720124, False),
    (DPLUS1, BRUTE, 3, 10**7, 0.5055679560732083, 0.5383054997564305, False),
    (DPLUS1, BRUTE, 3, 10**10, 0.7341669027396391, 0.2320854764571051, False),
    (DPLUS1, BRUTE, 5, 10**5, 0.0, None, True),
    (DPLUS1, BRUTE, 5, 10**7, 0.3951853840981612, 1.3755409799450486, False),
    (DPLUS1, BRUTE, 5, 10**10, 1.189392694486694, 0.2889014366605625, False),
    (DPLUS1, BRUTE, 11, 10**5, 0.0, None, True),
    (DPLUS1, BRUTE, 11, 10**7, 0.0, None, True),
    (DPLUS1, BRUTE, 11, 10**10, 1.605867896430301, 0.7837498383314878, False),
)


@pytest.mark.parametrize("family, mode, d, n, r_n, holevo, saturated", R_FINITE_PINS)
def test_r_finite_fixed_params_exact(family, mode, d, n, r_n, holevo, saturated):
    spec = ProtocolSpec(family, d)
    budget = FiniteKeyBudget(n, 1e-5, 1e-10)
    rep = r_finite(spec, 0.05, budget, PARAMS, mode)
    assert rep.r_n == r_n
    assert rep.terms.get("holevo_worst") == holevo
    assert rep.saturated == saturated


@pytest.mark.parametrize("family, mode, d, n, r_n, holevo, saturated", R_FINITE_PINS)
def test_r_finite_equals_per_basis_reference(family, mode, d, n, r_n, holevo, saturated):
    spec = ProtocolSpec(family, d)
    budget = FiniteKeyBudget(n, 1e-5, 1e-10)
    rep = r_finite(spec, 0.05, budget, PARAMS, mode)
    assert r_finite_reference(spec, 0.05, budget, PARAMS, mode) == (rep.r_n, rep.terms.get("holevo_worst"))


@st.composite
def _simplex_vectors(draw):
    d = draw(st.integers(2, 11))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    assume(weights.sum() > 0.0)
    return weights / weights.sum()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    q=_simplex_vectors(),
    xi_val=st.floats(0.0, 4.0) | st.floats(min_value=0.0),  # every mode saturates past 2
    mode=st.sampled_from(FluxMode),
)
def test_worst_case_vector_stays_on_simplex(q, xi_val, mode):
    got = shift_one(q, xi_val, mode)
    if got is None:
        return
    assert got.shape == q.shape
    assert np.all(got >= 0.0) and np.all(got <= 1.0)
    assert abs(got.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "family, d, n_signals, calls",
    [(TWO_BASIS, 5, 10**7, 1), (DPLUS1, 5, 10**7, 2), (DPLUS1, 11, 10**7, 2), (DPLUS1, 5, 10, 0)],
)
def test_r_finite_shifts_at_most_two_vectors(monkeypatch, family, d, n_signals, calls):
    # one shifted check vector serves every check basis; a degenerate
    # sample short-circuits before the adversary bound
    shift_rows = rates_finite._shift_rows
    seen = []

    def counting(q, *args, **kwargs):
        seen.append(len(q))
        return shift_rows(q, *args, **kwargs)

    monkeypatch.setattr(rates_finite, "_shift_rows", counting)
    spec = ProtocolSpec(family, d)
    r_finite(spec, 0.05, FiniteKeyBudget(n_signals, 1e-5, 1e-10), PARAMS)
    assert sum(seen) == calls


# one-row shift outputs at extreme xi, recorded before the overflow guards;
# None marks saturated statistics. Subnormal shifts either vanish or
# survive only as subnormal error entries, and q[0] is rebalanced.
EXTREME_XI_PINS = (
    ([0.9, 0.1], 5e-324, {m: [0.9, 0.1] for m in FluxMode}),
    ([0.9, 0.1], 1e-310, {m: [0.9, 0.1] for m in FluxMode}),
    ([0.1, 0.6, 0.3], 5e-324, {m: [0.10000000000000009, 0.6, 0.3] for m in FluxMode}),
    ([0.1, 0.6, 0.3], 1e-310, {m: [0.10000000000000009, 0.6, 0.3] for m in FluxMode}),
    ([1.0, 0.0, 0.0, 0.0], 5e-324, {m: [1.0, 0.0, 0.0, 0.0] for m in FluxMode}),
    ([1.0, 0.0, 0.0, 0.0], 1e-310, {
        EQUAL: [1.0, 1.6666666666666e-311, 1.6666666666666e-311, 1.6666666666666e-311],
        SINGLE: [1.0, 5e-311, 0.0, 0.0],
        BRUTE: [1.0, 5e-311, 5e-311, 5e-311],
    }),
) + tuple((q, 1.7e308, {m: None for m in FluxMode}) for q in ([0.9, 0.1], [0.1, 0.6, 0.3], [1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("q, xi_val, expected", EXTREME_XI_PINS)
@pytest.mark.parametrize("mode", list(FluxMode))
def test_worst_case_vector_extreme_xi_is_silent_and_unchanged(q, xi_val, expected, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shift_one(np.array(q), xi_val, mode)
    assert (None if got is None else got.tolist()) == expected[mode]


@pytest.mark.parametrize("q", [0.01, 0.05, 0.1, 0.15])
@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("family", [TWO_BASIS, DPLUS1])
def test_worst_case_information_rises_toward_saturation(family, d, q):
    # fewer samples widen the fluctuation ball, so the adversary bound can
    # only grow until the statistics saturate; 1e-12 absorbs rounding once
    # the shifted vector reaches the uniform plateau at log2(d)
    spec = ProtocolSpec(family, d)
    nominal = depolarizing_vector(spec.dim, q)
    radii = np.array([xi(int(m), d, 1e-7) for m in np.logspace(8, 1, 60).astype(int)])
    info, saturated = rates_finite._worst_case_holevo_rows(spec, nominal, radii, radii, EQUAL)
    previous = 0.0
    for i_e, sat in zip(info, saturated):
        if sat:
            break
        assert i_e >= previous - 1e-12
        previous = i_e
