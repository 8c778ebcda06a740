"""Array path of the finite-key adversary bound.

The pins below are compared with `==`, not approximately. The two-basis
rows were recorded before the worst-case statistics moved from per-basis
labelled wrappers to plain arrays. The (d+1)-basis rows were re-recorded
when the O(d) shared-check kernel replaced the full spectrum
reconstruction, which moved their last bits; against the reconstruction,
`oracles.r_finite_reference`, they agree within ORACLE_TOL.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import adversary_information_rows, r_finite_reference, shift_one

import quditkd.adversary as adversary
from quditkd.adversary import CLAMP_MASS_TOL
from quditkd.channels import lambda_entries_from_q
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_finite import FiniteKeyBudget, FluxMode, FreeParams, r_finite, xi

TWO_BASIS, DPLUS1 = Family.TWO_BASIS, Family.DPLUS1
EQUAL, SINGLE, BRUTE = FluxMode.EQUAL, FluxMode.SINGLE, FluxMode.BRUTE
PARAMS = FreeParams(0.85, 1e-6, 1e-7, 1e-6)
ORACLE_TOL = 2e-13  # bits; fixed before the shared-check kernel was run against the oracle

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
    (DPLUS1, EQUAL, 3, 10**5, 0.0, 1.1643914075316826, False),
    (DPLUS1, EQUAL, 3, 10**7, 0.6106657276835246, 0.39284145600512765, False),
    (DPLUS1, EQUAL, 3, 10**10, 0.7395932827201017, 0.22457491593051324, False),
    (DPLUS1, EQUAL, 5, 10**5, 0.0, 2.0067095100662797, False),
    (DPLUS1, EQUAL, 5, 10**7, 0.9539029466919033, 0.6022294746249905, False),
    (DPLUS1, EQUAL, 5, 10**10, 1.228228008426121, 0.23515013709042126, False),
    (DPLUS1, EQUAL, 11, 10**5, 0.0, None, True),
    (DPLUS1, EQUAL, 11, 10**7, 1.1763447318730034, 1.361886428500348, False),
    (DPLUS1, EQUAL, 11, 10**10, 1.955929438826942, 0.29923559279980505, False),
    (DPLUS1, SINGLE, 3, 10**5, 0.15907164028882928, 0.9223542797617499, False),
    (DPLUS1, SINGLE, 3, 10**7, 0.6222256385142907, 0.3768415794227524, False),
    (DPLUS1, SINGLE, 3, 10**10, 0.7396327294812411, 0.22452031833724057, False),
    (DPLUS1, SINGLE, 5, 10**5, 0.0, None, True),
    (DPLUS1, SINGLE, 5, 10**7, 1.0222141681004664, 0.5076810712913391, False),
    (DPLUS1, SINGLE, 5, 10**10, 1.2288465671237603, 0.23429400048469212, False),
    (DPLUS1, SINGLE, 11, 10**5, 0.0, None, True),
    (DPLUS1, SINGLE, 11, 10**7, 1.561257884274155, 0.8291346604710733, False),
    (DPLUS1, SINGLE, 11, 10**10, 1.9662547499294962, 0.28494450476858824, False),
    (DPLUS1, BRUTE, 3, 10**5, 0.0, 1.5473422071720124, False),
    (DPLUS1, BRUTE, 3, 10**7, 0.5055679560732081, 0.5383054997564306, False),
    (DPLUS1, BRUTE, 3, 10**10, 0.7341669027396391, 0.23208547645710506, False),
    (DPLUS1, BRUTE, 5, 10**5, 0.0, None, True),
    (DPLUS1, BRUTE, 5, 10**7, 0.3951853840981615, 1.3755409799450482, False),
    (DPLUS1, BRUTE, 5, 10**10, 1.189392694486694, 0.2889014366605624, False),
    (DPLUS1, BRUTE, 11, 10**5, 0.0, None, True),
    (DPLUS1, BRUTE, 11, 10**7, 0.0, None, True),
    (DPLUS1, BRUTE, 11, 10**10, 1.6058678964303046, 0.7837498383314832, False),
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
    r_n, holevo = r_finite_reference(spec, 0.05, budget, PARAMS, mode)
    assert (holevo is None) == ("holevo_worst" not in rep.terms)
    assert abs(r_n - rep.r_n) <= ORACLE_TOL
    assert holevo is None or abs(holevo - rep.terms["holevo_worst"]) <= ORACLE_TOL
    if family is TWO_BASIS:  # its kernel did not change: the oracle's float order is the package's
        assert (r_n, holevo) == (rep.r_n, rep.terms.get("holevo_worst"))


@st.composite
def _simplex_vectors(draw, d=None):
    d = draw(st.integers(2, 11)) if d is None else d
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


def _negative_mass(key: np.ndarray, check: np.ndarray) -> float:
    """Negative weight of the spectrum the oracle reconstructs when every
    check basis reads `check`."""
    d = key.size
    lam = lambda_entries_from_q(key[None], np.broadcast_to(check, (d, d))[None])
    return float(-lam[lam < 0.0].sum())


@st.composite
def _near_the_clamp(draw, key, check):
    """A check row on the segment from `check` (or the uniform row, if
    `check` is already past the target) to a point mass, whose negative
    weight with `key` lies within 1e-9 of CLAMP_MASS_TOL, on a drawn side."""
    d = key.size
    target = CLAMP_MASS_TOL + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-12, 1e-9))
    start = check if _negative_mass(key, check) < target else np.full(d, 1.0 / d)
    end = np.eye(d)[draw(st.integers(0, d - 1))]
    assume(_negative_mass(key, end) > target)
    lo, hi = 0.0, 1.0
    for _ in range(80):  # bisection to the float resolution of t
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _negative_mass(key, (1.0 - mid) * start + mid * end) < target else (lo, mid)
    row = (1.0 - hi) * start + hi * end
    assume((_negative_mass(key, row) > CLAMP_MASS_TOL) == (target > CLAMP_MASS_TOL))
    return row


@st.composite
def _shared_check_pairs(draw):
    """(key rows, check rows) of one prime d, each pair drawn anywhere on
    the simplex, one of them moved to the edge of the clamp tolerance. A
    check row is mixed with the uniform row by a drawn weight, since most
    unmixed pairs reconstruct to a saturated spectrum."""
    d = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 31)))
    drawn = st.tuples(_simplex_vectors(d), _simplex_vectors(d), st.floats(0.0, 1.0))
    pairs = draw(st.lists(drawn, min_size=1, max_size=3))
    keys = np.stack([key for key, _, _ in pairs])
    checks = np.stack([(1.0 - w) / d + w * check for _, check, w in pairs])
    if draw(st.booleans()):
        checks[0] = draw(_near_the_clamp(keys[0], checks[0]))
    return keys, checks


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=_shared_check_pairs())
def test_shared_check_kernel_equals_the_spectrum_reconstruction(pairs):
    # rows far from the corner give P_0, the mass of spectrum row 0, values
    # across [0, 1]; the oracle reads the check row at -k mod d and the
    # kernel in its own order, which leaves H(r_0) and P_0 unchanged
    keys, checks = pairs
    d = keys.shape[1]
    info, saturated = adversary._holevo_pairs(ProtocolSpec(DPLUS1, d), keys, checks)
    stats = np.concatenate([keys[:, None], np.repeat(checks[:, None], d, axis=1)], axis=1)
    expected, expected_saturated = adversary_information_rows(ProtocolSpec(DPLUS1, d), stats)
    assert saturated.tolist() == expected_saturated.tolist()
    assert np.abs(info - expected).max() <= ORACLE_TOL


@pytest.mark.parametrize(
    "family, d, n_signals, calls",
    [(TWO_BASIS, 5, 10**7, 1), (DPLUS1, 5, 10**7, 2), (DPLUS1, 11, 10**7, 2), (DPLUS1, 5, 10, 2)],
)
def test_r_finite_shifts_at_most_two_vectors(monkeypatch, family, d, n_signals, calls):
    # one shifted check vector serves every check basis; a degenerate
    # sample takes the same path, as if each basis kept one sample, and
    # its rate is masked afterwards
    shift_rows = adversary._shift_rows
    seen = []

    def counting(q, xi_vals, *args, **kwargs):
        seen.append(len(xi_vals))
        return shift_rows(q, xi_vals, *args, **kwargs)

    monkeypatch.setattr(adversary, "_shift_rows", counting)
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
    info, saturated = adversary._worst_case_holevo_rows(spec, nominal, radii, radii, EQUAL)
    previous = 0.0
    for i_e, sat in zip(info, saturated):
        if sat:
            break
        assert i_e >= previous - 1e-12
        previous = i_e


@pytest.mark.parametrize("mode", list(FluxMode))
@pytest.mark.parametrize("d", [2, 3, 6, 11])
def test_two_basis_worst_case_never_reads_the_key_radius(d, mode):
    # the two-basis bound is the entropy of the check row alone, so no key
    # radius, however large, may move its I_E or its saturation mask
    spec = ProtocolSpec(TWO_BASIS, d)
    nominal = depolarizing_vector(spec.dim, 0.05)
    xi_check = np.full(4, 1e-3)
    results = [
        adversary._worst_case_holevo_rows(spec, nominal, np.full(4, xi_key), xi_check, mode)
        for xi_key in (0.0, 1e-3, 3.0, 1.7e308)
    ]
    info, saturated = results[0]
    assert not saturated.any() and (info > 0.0).all()
    for other_info, other_saturated in results[1:]:
        assert other_info.tobytes() == info.tobytes() and other_saturated.tolist() == saturated.tolist()
