"""numpy scalars at the library boundary: a numpy integer dimension, count
or seed is the int it holds, a numpy float Q, eps or free parameter is read
as the Python float it holds, and a bool is no count."""

import re

import numpy as np
import pytest

from quditkd.channels import depolarizing_spectrum
from quditkd.errors import DegenerateSample, InvalidDistribution, OutOfRange
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Dim, Family, ProtocolSpec
from quditkd.rates_asymptotic import r_infinity
from quditkd.rates_finite import FiniteKeyBudget, FreeParams, optimize_r_finite, r_finite, xi
from quditkd.simulator import SimConfig


@pytest.mark.parametrize("d", [np.int64(5), np.int32(5), np.uint8(5)], ids=["int64", "int32", "uint8"])
def test_a_numpy_integer_dimension_is_the_int(d):
    assert Dim(d) == Dim(5) and type(Dim(d).d) is int
    assert ProtocolSpec(Family.DPLUS1, d) == ProtocolSpec(Family.DPLUS1, 5)
    assert repr(ProtocolSpec(Family.DPLUS1, d)) == repr(ProtocolSpec(Family.DPLUS1, 5))


@pytest.mark.parametrize(
    "d", [5.0, "5", 1, np.int64(1), True, np.float64(5.0)], ids=["float", "str", "one", "int64-one", "bool", "float64"]
)
def test_a_dimension_that_is_no_integer_above_one_is_refused(d):
    with pytest.raises(ValueError, match=re.escape(f"qudit dimension must be an integer >= 2, got {d!r}") + "$"):
        Dim(d)


Q32 = np.float32(0.05)


@pytest.mark.parametrize("family", list(Family))
def test_a_float32_q_gives_the_rates_of_its_float(family):
    spec = ProtocolSpec(family, 5)
    report = r_infinity(spec, Q32)
    assert repr(report) == repr(r_infinity(spec, float(Q32)))
    assert repr(optimize_r_finite(spec, Q32, 10**6, 1e-5, 1e-10)) == repr(
        optimize_r_finite(spec, float(Q32), 10**6, 1e-5, 1e-10)
    )


def test_a_float32_q_gives_float64_vectors_and_spectra():
    vector = depolarizing_vector(Dim(5), Q32)
    assert vector.dtype == np.float64 and vector.tolist() == depolarizing_vector(Dim(5), float(Q32)).tolist()
    spectrum = depolarizing_spectrum(Dim(5), Q32)
    assert spectrum.lam.dtype == np.float64
    assert spectrum.lam.tolist() == depolarizing_spectrum(Dim(5), float(Q32)).lam.tolist()
    # the spectrum sums to 1 within SUM_SLACK, so it can drive a simulation
    SimConfig(ProtocolSpec(Family.DPLUS1, 5), spectrum, rounds=10, seed=1)


@pytest.mark.parametrize("build", [depolarizing_vector, depolarizing_spectrum])
def test_a_string_q_still_fails_before_any_arithmetic(build):
    with pytest.raises(TypeError):
        build(Dim(5), "0.05")


TWO_2 = ProtocolSpec(Family.TWO_BASIS, 2)
TWO_3 = ProtocolSpec(Family.TWO_BASIS, 3)
DPLUS1_5 = ProtocolSpec(Family.DPLUS1, 5)
F32 = np.float32(0.9)
BUDGET = FiniteKeyBudget(10**9, 1e-5, 1e-10)
SPECTRUM_2 = depolarizing_spectrum(Dim(2), 0.05)


# numpy's scalar rules would move each of these results: int64 true division
# rounds the count to a float first, and a float32 operand keeps the
# arithmetic in float32
@pytest.mark.parametrize(
    "numpy_call, plain_call",
    [
        (lambda: optimize_r_finite(TWO_2, 0.05, np.int64(10**16 + 1), 1e-5, 1e-10),
         lambda: optimize_r_finite(TWO_2, 0.05, 10**16 + 1, 1e-5, 1e-10)),
        (lambda: optimize_r_finite(TWO_3, 0.05, 10**7, np.float32(1e-5), 1e-10),
         lambda: optimize_r_finite(TWO_3, 0.05, 10**7, float(np.float32(1e-5)), 1e-10)),
        (lambda: r_finite(DPLUS1_5, 0.05, BUDGET, FreeParams(F32, 1e-6, 1e-6, 1e-6)),
         lambda: r_finite(DPLUS1_5, 0.05, BUDGET, FreeParams(float(F32), 1e-6, 1e-6, 1e-6))),
        (lambda: xi(1000, 3, np.float32(1e-5)), lambda: xi(1000, 3, float(np.float32(1e-5)))),
    ],
    ids=["int64-signals", "float32-eps", "float32-p01", "float32-eps_pe"],
)
def test_numpy_counts_and_budgets_give_the_results_of_their_plain_values(numpy_call, plain_call):
    assert repr(numpy_call()) == repr(plain_call())


def test_r_finite_at_a_float32_p01_counts_the_samples_of_its_float():
    report = r_finite(DPLUS1_5, 0.05, BUDGET, FreeParams(F32, 1e-6, 1e-6, 1e-6))
    assert report.n == 809_999_957  # floor(1e9 * float(F32)**2); float32 arithmetic gives 810,000,000


def _field_types(value) -> list[type]:
    return [type(getattr(value, name)) for name in value.__dataclass_fields__ if name not in ("spec", "spectrum")]


def test_numpy_inputs_are_stored_as_plain_ints_and_floats():
    budget = FiniteKeyBudget(np.int64(10**6), np.float32(1e-5), np.float64(1e-10))
    assert _field_types(budget) == [int, float, float]
    params = FreeParams(np.float32(0.9), np.float64(1e-6), np.float32(1e-6), np.float16(1e-6))
    assert _field_types(params) == [float] * 4
    cfg = SimConfig(DPLUS1_5, depolarizing_spectrum(Dim(5), 0.05), rounds=np.int32(10), seed=np.uint64(7))
    assert _field_types(cfg) == [int, int, tuple]
    assert (cfg.rounds, cfg.seed) == (10, 7)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FiniteKeyBudget(True, 0.5, 0.1), OutOfRange, "n_signals must be an integer, got True"),
        (lambda: optimize_r_finite(TWO_2, 0.05, True, 0.5, 0.1), OutOfRange, "n_signals must be an integer, got True"),
        (lambda: SimConfig(TWO_2, SPECTRUM_2, rounds=True, seed=1), InvalidDistribution,
         "rounds must be an integer, got True"),
        (lambda: SimConfig(TWO_2, SPECTRUM_2, rounds=10, seed=False), OutOfRange,
         r"need seed in \[0, 2\*\*128\), got seed=False"),
        (lambda: xi(True, 3, 0.1), DegenerateSample, "fluctuation bound needs m >= 1, got True"),
        (lambda: xi(2.5, 3, 0.1), DegenerateSample, "fluctuation bound needs m >= 1, got 2.5"),
    ],
    ids=["budget-bool", "optimize-bool", "rounds-bool", "seed-bool", "xi-bool", "xi-float"],
)
def test_a_bool_or_a_non_integer_count_is_refused(call, error, message):
    with pytest.raises(error, match=message + "$"):
        call()
