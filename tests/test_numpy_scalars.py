"""numpy scalars at the library boundary: a numpy integer dimension is the
int it holds, and a numpy float Q is read as the Python float it holds."""

import re

import numpy as np
import pytest

from quditkd.channels import depolarizing_spectrum
from quditkd.info_theory import depolarizing_vector
from quditkd.protocol import Dim, Family, ProtocolSpec
from quditkd.rates_asymptotic import r_infinity
from quditkd.rates_finite import optimize_r_finite
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
