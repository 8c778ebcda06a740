"""The value types `Dim`, `ProtocolSpec` and `RateReport`: named tuples
that keep the reprs, equality, hashing, keyword construction and
immutability of the frozen dataclasses they replace, and that survive
`pickle` and `copy.deepcopy`."""

import copy
import pickle

import numpy as np
import pytest

from quditkd import cli
from quditkd.protocol import Dim, Family, ProtocolSpec, WeylIndex
from quditkd.rates_asymptotic import RateReport, r_infinity

DIMS = (2, 3, 5, 31)
CASES = [(family, d) for family in Family for d in DIMS]
FIELDS = ("q", "i_e", "h_ab", "r_inf", "r_inf_raw")


def _report_repr(report: RateReport) -> str:
    """The frozen dataclass's repr: each field in order as `name=repr`."""
    return "RateReport(" + ", ".join(f"{name}={getattr(report, name)!r}" for name in FIELDS) + ")"


@pytest.mark.parametrize("family, d", CASES)
def test_repr_equality_and_hash_are_the_dataclasses(family, d):
    spec = ProtocolSpec(family, d)
    assert repr(spec.dim) == f"Dim(d={d}, prime=True)"
    assert repr(spec) == f"ProtocolSpec(family=<Family.{family.name}: '{family.value}'>, dim=Dim(d={d}, prime=True))"
    assert repr(Dim(2 * d)) == f"Dim(d={2 * d}, prime=False)"
    # a frozen dataclass hashes the tuple of its fields
    assert hash(spec.dim) == hash((d, True)) and hash(spec) == hash((family, spec.dim))
    assert spec == ProtocolSpec(family.value, Dim(d)) and hash(spec) == hash(ProtocolSpec(family.value, Dim(d)))
    assert spec != ProtocolSpec(family, 7) and spec.dim != Dim(2 * d)
    other = ProtocolSpec(Family.TWO_BASIS if family is Family.DPLUS1 else Family.DPLUS1, d)
    assert spec != other and spec.basis_indices != other.basis_indices
    report = r_infinity(spec, 0.05)
    assert repr(report) == _report_repr(report)
    assert hash(report) == hash(tuple(getattr(report, name) for name in FIELDS))
    assert report == r_infinity(ProtocolSpec(family, d), 0.05) and report != r_infinity(spec, 0.06)


def test_construction_by_keyword_and_from_a_numpy_dimension():
    assert Dim(d=5) == Dim(5) == Dim(np.int64(5)) and type(Dim(np.int64(5)).d) is int
    spec = ProtocolSpec(family=Family.DPLUS1, dim=np.int32(5))
    assert spec == ProtocolSpec(Family.DPLUS1, Dim(5)) and type(spec.dim.d) is int
    assert spec.basis_indices == (WeylIndex(0, 1),) + tuple(WeylIndex(1, k) for k in range(5)) and spec.n_bases == 6
    report = r_infinity(spec, 0.05)
    assert RateReport(**{name: getattr(report, name) for name in FIELDS}) == report
    with pytest.raises(TypeError):
        Dim(5, True)  # primality is derived, never given


@pytest.mark.parametrize("name", ["d", "prime"])
def test_a_dim_field_cannot_be_assigned(name):
    with pytest.raises(AttributeError):
        setattr(Dim(5), name, 7)


@pytest.mark.parametrize("name", ["family", "dim"])
def test_a_protocol_spec_field_cannot_be_assigned(name):
    with pytest.raises(AttributeError):
        setattr(ProtocolSpec(Family.DPLUS1, 5), name, Dim(3))


@pytest.mark.parametrize("name", FIELDS)
def test_a_rate_report_field_cannot_be_assigned(name):
    with pytest.raises(AttributeError):
        setattr(r_infinity(ProtocolSpec(Family.TWO_BASIS, 3), 0.05), name, 0.0)


def _values():
    spec = ProtocolSpec(Family.DPLUS1, 5)
    cached = ProtocolSpec(Family.DPLUS1, 31)
    cached.basis_indices  # a copy carries the cached value along
    return [Dim(4), Dim(31), spec, cached, ProtocolSpec(Family.TWO_BASIS, 6), r_infinity(spec, 0.05)]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(protocol):
    for value in _values():
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value) and repr(back) == repr(value)
        if isinstance(value, ProtocolSpec):
            assert back.basis_indices == value.basis_indices and back.dim.prime == value.dim.prime


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copies_round_trip(copier):
    for value in _values():
        back = copier(value)
        assert back == value and type(back) is type(value) and repr(back) == repr(value)


def test_rate_report_keys_are_the_asymptotic_csv_columns(capsys):
    assert cli.main(["asymptotic", "--dim", "3", "--q", "0.05"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header[:2] == ["d", "family"]
    assert list(r_infinity(ProtocolSpec(Family.TWO_BASIS, 3), 0.05)._asdict()) == header[2:] == list(FIELDS)
