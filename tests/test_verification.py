import tracemalloc

import numpy as np
import pytest

from oracles import roundtrip_reference

import quditkd.verification as verification
from quditkd.qudit_algebra import Dim
from quditkd.verification import (
    CheckResult,
    check_bell_eigenstates,
    check_bell_orthonormality,
    check_commutation,
    check_roundtrip,
    check_unitarity,
    run_suite,
)


def test_suite_passes_across_dimensions():
    results = run_suite([2, 3, 4, 5, 7, 13])
    assert results
    assert all(r.passed for r in results)
    assert all(r.max_err < 1e-9 for r in results)
    # the statistics roundtrip only exists for prime d
    roundtrip_dims = {r.d for r in results if r.name == "lambda_q_roundtrip"}
    assert roundtrip_dims == {2, 3, 5, 7, 13}


def test_result_line_format():
    line = CheckResult("unitarity", 5, True, 3.2e-15).line()
    assert "unitarity" in line and "d=5" in line and "PASS" in line and "3.200e-15" in line
    assert "FAIL" in CheckResult("unitarity", 5, False, 0.5).line()


def test_fault_injection_is_caught(monkeypatch):
    # a broken operator construction must surface as a failed check, not be
    # silently absorbed by the tolerances
    original = verification.weyl_operator

    def crooked(dim, idx):
        u = np.array(original(dim, idx), copy=True)
        u[0, 0] += 1e-6
        return u

    monkeypatch.setattr(verification, "weyl_operator", crooked)
    result = check_unitarity(Dim(3))
    assert not result.passed
    assert result.max_err > 1e-7

    original_bell = verification.bell_matrix

    def crooked_bell(dim, idx):
        f = np.array(original_bell(dim, idx), copy=True)
        f[0, 0] += 1e-6
        return f

    monkeypatch.setattr(verification, "bell_matrix", crooked_bell)
    result = check_bell_orthonormality(Dim(3))
    assert not result.passed
    assert result.max_err > 1e-7


@pytest.mark.parametrize("check", [check_unitarity, check_commutation, check_bell_eigenstates])
def test_operator_checks_work_in_bounded_batches(check):
    # at d = 32 a check holds a few _BATCH_BYTES batches of operators, not
    # all d^2 or 200 pairs at once
    tracemalloc.start()
    try:
        result = check(Dim(32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("d", [2, 7, 13, 32])
def test_batch_size_does_not_move_any_result(monkeypatch, d):
    # each slice of a batched product is multiplied on its own, so one slice
    # per batch and one batch for everything give the same bits
    default = run_suite([d])
    monkeypatch.setattr(verification, "_BATCH_BYTES", 1)
    assert run_suite([d]) == default
    monkeypatch.setattr(verification, "_BATCH_BYTES", 2**40)
    assert run_suite([d]) == default


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_roundtrip_stack_equals_the_per_spectrum_loop(d):
    assert check_roundtrip(Dim(d)).max_err == roundtrip_reference(Dim(d))
