import tracemalloc

import numpy as np
import pytest

from oracles import bell_orthonormality_reference, roundtrip_reference

import quditkd.verification as verification
from quditkd.qudit_algebra import Dim, WeylIndex
from quditkd.verification import (
    CheckResult,
    check_bell_eigenstates,
    check_bell_orthonormality,
    check_commutation,
    check_roundtrip,
    check_unitarity,
    run_suite,
    _window,
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


def test_orthonormality_works_in_row_blocks():
    # at d = 32 the check holds one shift's window of Bell vectors (under
    # 1 MiB), never a d^4 array: the Bell matrix alone would be 16 MiB
    tracemalloc.start()
    try:
        result = check_bell_orthonormality(Dim(32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 4 * 2**20


def test_suite_working_memory_is_small():
    # at d = 7 the exhaustive operator checks walk 2401 index pairs in
    # batches of at most _BATCH_BYTES (64 KiB), a few of which are live at once
    run_suite([7])  # one-time allocations of a first run are not working memory
    tracemalloc.start()
    try:
        run_suite([7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2**20


@pytest.mark.parametrize("d", range(2, 33))
def test_row_blocks_equal_the_one_gram_product(d):
    # the row blocks are the d vectors of one shift, each against its column
    # window; the entries they skip are exact zeros, so max_err is the whole
    # product's bit for bit
    assert check_bell_orthonormality(Dim(d)).max_err == bell_orthonormality_reference(Dim(d))


def test_windows_are_cut_at_multiples_of_8():
    # windows cut at multiples of 1 or 2 move the last bit of max_err in
    # OpenBLAS's zgemm at some d; each window covers its own shift's columns
    assert [_window(3, j) for j in range(3)] == [(0, 8), (0, 8), (0, 9)]
    for d in range(2, 33):
        n = d * d
        for j in range(d):
            lo, hi = _window(d, j)
            assert lo % 8 == 0 and (hi % 8 == 0 or hi == n)
            assert 0 <= lo <= j * d and (j + 1) * d <= hi <= n
            assert j * d - lo < 8 and (hi == n or hi - (j + 1) * d < 8)


def test_support_leak_outside_the_window_is_caught(monkeypatch):
    # one shift-3 vector carries 1e-6 on the support of shift 5, whose
    # columns lie outside its window: only the off-support term sees it
    d, leaky = 13, WeylIndex(3, 0)
    original_bell = verification.bell_matrix

    def leaking_bell(dim, idx):
        f = np.array(original_bell(dim, idx), copy=True)
        hit = (np.asarray(idx.j) == leaky.j) & (np.asarray(idx.k) == leaky.k)
        f[hit, 0, (leaky.j + 2) % d] += 1e-6
        return f

    lo, hi = _window(d, leaky.j)
    assert not lo <= (leaky.j + 2) * d < hi
    monkeypatch.setattr(verification, "bell_matrix", leaking_bell)
    result = check_bell_orthonormality(Dim(d))
    assert not result.passed
    assert result.max_err >= 1e-6
    monkeypatch.setattr(verification, "_off_support", lambda rows, j: 0.0)
    assert check_bell_orthonormality(Dim(d)).passed


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


def test_roundtrip_gathers_one_basis_at_a_time():
    # at d = 31 the forward map's gather holds 20 d^2 floats per basis, not
    # the 20 d^3 (4.8 MB) of all check bases at once
    tracemalloc.start()
    try:
        result = check_roundtrip(Dim(31))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 3 * 2**20
