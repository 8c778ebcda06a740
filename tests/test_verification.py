import numpy as np
import pytest

import quditkd.verification as verification
from quditkd.qudit_algebra import Dim
from quditkd.verification import CheckResult, check_bell_orthonormality, check_unitarity, run_suite


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
