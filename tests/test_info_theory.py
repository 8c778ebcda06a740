import math

import numpy as np
import pytest

from quditkd.errors import InvalidDistribution, OutOfRange
from quditkd.info_theory import as_prob_vector, depolarizing_vector, entropy_rows, shannon_entropy
from quditkd.qudit_algebra import Dim


def test_entropy_uniform_is_log_d():
    for d in (2, 3, 5, 11):
        assert shannon_entropy(np.full(d, 1.0 / d)) == pytest.approx(math.log2(d), abs=1e-12)


def test_entropy_pure_is_zero():
    h = shannon_entropy([1.0, 0.0, 0.0])
    assert h == 0.0
    assert math.copysign(1.0, h) > 0  # not -0.0


def test_entropy_frozen_value():
    # independently computed with 50-digit arithmetic
    assert shannon_entropy([0.89, 0.11]) == pytest.approx(0.499915958164528, abs=1e-14)


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(p[::-1]), abs=1e-12)


def test_as_prob_vector_clips_float_slack():
    v = as_prob_vector([1.0 + 1e-13, -1e-13])
    assert v[0] == 1.0 and v[1] == 0.0


def test_as_prob_vector_rejects_bad_input():
    with pytest.raises(InvalidDistribution):
        as_prob_vector([0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        as_prob_vector([1.2, -0.2])
    with pytest.raises(InvalidDistribution):
        as_prob_vector([0.5, -0.1, 0.6])
    with pytest.raises(InvalidDistribution):
        as_prob_vector([float("nan"), 0.5])
    with pytest.raises(InvalidDistribution):
        shannon_entropy([float("nan"), 1.0])


@pytest.mark.parametrize("values", [[[0.5, 0.5]], []])
def test_shannon_entropy_refuses_anything_but_a_nonempty_vector(values):
    with pytest.raises(InvalidDistribution, match="expected a nonempty 1-d vector"):
        shannon_entropy(values)


def test_depolarizing_vector_values():
    assert np.allclose(depolarizing_vector(Dim(3), 0.12), [0.88, 0.06, 0.06])
    assert np.allclose(depolarizing_vector(Dim(2), 0.0), [1.0, 0.0])
    # uniform at the domain edge
    assert np.allclose(depolarizing_vector(Dim(4), 0.75), [0.25] * 4)


def test_depolarizing_vector_domain():
    with pytest.raises(OutOfRange):
        depolarizing_vector(Dim(2), 0.51)
    with pytest.raises(OutOfRange):
        depolarizing_vector(Dim(3), -0.01)


def test_entropy_rows_of_a_c_ordered_stack_do_not_depend_on_the_stack():
    # rows with zeros at different places, at lengths on both sides of
    # numpy's 8-way unrolled summation; each row must read exactly what it
    # reads alone, which is what lets a (share, p01) block reproduce r_N
    rng = np.random.default_rng(7)
    for n in (2, 5, 8, 11, 31, 121):
        p = rng.dirichlet(np.ones(n), size=40)
        p[rng.random(p.shape) < 0.2] = 0.0
        p[3] = 0.0
        p[4, 1:] = 0.0
        p = np.ascontiguousarray(p / np.maximum(p.sum(axis=1, keepdims=True), 1e-300))
        got = entropy_rows(p)
        for i, (row, h) in enumerate(zip(p, got)):
            assert h.tobytes() == entropy_rows(p[i : i + 1])[0].tobytes(), (n, i)
            nz = row[row > 0.0]
            ref = float(-(nz * np.log2(nz)).sum()) + 0.0
            assert abs(h - ref) <= 1e-15 * ref, (n, i, h, ref)
