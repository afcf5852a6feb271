"""Conical zeta value checks: series, quasi-Monte-Carlo integral, matrix
predicates."""

import mpmath as mp
import numpy as np
import pytest

from ellipsum import conical
from ellipsum.conical import (
    ConeMatrix,
    is_C1s,
    is_TU,
    zeta_A,
    zeta_A_integral,
)
from ellipsum.numkernel import PrecisionCtx

CTX = PrecisionCtx(digits=30)


def test_staircase_single_and_double():
    with CTX.workprec():
        assert abs(zeta_A(ConeMatrix.mzv_staircase((2,)), cutoff=200, ctx=CTX)
                   - mp.zeta(2)) < mp.mpf("1e-8")
        assert abs(zeta_A(ConeMatrix.mzv_staircase((1, 2)), cutoff=200, ctx=CTX)
                   - mp.zeta(3)) < mp.mpf("1e-8")


def test_divergence_guard():
    with pytest.raises(ValueError):
        zeta_A(ConeMatrix([[1]]), cutoff=50, ctx=CTX)


def test_dimension_guard():
    with pytest.raises(ValueError):
        zeta_A(ConeMatrix([[1, 1, 1, 1, 1, 2]] * 2), cutoff=50, ctx=CTX)


def test_bound_reported():
    with CTX.workprec():
        val, bound = zeta_A(ConeMatrix.mzv_staircase((1, 2)), cutoff=200,
                            ctx=CTX, with_bound=True)
        assert bound > 0
        assert abs(val - mp.zeta(3)) < 10 * bound + mp.mpf("1e-8")


def test_integral_oracle_agrees():
    with CTX.workprec():
        A = ConeMatrix([[1, 1], [1, 1], [2, 1]])
        series = zeta_A(A, cutoff=300, ctx=CTX)
        integral, err = zeta_A_integral(A, samples=1 << 14, ctx=CTX,
                                        with_error=True)
        assert abs(series - integral) < max(10 * err, mp.mpf("1e-3"))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_halton_matches_scipy_qmc(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in range(1234, 1242):
        ref = qmc.Halton(d=d, scramble=True, seed=seed).random(4096)
        assert np.array_equal(conical._halton(d, 4096, seed), ref)


def test_consecutive_ones_predicate():
    ok, order = is_C1s([[1, 1, 0], [0, 1, 1], [1, 1, 1]], with_witness=True)
    assert ok and len(order) == 3
    # circular incidence pattern admits no consecutive-ones column order
    assert not is_C1s([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def test_totally_unimodular_predicate():
    assert is_TU([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    # odd cycle incidence has determinant 2
    assert not is_TU([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def test_json_roundtrip():
    A = ConeMatrix([[1, 0], [1, 2], [1, 2]])
    B = ConeMatrix.from_json(A.to_json())
    assert B.data == A.data
