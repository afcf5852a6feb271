"""Conical zeta value checks: series, quasi-Monte-Carlo integral, matrix
predicates."""

import itertools
import math

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


@pytest.mark.parametrize("rows, ref", [([[1, 0], [0, 1], [1, 1]], 2 * mp.zeta(3)),
                                       ([[1, 1], [1, 1], [2, 1]], mp.zeta(3) / 4)])
def test_cutoff_too_short_for_the_tail_fit(rows, ref):
    # the tail fit has 6 basis functions on the last cutoff // 2 shells
    with pytest.raises(ValueError, match="cutoff"):
        zeta_A(ConeMatrix(rows), cutoff=11, ctx=CTX)
    with CTX.workprec():
        val, bound = zeta_A(ConeMatrix(rows), cutoff=12, ctx=CTX, with_bound=True)
        assert abs(val - ref) <= bound


def test_dimension_guard():
    with pytest.raises(ValueError):
        zeta_A(ConeMatrix([[1, 1, 1, 1, 1, 2]] * 2), cutoff=50, ctx=CTX)


def test_bound_reported():
    with CTX.workprec():
        val, bound = zeta_A(ConeMatrix.mzv_staircase((1, 2)), cutoff=200,
                            ctx=CTX, with_bound=True)
        assert bound > 0
        assert abs(val - mp.zeta(3)) < 10 * bound + mp.mpf("1e-8")


def test_closed_form_psi_kind():
    # x0 is shared by the simple forms x0 and x0 + x1: a digamma difference
    A = ConeMatrix([[1, 0], [0, 1], [1, 1]])
    assert conical._pick_elimination(conical._grouped_forms(A), A.n)[0] == "psi"
    with CTX.workprec():
        val, bound = zeta_A(A, cutoff=200, ctx=CTX, with_bound=True)
        assert abs(val - 2 * mp.zeta(3)) < bound


def test_result_ignores_global_precision():
    A = ConeMatrix([[1, 0], [1, 2], [1, 2]])
    with mp.workdps(15):
        low = zeta_A(A, cutoff=150, ctx=CTX)
    with mp.workdps(30):
        high = zeta_A(A, cutoff=150, ctx=CTX)
    assert low == high


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_hurwitz_table(m, c):
    Z = conical._hurwitz_table(m, c, 2000 + c, CTX)
    with mp.workdps(20):
        for o in range(2001):
            ref = mp.zeta(m, mp.mpf(o) / c + 1) / mp.mpf(c) ** m
            assert abs(Z[o + c] - ref) <= mp.mpf("1e-14") * ref, o


def test_harmonic_table():
    H = conical._harmonic_table(2000)
    with CTX.workprec():
        psi = [mp.psi(0, o + 1) for o in range(2001)]
        for o1 in range(2001):
            assert abs(H[o1] - (psi[o1] - psi[0])) <= mp.mpf("1e-14") * max(H[o1], 1)
            # H[o1] - H[o2] carries the entries' own rounding, ~1e-15 H each,
            # so near pairs are held to that scale rather than to their
            # (small) difference
            for o2 in {o1, o1 - 1, o1 - 7, o1 // 3, 0, 2000}:
                o2 = max(o2, 0)
                ref = psi[o1] - psi[o2]
                assert abs(H[o1] - H[o2] - ref) <= mp.mpf("1e-14") * max(H[o1], H[o2], 1)


def test_psi_factor_equal_and_far_offsets():
    # summing x0 out of the forms x0 + x1 and x0 + x2 leaves offsets x1, x2
    A = ConeMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 0], [0, 0, 1]])
    elim = conical._pick_elimination(conical._grouped_forms(A), A.n)
    assert elim[:2] == ("psi", 0)
    factor = conical._closed_form(elim, [1, 2], 2000, CTX)
    x1 = np.array([1, 7, 500, 2000, 1, 2000, 3])
    x2 = np.array([1, 7, 500, 2000, 2000, 1, 1500])
    got = factor({1: x1, 2: x2})
    with CTX.workprec():
        for a, b, g in zip(x1.tolist(), x2.tolist(), got):
            ref = (mp.psi(1, a + 1) if a == b
                   else (mp.psi(0, a + 1) - mp.psi(0, b + 1)) / (a - b))
            assert abs(g - ref) <= mp.mpf("1e-14") * ref, (a, b)


def test_psi_factor_matches_scipy():
    special = pytest.importorskip("scipy.special")
    A = ConeMatrix([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1],
                    [1, 1, 0, 1]])
    elim = conical._pick_elimination(conical._grouped_forms(A), A.n)
    assert elim[0] == "psi"
    keep = [j for j in range(A.n) if j != elim[1]]
    (f1, _), (f2, _) = elim[2]
    cutoff = 175
    factor = conical._closed_form(elim, keep, cutoff, CTX)
    branches = set()
    for k in (1, 2, 10, 60, cutoff):
        # the points of [1,k]^3 with max coordinate k, as flat arrays
        grid = np.indices((k,) * len(keep)).reshape(len(keep), -1) + 1
        cols = dict(zip(keep, grid[:, grid.max(axis=0) == k]))
        o1 = sum(f1[j] * cols[j] for j in keep).astype(float)
        o2 = sum(f2[j] * cols[j] for j in keep).astype(float)
        eq = o1 == o2
        ref = np.where(eq, special.polygamma(1, o1 + 1),
                       (special.psi(o1 + 1) - special.psi(o2 + 1)) / np.where(eq, 1, o1 - o2))
        branches.update(eq.tolist())
        np.testing.assert_allclose(factor(cols), ref, rtol=1e-12, atol=0)
    assert branches == {False, True}


# one matrix per (elimination kind, summed dimension d); the per-point
# reference reads the same closed-form tables, so the comparison pins the
# shell enumeration, the forms and the division
SHELL_CASES = [
    (None, 1, [[1], [2]]),
    (None, 2, [[1, 1], [1, 1], [2, 1]]),
    (None, 3, [[1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]]),
    (None, 4, [[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, 3, 1], [2, 1, 1, 1], [1, 1, 1, 2]]),
    ("hurwitz", 1, [[1, 0], [1, 2], [1, 2]]),
    ("hurwitz", 2, [[2, 1, 0], [2, 1, 0], [0, 1, 1], [0, 1, 1]]),
    ("hurwitz", 3, [[1, 1, 1, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 0, 1]]),
    ("hurwitz", 4, [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 1, 1], [0, 1, 1, 1, 1],
                    [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]),
    ("psi", 1, [[1, 0], [0, 1], [1, 1]]),
    ("psi", 2, [[1, 1, 0], [1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    ("psi", 3, [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 1]]),
    ("psi", 4, [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 1, 1, 1], [0, 1, 0, 1, 1],
                [0, 0, 1, 1, 1], [0, 1, 1, 0, 2]]),
]


@pytest.mark.parametrize("kind, d, rows", SHELL_CASES,
                         ids=[f"{kind}-d{d}" for kind, d, _ in SHELL_CASES])
def test_shell_sums_match_per_point_sum(kind, d, rows):
    A = ConeMatrix(rows)
    groups = conical._grouped_forms(A)
    elim = conical._pick_elimination(groups, A.n)
    assert (elim and elim[0]) == kind
    keep = [j for j in range(A.n) if elim is None or j != elim[1]]
    assert len(keep) == d
    rest = [(f, m) for f, m in groups if elim is None or f[elim[1]] == 0]
    cutoff = 20 if d < 4 else 12
    closed = conical._closed_form(elim, keep, cutoff, CTX) if elim else None
    factor = closed or (lambda ints: 1.0)
    got = conical._shell_sums(keep, rest, closed, cutoff)
    terms = [[] for _ in range(cutoff)]
    for x in itertools.product(range(1, cutoff + 1), repeat=d):
        term = float(np.asarray(factor({j: np.array([v]) for j, v in zip(keep, x)})).item())
        for f, m in rest:
            term /= float(sum(f[j] * v for j, v in zip(keep, x))) ** m
        terms[max(x) - 1].append(term)
    ref = [math.fsum(t) for t in terms]
    assert len(got) == cutoff
    for k, (g, r) in enumerate(zip(got, ref), 1):
        assert abs(g - r) <= 1e-14 * abs(r), (k, g, r)


@pytest.mark.parametrize("kind, d, rows", SHELL_CASES,
                         ids=[f"{kind}-d{d}" for kind, d, _ in SHELL_CASES])
def test_shell_sums_match_all_points_reference(kind, d, rows):
    # every point of [1, c]^d at once, summed per shell with fsum: a cutoff
    # long enough for many slabs, running-sum faces and o1 = o2 runs
    A = ConeMatrix(rows)
    groups = conical._grouped_forms(A)
    elim = conical._pick_elimination(groups, A.n)
    keep = [j for j in range(A.n) if elim is None or j != elim[1]]
    rest = [(f, m) for f, m in groups if elim is None or f[elim[1]] == 0]
    cutoff = 40 if d < 4 else 14
    closed = conical._closed_form(elim, keep, cutoff, CTX) if elim else None
    points = np.indices((cutoff,) * d).reshape(d, -1) + 1
    ints = dict(zip(keep, points))
    terms = np.ones(points.shape[1]) if closed is None else closed(ints)
    for f, m in rest:
        terms = terms / conical._form(f, ints).astype(float) ** m
    shell = points.max(axis=0)
    order = np.argsort(shell, kind="stable")
    ref = [math.fsum(t) for t in np.split(terms[order], np.cumsum(np.bincount(shell)[1:-1]))]
    got = conical._shell_sums(keep, rest, closed, cutoff)
    assert len(got) == len(ref) == cutoff
    for k, (g, r) in enumerate(zip(got, ref), 1):
        assert abs(g - r) <= 1e-14 * abs(r), (k, g, r)


# zeta_A (value, bound) of the bench matrices A1-A3 at their bench cutoffs
# and at criterion 10's cutoff 400, as summed face by face before the slab
# kernel; the tail fit turns rounding-level changes to the shells into
# ~1e-12 relative moves of the bound
CONE_REGRESSION = [
    ([[1, 0], [1, 2], [1, 2]], 225, "0.47949327575407158196", "1.106192296517791e-4"),
    ([[1, 1], [1, 1], [2, 1]], 225, "0.30051422579829136217", "1.1565123202938652e-4"),
    ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 1]], 175,
     "0.25705331759618227151", "3.6441815925740338e-4"),
    ([[1, 0], [1, 2], [1, 2]], 400, "0.47949327574530399295", "6.2344096679828655e-5"),
    ([[1, 1], [1, 1], [2, 1]], 400, "0.30051422579038475023", "6.5207541806811241e-5"),
    ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 1]], 400,
     "0.25705257573382575719", "1.6379879566032971e-4"),
]


@pytest.mark.parametrize("rows, cutoff, value, bound", CONE_REGRESSION)
def test_zeta_A_matches_frozen_values(rows, cutoff, value, bound):
    got, got_bound = zeta_A(ConeMatrix(rows), cutoff=cutoff, ctx=CTX, with_bound=True)
    with CTX.workprec():
        assert abs(got - mp.mpf(value)) <= mp.mpf("1e-12") * mp.mpf(value)
        assert abs(got_bound - mp.mpf(bound)) <= mp.mpf("1e-9") * mp.mpf(bound)


@pytest.mark.parametrize("K", [12, 13, 150, 175, 225, 400])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_power_tails_match_mpmath(K, m):
    plain, logs = conical._power_tails(K, m)
    with CTX.workprec():
        ref_plain = mp.zeta(m, K + 1)
        ref_logs = -mp.zeta(m, K + 1, 1)  # sum_{k>K} log k / k^m
        assert abs(plain - ref_plain) <= mp.mpf("1e-15") * ref_plain
        assert abs(logs - ref_logs) <= mp.mpf("1e-15") * ref_logs


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
