"""Iterated Eisenstein integral checks."""

import mpmath as mp
import pytest

from ellipsum.eisenstein import _sigma_table, eis_E, eis_G, eis_Gbb
from ellipsum.eisint import (
    b30_reference,
    cocycle_S,
    eichler_E,
    gamma,
    gammaL0,
    gammaR0,
    gamma_inf,
)
from ellipsum.emzv import B_depth1
from ellipsum.numkernel import PrecisionCtx, bernoulli_number
from ellipsum.qseries import QTauSeries, eval_at

CTX = PrecisionCtx(digits=30)
N = 30


def test_gamma_zero_word():
    g = gamma((0,), N)
    assert sorted(g.coeffs) == [(1, 0)]
    assert abs(g.coeff(1, 0) - 2j * mp.pi) < mp.mpf("1e-14")


def test_gamma_derivative_rule():
    # d/dtau Gamma(n1, rest) = -Gbb_{n1} * Gamma(rest)
    with CTX.workprec():
        for nvec in [(4,), (0, 4), (4, 0), (4, 6)]:
            lhs = gamma(nvec, N).dtau()
            tail = gamma(nvec[1:], N) if len(nvec) > 1 else None
            rhs = eis_Gbb(nvec[0], N)
            if tail is not None:
                rhs = rhs.mul(tail)
            resid = lhs.add(rhs).truncate(N - 1).max_abs_coeff()
            scale = max(mp.mpf(1), lhs.max_abs_coeff())
            assert resid < mp.mpf("1e-20") * scale


def test_gamma_splits_into_left_aligned_and_cusp():
    with CTX.workprec():
        for n, k in [(4, 1), (4, 2), (6, 3)]:
            word = (0,) * (k - 1) + (n,)
            lhs = gamma(word, N)
            rhs = gammaL0(n, k, N).add(gamma_inf(word, N))
            assert lhs.sub(rhs).max_abs_coeff() < mp.mpf("1e-18")


def test_gamma_shuffle_numeric():
    with CTX.workprec():
        tau = mp.mpc(0, "1.3")
        for a, b in [((0,), (4,)), ((4,), (4,)), ((0,), (0,))]:
            lhs = eval_at(gamma(a, N), tau, CTX) * eval_at(gamma(b, N), tau, CTX)
            if a == b:
                rhs = 2 * eval_at(gamma(a + b, N), tau, CTX)
            else:
                rhs = eval_at(gamma(a + b, N), tau, CTX) + eval_at(
                    gamma(b + a, N), tau, CTX
                )
            assert abs(lhs - rhs) < mp.mpf("1e-18")


def test_gammaL0_structure():
    with CTX.workprec():
        # odd weights vanish identically
        assert gammaL0(5, 2, N).max_abs_coeff() == 0
        # first q-coefficient is -2/(n-1)! at k = 1
        for n in (4, 6, 8):
            assert abs(gammaL0(n, 1, N).coeff(0, 1)
                       + 2 / mp.factorial(n - 1)) < mp.mpf("1e-20")
    with pytest.raises(ValueError):
        gammaL0(4, 4, N)


@pytest.mark.parametrize("dps", [30, 100])
def test_gammaR0_is_tau_monomials_times_gammaL0(dps):
    # the term map against the ring construction
    # sum_i (-1)^{n-k+i-1} (2 pi i tau)^i / i! gammaL0(n, k-i), coefficient by coefficient
    with mp.workdps(dps):
        for n in range(2, 11, 2):
            for k in range(1, n):
                ref = QTauSeries(N, {})
                for i in range(k):
                    mono = QTauSeries.tau_power(
                        i, N, (-1) ** (n - k + i - 1) * (2j * mp.pi) ** i / mp.factorial(i))
                    ref = ref.add(mono.mul(gammaL0(n, k - i, N)))
                got = gammaR0(n, k, N)
                assert set(got.coeffs) == set(ref.coeffs), (n, k)
                for key, c in ref.coeffs.items():
                    assert abs(got.coeffs[key] - c) <= mp.mpf(10) ** (2 - dps) * abs(c), (n, k, key)


def test_exact_power_divisor_keeps_the_bits():
    # q^N coefficients of all four divisor-sum series divide by the integer
    # N**k: bit-identical to dividing by mpf(N)**k wherever N**k < 2**prec
    for dps in (30, 100):
        with mp.workdps(dps):
            sig = {n: _sigma_table(n - 1, 80) for n in range(2, 13, 2)}
            for n in range(2, 13, 2):
                pref = -2 / mp.factorial(n - 1)
                for k in range(1, n):
                    f = gammaL0(n, k, 80)
                    for N in range(1, 81):
                        old = pref * (mp.mpf(sig[n][N]) / mp.mpf(N) ** k)
                        assert f.coeff(0, N) == old, (dps, n, k, N)
            for k in range(4, 13, 2):
                f = eichler_E(k, 80)
                for j in range(1, 81):
                    assert f.coeff(0, j) == mp.mpf(sig[k][j]) / mp.mpf(j) ** (k - 1)
            # eis_E and eis_G divide by N**0 = 1; sigma_{k-1}(N) < 2**prec here,
            # so eis_G keeps the bits of pref * sigma_{k-1}(N)
            for k in range(2, 13, 2):
                e, g = eis_E(k, 80), eis_G(k, 80)
                pref = 2 * (2j * mp.pi) ** k / mp.factorial(k - 1)
                for N in range(1, 81):
                    assert e.coeff(0, N) == mp.mpc(sig[k][N])
                    assert g.coeff(0, N) == pref * sig[k][N]


def test_eichler_constant_and_guard():
    with CTX.workprec():
        assert abs(eichler_E(4, N).coeff(0, 0) - mp.zeta(3) / 2) < mp.mpf("1e-25")
    with pytest.raises(ValueError):
        eichler_E(3, N)


def test_cocycle_weight4():
    with CTX.workprec():
        c = cocycle_S(4)
        half = mp.factorial(2) / 2
        assert abs(c[(0, 2)] - half * mp.zeta(3)) < mp.mpf("1e-25")
        assert abs(c[(2, 0)] + half * mp.zeta(3)) < mp.mpf("1e-25")
        # the XY coefficient is -(2 pi i)^3 B_2 B_2 / (2! 2!) * (2!/2)
        b2 = bernoulli_number(2)
        ref = -half * (2j * mp.pi) ** 3 * (
            mp.mpf(b2.numerator) / b2.denominator
        ) ** 2 / 4
        assert abs(c[(1, 1)] - ref) < mp.mpf("1e-22")
        # antisymmetry under (X, Y) -> (Y, -X) for even weight 4
        x, y = mp.mpc("0.3", "0.1"), mp.mpc("-0.2", "0.7")
        assert abs(c(x, y) + c(y, -x)) < mp.mpf("1e-20")


def test_b30_reference_matches_series():
    with CTX.workprec():
        tau = mp.mpc("0.2", "1.1")
        assert abs(b30_reference(tau, CTX)
                   - B_depth1(3, 2, tau, CTX)) < mp.mpf("1e-20")
