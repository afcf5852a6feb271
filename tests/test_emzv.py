"""A-cycle and B-cycle elliptic multiple zeta value checks."""

import mpmath as mp
import pytest

from ellipsum.emzv import (
    A_depth1,
    A_depth1_general,
    A_inf_depth1,
    A_len1,
    A_len2,
    A_len2_cordouble,
    B_depth1,
    B_inf_depth1,
    appendixB_matrices,
    appendixB_vectors,
    expl_diff_A,
    hatA,
    quadrature_oracle,
    vector_weight,
)
from ellipsum import eisenstein, emzv
from ellipsum.cli import run
from ellipsum.eisenstein import _divisor_series, _divisor_value, f_n
from ellipsum.laurent import LaurentPoly
from ellipsum.numkernel import PrecisionCtx
from ellipsum.qseries import GuardError, QTauSeries, auto_q_order

CTX = PrecisionCtx(digits=30)
TAU = mp.mpc("0.2", "1.1")


def test_depth_one_length_one_constants():
    with CTX.workprec():
        for n in (0, 2, 3, 4, 6):
            assert abs(A_depth1(n, 1, TAU, CTX) - A_len1(n)) < mp.mpf("1e-25")


def test_length_two_shuffle():
    # A(n) A(m) = A(n,m) + A(m,n), with A(1) = 0 and A(odd) = 0
    with CTX.workprec():
        for n, m in [(2, 2), (2, 4), (1, 4), (1, 6), (2, 3), (3, 4), (2, 5)]:
            lhs = A_len1(n) * A_len1(m)
            rhs = A_len2(n, m, TAU, CTX) + A_len2(m, n, TAU, CTX)
            assert abs(lhs - rhs) < mp.mpf("1e-24")
        # the (2,2) case collapses to -pi^2/72
        val = A_len2(2, 2, TAU, CTX)
        assert abs(val + mp.pi**2 / 72) < mp.mpf("1e-24")


@pytest.mark.parametrize("digits", [30, 60])
def test_length_two_matches_odd_weight_reduction(digits):
    ctx = PrecisionCtx(digits)
    with ctx.workprec():
        for n1, n2 in [(n1, n2) for n1 in range(2, 10) for n2 in range(2, 12 - n1)
                       if (n1 + n2) % 2]:
            val = A_len2(n1, n2, TAU, ctx)
            ref = A_len2_cordouble(n1, n2, TAU, ctx)
            assert abs(val - ref) <= ctx.eps * max(1, abs(ref)), (n1, n2)


def test_length_one_word_one_has_two_pinned_values():
    # A_len1(1) = 0 is what the shuffle checks use; the series side (the cusp
    # constant, A_depth1 and _A_word_terms, hence expl_diff_A) carries i pi/2
    with CTX.workprec():
        assert A_len1(1) == 0
        terms, head = emzv._A_word_terms((1,))
        word_value = _divisor_value(terms, head, auto_q_order(TAU, CTX), TAU, CTX)[0]
        for val in (A_inf_depth1(1, 1), A_depth1(1, 1, TAU, CTX), word_value):
            assert abs(val - 1j * mp.pi / 2) <= CTX.eps


_ONE_SERIES = {
    "A_depth1": (emzv, lambda: A_depth1(5, 4, TAU, CTX)),
    "A_depth1_general": (emzv, lambda: A_depth1_general(2, 3, 1, TAU, CTX)),
    "A_len2": (emzv, lambda: A_len2(2, 5, TAU, CTX)),
    "hatA": (emzv, lambda: hatA(6, TAU, CTX, form="direct")),
    "B_depth1": (emzv, lambda: B_depth1(5, 4, TAU, CTX)),
    "eisenstein e --tau": (eisenstein, lambda: run(["eisenstein", "e", "--k", "6",
                                                    "--tau", "0.2+1.1i"])),
}


@pytest.mark.parametrize("name", list(_ONE_SERIES))
def test_one_series_evaluation_per_value(monkeypatch, capsys, name):
    # each value is one exact divisor-sum term map, summed once in integers
    # from the map, without building its series
    calls = []
    module, value = _ONE_SERIES[name]
    evaluate = module._divisor_value
    monkeypatch.setattr(module, "_divisor_value", lambda *a: calls.append(a) or evaluate(*a))
    with CTX.workprec():
        value()
    assert len(calls) == 1


def test_length_one_constants_of_the_derivative():
    # the lambda_m that A_len2 integrates with are the cusp constants A(m)/(2 pi i)
    with CTX.workprec():
        for m in range(9):
            lam = emzv._len1_over_2pii(m)
            lhs = 2j * mp.pi * lam.numerator / lam.denominator
            assert abs(lhs - A_inf_depth1(m, 1)) <= CTX.eps, m


@pytest.mark.parametrize("word", [(2, 0), (0, 3), (1, 0), (3, 0, 0), (0, 2, 0), (0, 0, 3), (5, 0, 0)],
                         ids=str)
def test_explicit_derivative_matches_series_derivative(word):
    ctx = PrecisionCtx(40)
    with ctx.workprec():
        explicit = expl_diff_A(word, 12)
        terms, head = emzv._A_word_terms(word)
        direct = _divisor_series(terms, head, 12).dtau()
        scale = max(explicit.max_abs_coeff(), direct.max_abs_coeff())
        for key in set(explicit.coeffs) | set(direct.coeffs):
            diff = abs(explicit.coeff(*key) - direct.coeff(*key))
            assert diff <= mp.mpf(10) ** -(ctx.dps - 5) * scale, key


def test_even_length_two_is_constant():
    with CTX.workprec():
        a = A_len2(2, 4, TAU, CTX)
        b = A_len2(2, 4, mp.mpc(0, 1), CTX)
        assert abs(a - b) < mp.mpf("1e-24")


def test_length_two_validates_tau_at_both_parities():
    for n1, n2 in [(2, 2), (2, 3)]:
        with pytest.raises(GuardError):
            A_len2(n1, n2, 0.3 - 1j, CTX)


def test_series_json_keeps_build_precision():
    # written outside workprec, read back under it: the digits built survive
    ctx = PrecisionCtx(40)
    with ctx.workprec():
        series = A_depth1(3, 2, ctx=ctx)
        laurent = B_inf_depth1(5, 3, ctx)
    text_series, text_laurent = series.to_json(), laurent.to_json()
    with ctx.workprec():
        back_series = QTauSeries.from_json(text_series)
        back_laurent = LaurentPoly.from_json(text_laurent)
    for built, back in [(series, back_series), (laurent, back_laurent)]:
        assert set(back.coeffs) == set(built.coeffs)
        for key, c in built.coeffs.items():
            assert abs(back.coeffs[key] - c) <= ctx.eps * abs(c), key


def test_reversal_symmetry():
    # A(0^s, n, 0^r) = (-1)^n A(0^r, n, 0^s)
    with CTX.workprec():
        for s, n, r in [(1, 2, 0), (2, 3, 1), (0, 4, 2)]:
            lhs = A_depth1_general(s, n, r, TAU, CTX)
            rhs = (-1) ** n * A_depth1_general(r, n, s, TAU, CTX)
            assert abs(lhs - rhs) < mp.mpf("1e-22")


def test_hatA_normalization_and_forms():
    for ctx in (CTX, PrecisionCtx(60), PrecisionCtx(100)):
        for tau in (TAU, mp.mpc("-0.37", "0.6"), mp.mpc(0, 3)):
            assert hatA(2, tau, ctx) == 0
    with CTX.workprec():
        direct = hatA(4, TAU, CTX, form="direct")
        eichler = hatA(4, TAU, CTX, form="eichler")
        assert abs(direct - eichler) < mp.mpf("1e-20")
    with pytest.raises(ValueError):
        hatA(1, TAU, CTX)


def test_cusp_constants_match_series_limit():
    # at large Im tau the depth-one series approaches its cusp constant
    with CTX.workprec():
        high = mp.mpc(0, 40)
        for n, r in [(2, 2), (3, 2), (0, 3)]:
            assert abs(A_depth1(n, r, high, CTX)
                       - A_inf_depth1(n, r)) < mp.mpf("1e-25")


def test_B_inf_small_golden():
    with CTX.workprec():
        P = 2j * mp.pi
        poly = B_inf_depth1(3, 1)
        assert poly.exponents == [-1, 0, 3]
        assert abs(poly.coeff(3) + P**2 / 720) < mp.mpf("1e-24")
        assert abs(poly.coeff(0) + mp.zeta(3) / P) < mp.mpf("1e-24")
        assert abs(poly.coeff(-1) + 6 * mp.zeta(4) / P**2) < mp.mpf("1e-24")
        # with no zeros the lead sum sum_k B_k/(k! (n-k)! (n-k+1)) is exactly 0,
        # so tau^n is absent rather than a rounding residue
        for n in (2, 4, 6, 8):
            poly = B_inf_depth1(n, 0)
            assert poly.exponents == [0]
            assert abs(poly.coeff(0) + 2 * mp.zeta(n) / P ** (n - 1)) < mp.mpf("1e-24")


def test_B_inf_guards():
    with pytest.raises(ValueError):
        B_inf_depth1(1, 2)
    with pytest.raises(ValueError):
        B_inf_depth1(4, -1)


def test_B_depth1_approaches_laurent_at_cusp():
    with CTX.workprec():
        high = mp.mpc(0, 25)
        for n, r in [(3, 2), (2, 3)]:
            assert abs(B_depth1(n, r, high, CTX)
                       - B_inf_depth1(n, r - 1)(high)) < mp.mpf("1e-20")


@pytest.mark.parametrize("digits, tau", [(30, mp.mpc("0.13", "1.2")),
                                         (60, mp.mpc("-0.37", "0.6"))])
def test_B_depth1_is_A_depth1_at_minus_one_over_tau(digits, tau):
    # every (j, k) row of the double sum, against A_depth1(n, r, -1/tau) at
    # +20 digits with 3x the automatic q_order
    ctx, ref_ctx = PrecisionCtx(digits=digits), PrecisionCtx(digits=digits + 20)
    with ref_ctx.workprec():
        s = -1 / tau
        N = 3 * auto_q_order(s, ref_ctx)
        refs = {(n, r): A_depth1(n, r, s, ref_ctx, q_order=N)
                for n in range(2, 9) for r in range(2, 7)}
    for (n, r), ref in refs.items():
        with ctx.workprec():
            err = abs(B_depth1(n, r, tau, ctx) - ref)
        assert err <= mp.mpf(10) ** (1 - digits) * max(1, abs(ref)), (n, r, err)


def test_quadrature_oracle_depth_one():
    ctx = PrecisionCtx(digits=15)
    with ctx.workprec():
        tau = mp.mpc(0, "1.3")
        assert abs(quadrature_oracle((2, 0), tau, ctx)
                   - A_depth1(2, 2, tau, ctx)) < mp.mpf("1e-10")


def test_quadrature_oracle_samples_each_point_once(monkeypatch):
    # the nested grids share their points: (3, 2) at 15 digits converges at
    # 32 points, 33 samples of each of f_3 and f_2 (a nested mp.quad took 13 760)
    calls = []

    def counted(n, xi, tau, ctx):
        calls.append((n, xi))
        return f_n(n, xi, tau, ctx)

    monkeypatch.setattr(emzv, "f_n", counted)
    ctx = PrecisionCtx(digits=15)
    with ctx.workprec():
        tau = mp.mpc(0, "1.2")
        value = quadrature_oracle((3, 2), tau, ctx)
        assert abs(value - A_len2(3, 2, tau, ctx)) < mp.mpf("1e-12")
    assert len(calls) == len(set(calls)) <= 2 * 65


def test_quadrature_oracle_guard(monkeypatch):
    # 16 and 32 points cannot agree to 10^-45 at Im tau = 0.6
    monkeypatch.setattr(emzv, "_CHEB_MAX", 32)
    with pytest.raises(GuardError, match="Chebyshev"):
        quadrature_oracle((3, 2), mp.mpc(0, "0.6"), PrecisionCtx(50))
    with pytest.raises(ValueError):
        quadrature_oracle((1, 2), TAU, CTX)


def test_appendixB_matrix_consistency():
    # S^2 acts as (-1)^k on weight-k vectors: M_S(at S tau) composed with
    # itself must square to the identity up to sign; verify numerically
    ctx = PrecisionCtx(digits=30)
    tau = mp.mpc("0.13", "1.07")
    with ctx.workprec():
        for which in ("V32", "V23", "V14"):
            w = vector_weight(which)
            v = appendixB_vectors(which, tau, ctx)
            m = appendixB_matrices(which, "T")
            v_shift = appendixB_vectors(which, tau + 1, ctx)
            for i in range(6):
                rhs = sum(
                    mp.mpf(m[i][j].numerator) / m[i][j].denominator * v[j]
                    for j in range(6)
                )
                assert abs(v_shift[i] - rhs) < mp.mpf("1e-22")
            assert w in (-1, -2, -3)
    with pytest.raises(ValueError):
        appendixB_matrices("V32", "R")
