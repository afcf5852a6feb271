"""Iterated Eisenstein integral checks."""

import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from ellipsum.eisenstein import _sigma_table, eis_E, eis_G, eis_Gbb
from ellipsum.eisint import (
    _gamma_rows,
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


def _mul(f, g):
    """The mpc product of two series, truncated at the lower q_order."""
    order, out = min(f.q_order, g.q_order), {}
    for (i1, j1), c1 in f.coeffs.items():
        for (i2, j2), c2 in g.coeffs.items():
            if j1 + j2 <= order:
                out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return QTauSeries(order, out)


def _reg_primitive(f):
    """The mpc primitive F of f with dF/dtau = -f, regularized toward the cusp:
    tau^i goes to -tau^(i+1)/(i+1), and tau^i q^j, j > 0, to
    -sum_s (-1)^s i (i-1) ... (i-s+1) tau^(i-s) q^j / (2 pi i j)^(s+1)."""
    out, two_pi_i = {}, 2j * mp.pi
    for (i, j), c in f.coeffs.items():
        if j == 0:
            out[i + 1, 0] = out.get((i + 1, 0), 0) - c / (i + 1)
            continue
        fall = 1  # i (i-1) ... (i-s+1)
        for s in range(i + 1):
            out[i - s, j] = out.get((i - s, j), 0) - c * (-1) ** s * fall / (two_pi_i * j) ** (s + 1)
            fall *= i - s
    return QTauSeries(f.q_order, out)


def _ring_gamma(nvec, q_order):
    """gamma by the mpc ring recursion _reg_primitive(Gbb_{n1} * gamma(rest))."""
    if not nvec:
        return QTauSeries(q_order, {(0, 0): 1})
    return _reg_primitive(_mul(eis_Gbb(nvec[0], q_order), _ring_gamma(nvec[1:], q_order)))


def _g(n):
    """Gbb_n/(2 pi i) = -B_n/n! + 2/(n-1)! sum sigma_{n-1}(N) q^N (-1 at n = 0), n
    even, as {(T power, q power): Fraction} up to q^N."""
    out = {(0, 0): -bernoulli_number(n) / math.factorial(n)}
    if n:
        sigma = _sigma_table(n - 1, N)
        out.update({(0, j): Fraction(2 * sigma[j], math.factorial(n - 1)) for j in range(1, N + 1)})
    return out


def _times(a, b):
    """The product of two exact series, truncated at q^N."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if j1 + j2 <= N:
                out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + x * y
    return {key: x for key, x in out.items() if x}


def _d_dT(f):
    """d/dT of an exact series, q = exp(T): T^i q^j goes to i T^(i-1) q^j + j T^i q^j."""
    out = {}
    for (i, j), c in f.items():
        for key, x in (((i - 1, j), i * c), ((i, j), j * c)):
            out[key] = out.get(key, 0) + x
    return {key: x for key, x in out.items() if x}


@pytest.mark.parametrize("dps", [30, 100])
def test_gamma_derivative_rule(dps):
    # d/dT gamma(n1, rest) = -g_{n1} gamma(rest) exactly on the rows
    # (T = 2 pi i tau, Gbb_n = 2 pi i g_n), and the coefficients are those of
    # the mpc ring recursion; 100 digits run right after 30, so a conversion
    # cached at 30 digits would show
    with mp.workdps(dps):
        for nvec in [(4,), (0, 4), (4, 0), (4, 6), (4, 2, 0)]:
            rhs = _times(_g(nvec[0]), _exact(nvec[1:]))
            assert _d_dT(_exact(nvec)) == {key: -x for key, x in rhs.items()}, nvec
            got = gamma(nvec, N)
            ref = _ring_gamma(nvec, N)
            assert set(got.coeffs) == set(ref.coeffs), nvec
            for key, c in ref.coeffs.items():
                assert abs(got.coeffs[key] - c) <= mp.mpf(10) ** (2 - dps) * abs(c), (nvec, key)


def _exact(nvec):
    """gamma(nvec, N) as {(T power, q power): Fraction}, T = 2 pi i tau."""
    rows, den = _gamma_rows(nvec, N)
    return {(i, j): Fraction(x, den) for i, row in enumerate(rows) for j, x in enumerate(row) if x}


@pytest.mark.parametrize("a, b", list(itertools.product((0, 2, 4, 6, 8), repeat=2)))
def test_gamma_rows_shuffle_exactly(a, b):
    # gamma(a) gamma(b) = gamma(a, b) + gamma(b, a), with no tolerance
    lhs = {}
    for (i1, j1), x in _exact((a,)).items():
        for (i2, j2), y in _exact((b,)).items():
            if j1 + j2 <= N:
                key = (i1 + i2, j1 + j2)
                lhs[key] = lhs.get(key, 0) + x * y
    rhs = _exact((a, b))
    for key, x in _exact((b, a)).items():
        rhs[key] = rhs.get(key, 0) + x
    assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_gamma_rows_cusp_part_exactly():
    # the q^0 row of every word is gamma_inf's prod B_{n_i}/n_i! T^k/k!, and nothing else
    for k in (1, 2, 3):
        for nvec in itertools.product((0, 2, 4, 6, 8), repeat=k):
            ref = Fraction(1, math.factorial(k))
            for n in nvec:
                ref *= bernoulli_number(n) / math.factorial(n)
            assert {i: x for (i, j), x in _exact(nvec).items() if j == 0} == {k: ref}, nvec


def test_gamma_refuses_a_non_integer_index():
    with pytest.raises(ValueError, match="index 4.7 of nvec"):
        gamma((4.7,), 10)


@pytest.mark.parametrize("q_order", [2.5, -1])
def test_gamma_refuses_a_bad_q_order(q_order):
    with pytest.raises(ValueError, match="q_order"):
        gamma((4,), q_order)


def test_gamma_refuses_a_word_above_its_size_ceiling():
    # entries of the exact rows carry about 1.44 q_order len(word) bits; above
    # the ceiling the word is refused by name before any row is built
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="q_order=2000 times the length 3 of nvec"):
        gamma((4, 0, 6), 2000)
    assert time.monotonic() - t0 < 0.5
    assert len(gamma((4, 0, 6), 30).coeffs) > 0


def test_gamma_splits_into_left_aligned_and_cusp():
    with CTX.workprec():
        for n, k in [(4, 1), (4, 2), (6, 3)]:
            word = (0,) * (k - 1) + (n,)
            lhs = gamma(word, N)
            rhs = gammaL0(n, k, N).add(gamma_inf(word, N))
            assert lhs.sub(rhs).max_abs_coeff() < mp.mpf("1e-18")


def test_gamma_inf_is_the_q0_part_of_gamma():
    # one formula: a word holding a 1 has the zero series (Gbb_1 = 0), not -pi i tau
    with CTX.workprec():
        for k in (1, 2, 3):
            for word in itertools.product((0, 1, 2, 3, 4, 6), repeat=k):
                cusp = {key: c for key, c in gamma(word, N).coeffs.items() if key[1] == 0}
                got = gamma_inf(word, N)
                assert got.q_order == N
                assert got.coeffs == cusp, word


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
                    mono = QTauSeries(
                        N, {(i, 0): (-1) ** (n - k + i - 1) * (2j * mp.pi) ** i / mp.factorial(i)})
                    ref = ref.add(_mul(mono, gammaL0(n, k - i, N)))
                got = gammaR0(n, k, N)
                assert set(got.coeffs) == set(ref.coeffs), (n, k)
                for key, c in ref.coeffs.items():
                    assert abs(got.coeffs[key] - c) <= mp.mpf(10) ** (2 - dps) * abs(c), (n, k, key)


def _exact_coefficients(terms, head, q_order):
    """{(i, j): mpc} of the series of an exact term map and head, at the
    working precision, each coefficient summed from its Fractions."""
    out = {}
    for (i, mono, p), c in (head or {}).items():
        z = mp.fprod(mp.zeta(m) for (m,) in mono)  # a head's monomial: single zetas
        out[i, 0] = out.get((i, 0), 0) + mp.mpf(c.numerator) / c.denominator * z * (2j * mp.pi) ** p
    for (i, n, k, p), c in terms.items():
        sigma = _sigma_table(n - 1, q_order)
        for N in range(1, q_order + 1):
            t = mp.mpf(c.numerator * sigma[N]) / (c.denominator * N**k) * (2j * mp.pi) ** p
            out[i, N] = out.get((i, N), 0) + t
    return out


def _within_one_ulp(got, ref, prec):
    """Each part of got within one unit in the last place (at prec bits) of ref's."""
    for g, r in ((got.real, ref.real), (got.imag, ref.imag)):
        if abs(g - r) > (mp.ldexp(1, mp.mag(r) - prec) if r else 0):
            return False
    return True


def test_series_coefficients_are_rounded_once():
    # every coefficient of the ctx-less constructors and of A_depth1's series
    # is its exact value rounded once: within one ulp of the value summed from
    # the Fractions at +20 digits
    from ellipsum.eisenstein import _eis_E_terms, _eis_G_terms
    from ellipsum.eisint import _eichler_terms
    from ellipsum.emzv import A_depth1, _A_word_terms

    q_order = 12
    cases = []
    for k in range(0, 13, 2):
        cases.append((lambda k=k: eis_G(k, q_order), _eis_G_terms(k)))
        cases.append((lambda k=k: eis_Gbb(k, q_order), _eis_G_terms(k, 1 - k)))
    for k in range(2, 13, 2):
        cases.append((lambda k=k: eis_E(k, q_order), _eis_E_terms(k)))
    for k in range(4, 13, 2):
        cases.append((lambda k=k: eichler_E(k, q_order), _eichler_terms(k)))
    for n in range(2, 11, 2):
        for k in range(1, n):
            f = math.factorial(n - 1)
            cases.append((lambda n=n, k=k: gammaL0(n, k, q_order),
                          ({(0, n, k, 0): Fraction(-2, f)}, None)))
            right = {(i, n, k - i, i): Fraction(2 * (-1) ** (n - k + i), math.factorial(i) * f)
                     for i in range(k)}
            cases.append((lambda n=n, k=k: gammaR0(n, k, q_order), (right, None)))
    for dps in (40, 110):
        ctx = PrecisionCtx(dps - 10)  # A_depth1 builds at ctx.dps
        depth1 = [(lambda n=n, r=r: A_depth1(n, r, ctx=ctx, q_order=q_order),
                   _A_word_terms((n,) + (0,) * (r - 1)))
                  for n, r in [(0, 3), (1, 1), (1, 4), (2, 3), (3, 2), (4, 4), (5, 3)]]
        for build, (terms, head) in cases + depth1:
            with mp.workdps(dps):
                got, prec = build(), mp.mp.prec
            with mp.workdps(dps + 20):
                ref = {key: c for key, c in _exact_coefficients(terms, head, q_order).items() if c}
                assert set(got.coeffs) == set(ref), (dps, terms, head)
                for key, c in ref.items():
                    assert _within_one_ulp(got.coeffs[key], c, prec), (dps, terms, head, key)


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
