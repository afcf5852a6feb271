"""Genus-zero amplitude expansion checks."""

import itertools
from fractions import Fraction

import mpmath as mp
import pytest

from ellipsum.genus0 import (
    ZetaLinExponent,
    closed_exponent,
    gamma1p,
    sv_map_exponent,
    veneziano_exponent,
)
from ellipsum.numkernel import PrecisionCtx

CTX = PrecisionCtx(digits=40)


def test_gamma1p_matches_gamma():
    with CTX.workprec():
        for z in (mp.mpf("0.3"), mp.mpf("-0.45"), mp.mpc("0.2", "0.3")):
            assert abs(gamma1p(z, CTX) - mp.gamma(1 + z)) < mp.mpf("1e-35")
        assert gamma1p(0, CTX) == 1


def test_gamma1p_domain_guard():
    with pytest.raises(ValueError):
        gamma1p(1.0, CTX)


def test_veneziano_low_order_coefficients():
    e = veneziano_exponent(4)
    # order 2: -zeta(2) s t (from (s^2 + t^2 - (s+t)^2)/2)
    assert e.coeff(2, 1, 1) == Fraction(-1)
    # order 3: +zeta(3)/3 * 3 s^2 t = zeta(3) s^2 t
    assert e.coeff(3, 2, 1) == Fraction(1)
    assert e.coeff(3, 1, 2) == Fraction(1)
    with pytest.raises(ValueError):
        veneziano_exponent(1)


def test_closed_exponent_only_odd_zetas():
    e = closed_exponent(11)
    assert all(n % 2 == 1 for n in e.coeffs)
    assert e.coeff(3, 2, 1) == Fraction(2)


def test_sv_map_exact():
    assert sv_map_exponent(veneziano_exponent(11)) == closed_exponent(11)
    # even zetas are annihilated
    assert sv_map_exponent(ZetaLinExponent(4, {2: {(1, 1): 1}})).coeffs == {}


def test_exponent_scale_and_call():
    with CTX.workprec():
        e = veneziano_exponent(40)
        s, t = mp.mpf("0.1"), mp.mpf("0.05")
        assert abs(e.scale(2)(s, t, CTX) - 2 * e(s, t, CTX)) < mp.mpf("1e-30")
        ref = mp.log(gamma1p(s, CTX) * gamma1p(t, CTX) / gamma1p(s + t, CTX))
        assert abs(e(s, t, CTX) - ref) < mp.mpf("1e-30")


def _fraction_sum(e, s, t):
    """The exponent summed as Fraction * mpf * mpf at the ambient precision
    (the evaluation before the integer sum), and the same sum of |terms|."""
    deg = max((max(k) for poly in e.coeffs.values() for k in poly), default=0)
    sp = [s**a for a in range(deg + 1)]
    tp = [t**b for b in range(deg + 1)]
    total = magnitude = mp.mpf(0)
    for n, poly in sorted(e.coeffs.items()):
        z = mp.zeta(n)
        terms = [c * sp[a] * tp[b] for (a, b), c in poly.items()]
        total += z * sum(terms)
        magnitude += z * sum(abs(x) for x in terms)
    return total, magnitude


_POINTS = ["-0.02", "0.02", "0.08", "0.3", "0.45", "-1e-9"]


@pytest.mark.parametrize("order,digits", [(11, 30), (40, 60), (60, 100)])
def test_integer_sum_matches_fraction_sum(order, digits):
    # 10^-(digits+3) relative to the value, plus 10^-(digits+10) of the sum of
    # |terms| (the rounding scale of the terms at working precision) for the
    # closed exponent at s = -t, whose value is exactly 0
    ctx = PrecisionCtx(digits=digits)
    exponents = {"open": veneziano_exponent(order), "closed": closed_exponent(order),
                 "sv": sv_map_exponent(veneziano_exponent(order))}
    for name, e in exponents.items():
        for s, t in itertools.product(_POINTS, _POINTS):
            with mp.workdps(digits + 20):
                s, t = mp.mpf(s), mp.mpf(t)
                ref, terms = _fraction_sum(e, s, t)
            value = e(s, t, ctx)
            assert type(value) is mp.mpf
            with mp.workdps(digits + 20):
                tol = mp.mpf(10) ** -(digits + 3) * abs(ref) + mp.mpf(10) ** -(digits + 10) * terms
                assert abs(value - ref) <= tol, (name, s, t)


def test_integer_sum_takes_complex_arguments():
    ctx = PrecisionCtx(digits=40)
    e = veneziano_exponent(60)
    with mp.workdps(60):
        s, t = mp.mpc("0.1", "0.05"), mp.mpc("-0.07", "0.02")
        ref = mp.loggamma(1 + s) + mp.loggamma(1 + t) - mp.loggamma(1 + s + t)
    value = e(s, t, ctx)
    assert isinstance(value, mp.mpc)
    with mp.workdps(60):
        assert abs(value - ref) < mp.mpf(10) ** -43 * abs(ref)
        assert abs(value - _fraction_sum(e, s, t)[0]) < mp.mpf(10) ** -43 * abs(ref)
