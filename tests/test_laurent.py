"""Laurent polynomial container checks."""

import mpmath as mp
import pytest

from ellipsum.laurent import LaurentPoly


def test_basic_arithmetic_and_call():
    p = LaurentPoly({2: 3, -1: mp.mpc(0, 1)}, variable="y")
    q = LaurentPoly({2: -3, 0: 5}, variable="y")
    s = p + q
    assert s.coeff(2) == 0
    assert s.exponents == [-1, 0]
    y = mp.mpf("1.5")
    assert abs(p(y) - (3 * y**2 + mp.mpc(0, 1) / y)) < mp.mpf("1e-12")


def test_zero_coefficients_dropped():
    p = LaurentPoly({3: 0, 1: 2})
    assert p.exponents == [1]
    p = LaurentPoly({-2: 3, 0: mp.mpf("0.25"), 1: mp.mpc(0, 2), 4: mp.mpf(0), 5: mp.mpc(0)})
    # negative exponents are kept; int, mpf and mpc inputs are stored as mpc
    assert p.coeffs == {-2: 3, 0: mp.mpf("0.25"), 1: mp.mpc(0, 2)}
    assert all(type(c) is mp.mpc for c in p.coeffs.values())


def test_shift_and_scale():
    p = LaurentPoly({1: 2, -2: 4})
    assert p.shift(2).exponents == [0, 3]
    assert p.scale(0.5).coeff(1) == 1


def test_json_roundtrip():
    p = LaurentPoly({5: mp.mpc("1.25", "-2"), -3: mp.mpf("0.375")}, variable="y")
    q = LaurentPoly.from_json(p.to_json())
    assert q.variable == "y"
    assert q.exponents == p.exponents
    for e in p.exponents:
        assert abs(p.coeff(e) - q.coeff(e)) < mp.mpf("1e-12")


def test_non_integer_exponent_is_refused():
    # x^1.5 was kept as x^1, and x^-0.5 as x^0
    with pytest.raises(ValueError, match="exponent=1.5 must be an integer"):
        LaurentPoly({1.5: 1, -0.5: 2})
    assert LaurentPoly({-2.0: 3}).coeffs == {-2: 3}  # an integral float is kept
