"""Genus-zero amplitude expansion checks."""

import contextlib
import hashlib
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from ellipsum.cli import run as cli_run
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


@pytest.mark.parametrize("coeffs,entry", [
    ({2: {(-1, 3): 1}}, r"\(-1, 3\)"),  # would read s^deg for s^-1
    ({2: {(0.5, 1): 1}}, r"\(0\.5, 1\)"),
    ({0: {(1, 1): 1}}, r"got 0\b"),  # zeta(0) = -1/2 is no term of the series
    ({1: {(1, 1): 1}}, r"got 1\b"),  # zeta(1) diverges
], ids=["negative_exponent", "non_integer_exponent", "zeta_0", "zeta_1"])
def test_constructor_refuses_bad_entries(coeffs, entry):
    with pytest.raises(ValueError, match=entry):
        ZetaLinExponent(4, coeffs)


def _fraction_exponent(order, sign_rule):
    """The binomial exponent's coefficients built as Fractions one monomial
    at a time (the construction before the integer rows)."""
    return {n: {(k, n - k): Fraction(-u * math.comb(n, k), n) for k in range(1, n)}
            for n in range(2, order + 1) if (u := sign_rule(n)) is not None}


_RULES = {"open": (veneziano_exponent, lambda n: (-1) ** n),
          "closed": (closed_exponent, lambda n: -2 if n % 2 == 1 else None)}


@pytest.mark.parametrize("order", range(2, 61))
def test_rows_match_the_fraction_construction(order):
    for build, rule in _RULES.values():
        e, ref = build(order), _fraction_exponent(order, rule)
        assert e.coeffs == ref
        assert e == ZetaLinExponent(order, ref)
        assert all(e.coeff(n, *k) == c for n, poly in ref.items() for k, c in poly.items())
        assert e.coeff(order + 1, 1, order) == e.coeff(2, 0, 2) == 0
        for c in (2, Fraction(-3, 4), Fraction(5, 6), 0):
            scaled = {n: {k: v * c for k, v in poly.items()} for n, poly in ref.items()}
            assert e.scale(c).coeffs == {n: poly for n, poly in scaled.items() if any(poly.values())}
        sv = {n: {k: 2 * v for k, v in poly.items()} for n, poly in ref.items() if n % 2 == 1}
        assert sv_map_exponent(e).coeffs == sv
        assert sv_map_exponent(e) == ZetaLinExponent(order, sv)


def test_binomial_exponents_construct_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    e = sv_map_exponent(veneziano_exponent(60))
    e(mp.mpf("0.05"), mp.mpf("0.03"), CTX)
    closed_exponent(60)(mp.mpf("0.05"), mp.mpf("0.03"), CTX)
    assert made == []
    assert e.coeff(3, 2, 1) == 2 and made  # the Fraction view is counted


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


def _exponents(order):
    return {"open": veneziano_exponent(order), "closed": closed_exponent(order),
            "sv": sv_map_exponent(veneziano_exponent(order))}


@pytest.mark.parametrize("order,digits", [(11, 30), (40, 60), (60, 100)])
def test_integer_sum_matches_fraction_sum(order, digits):
    # 10^-(digits+3) relative to the value, plus 10^-(digits+10) of the sum of
    # |terms| (the rounding scale of the terms at working precision) for the
    # closed exponent at s = -t, whose value is exactly 0
    ctx = PrecisionCtx(digits=digits)
    for name, e in _exponents(order).items():
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


@pytest.mark.parametrize("st", [("0.0512", "0.0337"), ("-0.3", "0"), ("0.45", "-1e-9")])
def test_real_arguments_sum_as_complex_ones_with_zero_imaginary_part(st):
    s, t = map(mp.mpf, st)
    for e in (veneziano_exponent(60), closed_exponent(40), sv_map_exponent(veneziano_exponent(11))):
        value = e(s, t, CTX)
        as_complex = e(mp.mpc(s, 0), mp.mpc(t, 0), CTX)
        assert (value._mpf_, mp.mpf(0)._mpf_) == as_complex._mpc_


def test_rows_changed_after_a_call_are_read_afresh():
    s, t = mp.mpf("0.3"), mp.mpf("0.2")
    e = ZetaLinExponent(4, {2: {(1, 1): 1}})
    e(s, t, CTX)
    e.rows[3] = (5, {(4, 3): 7, (0, 6): -3})  # a higher degree and a new denominator
    ref = ZetaLinExponent(4, {2: {(1, 1): 1}, 3: {(4, 3): Fraction(7, 5), (0, 6): Fraction(-3, 5)}})
    assert e == ref
    assert e(s, t, CTX)._mpf_ == ref(s, t, CTX)._mpf_


def test_coeffs_view_refuses_writes():
    e = veneziano_exponent(4)
    with pytest.raises(TypeError):
        e.coeffs[5] = {(1, 4): 1}
    with pytest.raises(TypeError):
        e.coeffs[2][1, 1] = 0
    assert e == veneziano_exponent(4)


# ---------------------------------------------------------------------------
# values pinned bit for bit

_DIGESTS = Path(__file__).with_name("genus0_digests.txt")
_ORDERS = (11, 40, 60)
_DIGITS = (30, 60, 100)
_COMPLEX = (("0.1", "0.05"), ("-0.07", "0.02"))


def _raw(x):
    return x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _value_table(order: int, digits: int) -> dict:
    """{label: digest} of the sha256 of repr of the raw bits of each exponent
    at every pair of _POINTS and at the complex pair _COMPLEX."""
    ctx = PrecisionCtx(digits=digits)
    with ctx.workprec():
        pairs = [(s, t, mp.mpf(s), mp.mpf(t)) for s, t in itertools.product(_POINTS, _POINTS)]
        (sr, si), (tr, ti) = _COMPLEX
        pairs.append((f"{sr}+{si}i", f"{tr}+{ti}i", mp.mpc(sr, si), mp.mpc(tr, ti)))
    table = {}
    for name, e in _exponents(order).items():
        for s_label, t_label, s, t in pairs:
            table[f"{order} {digits} {name} {s_label} {t_label}"] = _digest(repr(_raw(e(s, t, ctx))))
    return table


def _json_table() -> dict:
    """{label: digest} of the sha256 of the JSON document (without its
    elapsed_ms) of `genus0 exponent --order 11` for each --which."""
    table = {}
    for which in ("open", "closed", "sv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_run(["genus0", "exponent", "--order", "11", "--which", which]) == 0
        doc = json.loads(out.getvalue())
        del doc["elapsed_ms"]
        table[f"json 11 {which}"] = _digest(json.dumps(doc, sort_keys=True))
    return table


def print_table() -> None:
    for order in _ORDERS:
        for digits in _DIGITS:
            for key, digest in _value_table(order, digits).items():
                print(key, digest)
    for key, digest in _json_table().items():
        print(key, digest)


def _pinned() -> dict:
    lines = _DIGESTS.read_text().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))


@pytest.mark.parametrize("digits", _DIGITS)
@pytest.mark.parametrize("order", _ORDERS)
def test_values_match_pinned_digests(order, digits):
    got = _value_table(order, digits)
    pinned = {key: d for key, d in _pinned().items() if key.startswith(f"{order} {digits} ")}
    assert len(pinned) == len(got)
    assert [key for key in got if got[key] != pinned.get(key)] == []


def test_exponent_json_matches_pinned_digests():
    got = _json_table()
    pinned = {key: d for key, d in _pinned().items() if key.startswith("json ")}
    assert got == pinned
